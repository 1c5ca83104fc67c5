from .mesh import MziMesh, clements_placements, mesh_matrices, mzi_rotation, stage_neighbors
from .svd import SvdBlock, block_phase_count, svd_matrices
from .noise import FrozenNoise, NoiseModel, apply_nonidealities, quantize_phases
from .model import DENSE_BLOCK_SIZE, PhotonicDense, PhotonicMlp, PhotonicTT, random_phases
from .cost import ARCHITECTURES, CostParams, FOOTPRINT_TABLE, footprint, latency, mzi_count, tt_replication
