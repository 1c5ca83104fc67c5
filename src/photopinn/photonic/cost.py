"""Latency, footprint and device-count model for the training accelerator architectures.

    t_inference = n_cycle * (t_DAC + t_tuning + t_opt + t_ADC)
    t_epoch     = (t_inference * N_point * N_loss + t_tuning) * N_grads + t_DIG
    t_total     = t_epoch * epochs

n_cycle and t_opt follow from the Black-Scholes hidden layer as
`models.phase_layers` builds it (128x128 dense, or the (4,4,8)x(8,4,4) TT
fold: three 8x8 core blocks), the only layer the published latency table
covers.  An m x n SVD block is m + n + 1 MZI columns deep (U mesh, Sigma,
V mesh), and each column delays the light by `COLUMN_DELAY_PS`:

    space-multiplexed (-SM): n_cycle = 1; t_opt spans the layer's blocks in
        series (dense: one 128x128 SVD, 257 columns; TT: 3 x 17 = 51)
    time-multiplexed (-TM): one k x k engine (k = DENSE_BLOCK_SIZE, 2k + 1 =
        17 columns), reused n_cycle times: dense blocks / WAVELENGTHS =
        256 / 8 = 32, TT sum(tt_replication) = 6

t_opt is rounded to 10 ps, as the paper prints it.  Only delays in
[12.451, 12.471) ps reproduce all four published t_opt after that rounding;
12.46 ps is one of them.  The input (2 -> 128) and output (128 -> 1) layers
are dense and the same in every design, and are left out: the published
pairs fit the hidden layer alone (with them, ONN-SM would be 518 columns
deep, 6.45 ns rather than 3.20).

N_grads counts loss evaluations per gradient.  The paper's N_grads = 2 is
one +- probe pair per step.  A default per-tensor Black-Scholes TT step in
the simulator issues 2 x 8 groups x 1 probe = 16 loss queries (the run's
`zo_queries`), so modelling that step would take 8x the t_epoch here.

Defaults correspond to the 128-wide Black-Scholes workload: 130 sample
points per epoch, 13 smoothing queries per point, 2 gradient-probe loss
evaluations, 10,000 epochs.  N_loss = 13 is the paper's count of level-3
sparse-grid nodes at D = 2; the simulator queries only 9 of them per point,
since the 4 axis nodes +-B*e_i carry weight 0 (`quadrature.sparse_grid_nodes`),
a saving the chip could take as well.  Footprints cover the photonic devices
only.

MZI counts are read off the phase layers training realizes
(`models.phase_layers`): every phase drives one device, so an N x N SVD
realization has N(N-1)/2 + N + N(N-1)/2 = N^2 whatever its blocking.  Core k
of a TT layer acts on a batch of prod(n_j, j<k) * prod(m_j, j>k) slices; with
`WAVELENGTHS` WDM channels a space-multiplexed engine replicates its block
h_k = ceil(batch / wavelengths) times, which gives the published 384
devices of the 128x128 TT hidden layer (three 8x8 blocks, h = 2 each).  The
published whole-model counts (1,685 / 2,057 / 2,516) mix in the dense layers
under an unstated convention and are kept as calibration targets only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DENSE_BLOCK_SIZE, PhotonicTT
from .svd import block_phase_count

__all__ = [
    "CostParams",
    "latency",
    "footprint",
    "FOOTPRINT_TABLE",
    "mzi_count",
    "tt_replication",
    "WAVELENGTHS",
    "COLUMN_DELAY_PS",
]

WAVELENGTHS = 8  # WDM channels: blocks a time-multiplexed engine multiplies per cycle, slices per TT core replica
COLUMN_DELAY_PS = 12.46  # optical delay of one MZI column


@dataclass(frozen=True)
class CostParams:
    t_dac: float = 24.0  # ns
    t_tuning: float = 0.1  # ns
    t_adc: float = 24.0  # ns
    t_dig: float = 500.0  # ns, digital accumulation + update per epoch
    n_point: int = 130
    n_loss: int = 13
    n_grads: int = 2
    epochs: int = 10_000

    def __post_init__(self):
        for name in ("t_dac", "t_tuning", "t_adc", "t_dig"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


# mm^2 per component: laser, MRR modulators, tensor core, photodetector, cross-connect
FOOTPRINT_TABLE = {
    "ONN-SM": {"laser": 25.6, "mrr_mod": 1.28, "tensor_core": 3947.52, "photodetector": 1.28, "cross_connect": 0.0},
    "TONN-SM": {"laser": 1.6, "mrr_mod": 0.8, "tensor_core": 97.92, "photodetector": 0.8, "cross_connect": 1.6},
    "ONN-TM": {"laser": 1.6, "mrr_mod": 0.4, "tensor_core": 16.32, "photodetector": 0.4, "cross_connect": 0.0},
    "TONN-TM": {"laser": 1.6, "mrr_mod": 0.4, "tensor_core": 16.32, "photodetector": 0.4, "cross_connect": 0.0},
}


def _cycles_and_delay(arch: str) -> tuple[int, float]:
    """(n_cycle, t_opt ns) of `arch` on the Black-Scholes hidden layer (module docstring)."""
    from ..models import architecture, phase_layers  # here, so importing photopinn.photonic loads no problem code

    layer = phase_layers(architecture("black-scholes", tensorized=arch.startswith("TONN")))[1]
    tt = isinstance(layer, PhotonicTT)
    if arch.endswith("-SM"):
        n_cycle = 1
        blocks = layer.block_shapes if tt else [(layer.n_out, layer.n_in)]
    else:
        n_cycle = sum(tt_replication(layer.layout)) if tt else -(-len(layer.block_shapes) // WAVELENGTHS)
        blocks = [(DENSE_BLOCK_SIZE, DENSE_BLOCK_SIZE)]
    depth = sum(m + n + 1 for m, n in blocks)
    return n_cycle, round(depth * COLUMN_DELAY_PS / 1e3, 2)


def latency(params: CostParams | None = None, arch: str = "TONN-SM") -> dict[str, float]:
    """Per-inference (ns), per-epoch (ms), and total (s) latency with a breakdown."""
    if arch not in FOOTPRINT_TABLE:
        raise KeyError(f"unknown architecture {arch!r}")
    n_cycle, t_opt = _cycles_and_delay(arch)
    p = params or CostParams()
    t_inf = n_cycle * (p.t_dac + p.t_tuning + t_opt + p.t_adc)
    t_epoch = (t_inf * p.n_point * p.n_loss + p.t_tuning) * p.n_grads + p.t_dig
    return {
        "arch": arch,
        "t_inference_ns": t_inf,
        "t_epoch_ms": t_epoch / 1e6,
        "t_total_s": t_epoch * p.epochs / 1e9,
        "n_cycle": n_cycle,
        "t_opt_ns": t_opt,
    }


def footprint(arch: str) -> dict[str, float]:
    """Component areas and total, mm^2."""
    if arch not in FOOTPRINT_TABLE:
        raise KeyError(f"unknown architecture {arch!r}")
    table = dict(FOOTPRINT_TABLE[arch])
    table["total"] = round(sum(table.values()), 2)
    return table


def tt_replication(layout, wavelengths: int = WAVELENGTHS) -> list[int]:
    """Space-multiplex replication h_k = ceil(contraction batch / wavelengths) of a TTLayout's cores."""
    out = []
    for k in range(layout.L):
        batch = math.prod(layout.in_factors[:k]) * math.prod(layout.out_factors[k + 1 :])
        out.append(max(1, -(-batch // wavelengths)))
    return out


def mzi_count(layer, wavelengths: int | None = None) -> int:
    """MZIs of one phase layer: its phases, or with `wavelengths` (TT layers) h_k per phase of core k."""
    if wavelengths is None:
        return math.prod(layer.phase_shape)
    replication = tt_replication(layer.layout, wavelengths)
    return sum(h * block_phase_count(m, n) for h, (m, n) in zip(replication, layer.block_shapes))
