"""Backprop-free PINN training lab.

Sparse-grid smoothed-derivative estimation for PDE losses, tensor-train
compressed zeroth-order optimization, and a phase-domain photonic hardware
simulation with its cost model.

Importing the package imports none of its modules: a run loads what it uses,
so a weight-domain run never loads `photopinn.photonic`.
"""

__version__ = "0.1.0"
