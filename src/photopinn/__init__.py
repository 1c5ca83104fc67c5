"""Backprop-free PINN training lab.

Sparse-grid smoothed-derivative estimation for PDE losses, tensor-train
compressed zeroth-order optimization, and a phase-domain photonic hardware
simulation with its cost model.

Importing the package imports none of its modules: a run loads what it uses,
so a weight-domain run never loads `photopinn.photonic`, and no training run
loads its cost model.  The loss machinery (`photopinn.pde.problems`) names
no PDE: a PDE is one module of `photopinn.pde` plus one entry of the table
in `problems`, and a run imports its own problem's module alone.
"""

__version__ = "0.1.0"
