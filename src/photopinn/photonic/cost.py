"""Latency and footprint model for the training accelerator architectures.

    t_inference = n_cycle * (t_DAC + t_tuning + t_opt + t_ADC)
    t_epoch     = (t_inference * N_point * N_loss + t_tuning) * N_grads + t_DIG
    t_total     = t_epoch * epochs

Defaults correspond to the 128-wide Black-Scholes workload: 130 sample points
per epoch, 13 smoothing queries per point, 2 gradient-probe loss evaluations,
10,000 epochs.  N_loss = 13 is the paper's count of level-3 sparse-grid nodes
at D = 2; the simulator queries only 9 of them per point, since the 4 axis
nodes +-B*e_i carry weight 0 (see `quadrature.SteinPlan`), a saving the chip
could take as well.  Footprints cover the photonic devices only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostParams", "ARCHITECTURES", "latency", "footprint", "FOOTPRINT_TABLE"]


@dataclass(frozen=True)
class CostParams:
    t_dac: float = 24.0  # ns
    t_tuning: float = 0.1  # ns
    t_adc: float = 24.0  # ns
    t_opt: float = 0.0  # ns, per architecture
    t_dig: float = 500.0  # ns, digital accumulation + update per epoch
    n_cycle: int = 1
    n_point: int = 130
    n_loss: int = 13
    n_grads: int = 2
    epochs: int = 10_000

    def __post_init__(self):
        for name in ("t_dac", "t_tuning", "t_adc", "t_opt", "t_dig"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


# (n_cycle, t_opt ns) per architecture
ARCHITECTURES = {
    "ONN-SM": (1, 3.20),
    "TONN-SM": (1, 0.64),
    "ONN-TM": (32, 0.21),
    "TONN-TM": (6, 0.21),
}


def latency(params: CostParams | None = None, arch: str = "TONN-SM") -> dict[str, float]:
    """Per-inference (ns), per-epoch (ms), and total (s) latency with a breakdown."""
    if arch not in ARCHITECTURES:
        raise KeyError(f"unknown architecture {arch!r}")
    n_cycle, t_opt = ARCHITECTURES[arch]
    p = params or CostParams()
    p = replace(p, n_cycle=n_cycle, t_opt=t_opt)
    t_inf = p.n_cycle * (p.t_dac + p.t_tuning + p.t_opt + p.t_adc)
    t_epoch = (t_inf * p.n_point * p.n_loss + p.t_tuning) * p.n_grads + p.t_dig
    return {
        "arch": arch,
        "t_inference_ns": t_inf,
        "t_epoch_ms": t_epoch / 1e6,
        "t_total_s": t_epoch * p.epochs / 1e9,
        "n_cycle": p.n_cycle,
        "t_opt_ns": p.t_opt,
    }


# mm^2 per component: laser, MRR modulators, tensor core, photodetector, cross-connect
FOOTPRINT_TABLE = {
    "ONN-SM": {"laser": 25.6, "mrr_mod": 1.28, "tensor_core": 3947.52, "photodetector": 1.28, "cross_connect": 0.0},
    "TONN-SM": {"laser": 1.6, "mrr_mod": 0.8, "tensor_core": 97.92, "photodetector": 0.8, "cross_connect": 1.6},
    "ONN-TM": {"laser": 1.6, "mrr_mod": 0.4, "tensor_core": 16.32, "photodetector": 0.4, "cross_connect": 0.0},
    "TONN-TM": {"laser": 1.6, "mrr_mod": 0.4, "tensor_core": 16.32, "photodetector": 0.4, "cross_connect": 0.0},
}


def footprint(arch: str) -> dict[str, float]:
    """Component areas and total, mm^2."""
    if arch not in FOOTPRINT_TABLE:
        raise KeyError(f"unknown architecture {arch!r}")
    table = dict(FOOTPRINT_TABLE[arch])
    table["total"] = round(sum(table.values()), 2)
    return table
