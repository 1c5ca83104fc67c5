"""Side-by-side comparisons against the published values.

Each table in `TABLES` maps a run directory (only `table2-bs` reads one) to
rows of (label, ours, published, tolerance, pass/fail or 'target');
`reproduce_table` returns them with whether none failed.  Rows marked
'target' are calibration comparisons under a documented convention, not
assertions.
"""

from __future__ import annotations

from pathlib import Path

from .models import architecture, build_model, phase_layers
from .photonic.cost import WAVELENGTHS, footprint, latency, mzi_count
from .photonic.model import PhotonicDense, PhotonicTT
from .quadrature import build_sparse_grid
from .tensortrain import tt_param_count

__all__ = ["reproduce_table", "TABLE_IDS"]


def _row(label, ours, published, tol):
    status = "pass" if abs(ours - published) <= tol else "FAIL"
    return (label, ours, published, tol, status)


def _target_row(label, ours, published):
    return (label, ours, published, None, "target")


def _cost_table(run_dir):
    rows = []
    published = {
        "ONN-SM": (51.30, 0.174, 1.74),
        "TONN-SM": (48.74, 0.164, 1.64),
        "TONN-TM": (289.86, 0.980, 9.80),
    }
    for arch, (p_inf, p_epoch, p_total) in published.items():
        got = latency(arch=arch)
        rows.append(_row(f"{arch} t_inference [ns]", got["t_inference_ns"], p_inf, 0.01))
        # the printed TONN-SM epoch/total round differently from the stated
        # formula (computed 0.1652 ms / 1.652 s); allow 1% there
        tol_e = max(0.01, 0.01 * p_epoch) if arch == "TONN-SM" else 0.01
        tol_t = max(0.01, 0.01 * p_total) if arch == "TONN-SM" else 0.01
        rows.append(_row(f"{arch} t_epoch [ms]", got["t_epoch_ms"], p_epoch, tol_e))
        rows.append(_row(f"{arch} t_total [s]", got["t_total_s"], p_total, tol_t))
    rows.append(_target_row("ONN-TM t_total [s]", latency(arch="ONN-TM")["t_total_s"] , 52.27))
    for arch, p_total in (("ONN-SM", 3975.68), ("TONN-SM", 102.72), ("ONN-TM", 18.72), ("TONN-TM", 18.72)):
        rows.append(_row(f"{arch} footprint [mm^2]", footprint(arch)["total"], p_total, 0.01))
    return rows


def _grid_table(run_dir):
    rows = []
    for dim, published in ((2, 13), (3, 25), (21, 925)):
        rows.append(_row(f"grid nodes D={dim} k=3", len(build_sparse_grid(dim, 3)), published, 0))
    return rows


def _n_params(problem: str, tensorized: bool = True, rank: int = 2, width: int | None = None) -> int:
    return build_model(problem, tensorized, rank, width).n_params


def _params_table(run_dir):
    hjb_dense, hjb_tt = _n_params("hjb", False), _n_params("hjb")
    burgers_dense, burgers_tt = _n_params("burgers", False), _n_params("burgers")
    rows = [
        _row("512x512 TT variables", tt_param_count(architecture("hjb").layers[1]), 256, 0),
        _row("HJB standard params", hjb_dense, 274_433, 0),
        _row("HJB TT params (rank 2)", hjb_tt, 1_929, 0),
        _row("HJB compression ratio", round(hjb_dense / hjb_tt, 2), 142.27, 0),
        _row(
            "BS compression ratio",
            round(_n_params("black-scholes", False) / _n_params("black-scholes"), 2),
            20.44,
            0,
        ),
        _row("Burgers/Darcy compression ratio", round(burgers_dense / burgers_tt, 2), 24.74, 0),
        _row("Burgers/Darcy standard params", burgers_dense, 30_701, 0),
        _row("Burgers/Darcy TT params", burgers_tt, 1_241, 0),
    ]
    for rank, published in ((4, 2_705), (6, 3_865), (8, 5_409)):
        rows.append(_row(f"HJB TT params (rank {rank})", _n_params("hjb", rank=rank), published, 0))
    for width, published in ((256, 71_681), (128, 19_457), (64, 5_633), (32, 1_793)):
        rows.append(_row(f"HJB standard params (width {width})", _n_params("hjb", False, width=width), published, 0))
    return rows


def _mzi_table(run_dir):
    def tt_total(problem):
        layers = phase_layers(architecture(problem))
        return sum(mzi_count(layer, wavelengths=WAVELENGTHS) for layer in layers if isinstance(layer, PhotonicTT))

    rows = [
        _row("dense 128x128 (any blocking)", mzi_count(PhotonicDense(128, 128)), 16_384, 0),
        _row("dense 64x64", mzi_count(PhotonicDense(64, 64)), 4_096, 0),
        _row("BS TT hidden (8-wavelength replication)", tt_total("black-scholes"), 384, 0),
    ]
    # whole-model published counts: convention for the dense input/output
    # layers is not recoverable; report the tensorized-layer totals we derive
    rows.append(_target_row("BS whole model (TT layers only)", tt_total("black-scholes"), 1_685))
    rows.append(_target_row("HJB whole model (TT layers only)", tt_total("hjb"), 2_057))
    rows.append(_target_row("Burgers/Darcy whole model (TT layers only)", tt_total("burgers"), 2_516))
    return rows


def _bs_table(run_dir: str | None):
    """Compare completed Black-Scholes runs against the published errors."""
    if run_dir is None:
        raise FileNotFoundError("table2-bs needs --run-dir pointing at completed runs")
    missing = []
    values = {}
    for variant in ("tt", "standard"):
        path = Path(run_dir) / f"bs_zo_{variant}" / "black-scholes" / "report.txt"
        if not path.exists():
            missing.append(str(path))
            continue
        for line in path.read_text().splitlines():
            if line.startswith("mean rel_l2"):
                values[variant] = float(line.split()[2])
    if missing:
        raise FileNotFoundError("missing runs: " + ", ".join(missing))
    rows = [
        ("ZO-TT mean rel_l2 (<= 1.2e-1)", values["tt"], 0.083, 0.037,
         "pass" if values["tt"] <= 0.12 else "FAIL"),
        _target_row("ZO-standard mean rel_l2", values["standard"], 0.391),
        ("ZO-TT < ZO-standard", values["tt"], values["standard"], None,
         "pass" if values["tt"] < values["standard"] else "FAIL"),
    ]
    return rows


TABLES = {
    "cost": _cost_table,
    "sparse-grid-counts": _grid_table,
    "params": _params_table,
    "mzi": _mzi_table,
    "table2-bs": _bs_table,
}
TABLE_IDS = tuple(TABLES)


def reproduce_table(table: str, run_dir: str | None = None):
    if table not in TABLES:
        raise KeyError(f"unknown table {table!r}; choose from {TABLE_IDS}")
    rows = TABLES[table](run_dir)
    return rows, all(r[-1] != "FAIL" for r in rows)


def format_table(rows) -> str:
    lines = ["label,ours,published,tolerance,status"]
    for label, ours, published, tol, status in rows:
        tol_s = "" if tol is None else f"{tol}"
        lines.append(f"{label},{ours},{published},{tol_s},{status}")
    return "\n".join(lines)
