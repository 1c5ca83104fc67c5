"""The PINN loss machinery: problem descriptors, collocation sampling, and
the smoothed loss.  It names no PDE.

A `PinnProblem` bundles one PDE: its input box (spatial coordinates first,
time last when present), the residual functional over the derivative bundle,
the residual points per step, its data terms, the solution-network
transform, and the hold-out set with its reference solution.

Each PDE is one module of this package with one entry in `_MODULES`: its
`problem()` returns the descriptor at its defaults, and `get_problem`
imports the module on first use, so a run loads its own PDE alone.  A
module whose descriptor has no closed-form `reference` defines
`reference_grid(verbose)`: `oracle_build` writes that grid to a raster file
once, and `get_problem` attaches it as the reference.

A data term (`DataTerm`) fits the solution to target values on faces of the
box.  Each side is (coord, value, target): its points have coordinate
`coord` fixed at `value` (coord -1 is time, so an initial or terminal
condition is a one-side term) and `target` gives the wanted values there.

The points of one (seed, step) come from one generator in a fixed order:
the residual points, then each term's sides in order, `points` rows per
side.  Each is uniform on the box shrunk by `sample_margin`, with a side's
coordinate then set to its value; a `fixed_grid` problem's residual points
are a subsample of its hold-out grid instead.

The loss is

    L = L_r + sum_k lambda_k L_k,

each data term's weight times its mean squared misfit added to the
residual's in term order, with every u, gradient, and second derivative
coming from the smoothed-model estimators (no autodiff anywhere).
Smoothing noise covers the full input including time.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..quadrature import SteinConfig, SteinPlan, stein_plan

__all__ = [
    "PROBLEM_NAMES", "DataTerm", "PinnProblem", "OracleNotBuilt", "StepInputs",
    "get_problem", "gridded_problems", "grid_points", "oracle_build", "oracle_path",
    "sample_batch", "step_inputs", "pinn_loss", "score", "relative_l2", "holdout_reference",
]

# Each problem's name and the module of this package that defines it.
_MODULES = {"black-scholes": "black_scholes", "hjb": "hjb", "burgers": "burgers", "darcy": "darcy"}
PROBLEM_NAMES = tuple(_MODULES)

# Rows per block a plain query hands `score`, so its combines never hold more
# than a few arrays of this many floats (a Monte-Carlo query of 130 centers
# at the default 2,048 samples has 532,610 rows).
_SCORE_ROWS = 1 << 14


class OracleNotBuilt(RuntimeError):
    """Raised when a gridded reference is requested before `oracle build` ran."""


@dataclass(frozen=True)
class DataTerm:
    """One data term: `points` rows per side, fitted to each side's target."""

    name: str
    sides: tuple  # (coord, value, target fn of the side's (n, input_dim) points)
    points: int
    weight: float = 1.0


@dataclass(frozen=True)
class PinnProblem:
    name: str
    lo: np.ndarray
    hi: np.ndarray
    residual: Callable  # (bundle dict, X) -> residual values (..., P) for P centers X, any leading query axes
    residual_points: int
    holdout_points: Callable  # () -> the fixed evaluation set of the relative-l2 metric
    data: tuple[DataTerm, ...] = ()
    fixed_grid: bool = False  # residual points are a subsample of the hold-out grid
    sigma_default: float = 1e-3
    transform: Callable = staticmethod(lambda net: net)  # raw net -> solution network
    reference: Callable | None = None  # (X) -> exact values, or None until oracle built
    sample_margin: float = 0.0  # shrink the sampling box inward

    @property
    def input_dim(self) -> int:
        return len(self.lo)


def grid_points(a, b):
    """The nodes of the grid with axes a and b, b varying fastest: (len(a) * len(b), 2)."""
    A, B = np.meshgrid(a, b, indexing="ij")
    return np.column_stack([A.ravel(), B.ravel()])


def relative_l2(pred: np.ndarray, ref: np.ndarray) -> float:
    """||pred - ref||_2 / ||ref||_2 over a fixed evaluation set."""
    ref = np.asarray(ref, dtype=float)
    nrm = np.linalg.norm(ref)
    if nrm == 0.0:
        raise ValueError("reference norm is zero")
    return float(np.linalg.norm(np.asarray(pred, dtype=float) - ref) / nrm)


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def _module(name: str):
    """The module defining problem `name`, imported on first use."""
    if name not in _MODULES:
        raise KeyError(f"unknown problem {name!r}")
    return importlib.import_module(f".{_MODULES[name]}", __package__)


def _gridded(name: str) -> bool:
    """Whether problem `name` takes its reference from a grid `oracle_build` writes."""
    return hasattr(_module(name), "reference_grid")


def gridded_problems() -> tuple[str, ...]:
    """The problems with a gridded reference, in `PROBLEM_NAMES` order; imports every problem module."""
    return tuple(name for name in PROBLEM_NAMES if _gridded(name))


def get_problem(
    name: str,
    sigma: float = 0.0,
    points: dict[str, int] | None = None,
    weights: dict[str, float] | None = None,
    oracle_dir: str | Path | None = None,
    sample_margin: float = 0.0,
) -> PinnProblem:
    """Build a problem's descriptor with optional overrides.

    `points` maps 'residual' or a data term's name to its points per step
    (per side for a data term) and `weights` a data term's name to its
    weight; a name the problem lacks is ignored.  A `sigma` or a count of 0
    keeps the problem's own.  A gridded problem takes its reference from
    the file `oracle_build` wrote to `oracle_dir`, when there is one.
    """
    prob = _module(name).problem()
    points = points or {}
    weights = weights or {}
    data = tuple(
        replace(term, points=points.get(term.name) or term.points, weight=weights.get(term.name, term.weight))
        for term in prob.data
    )
    prob = replace(
        prob,
        residual_points=points.get("residual") or prob.residual_points,
        data=data,
        sigma_default=sigma or prob.sigma_default,
        sample_margin=sample_margin,
    )
    if oracle_dir is not None and _gridded(name):
        path = oracle_path(oracle_dir, name)
        if path.exists():
            from .raster import load_raster

            prob = replace(prob, reference=load_raster(path).interp)
    return prob


def oracle_path(oracle_dir, name: str) -> Path:
    """Where `oracle_build` writes the gridded reference of problem `name`."""
    return Path(oracle_dir) / f"{name}_reference.txt"


def oracle_build(name: str, oracle_dir, verbose: bool = False) -> Path:
    """Compute the gridded reference of a problem in `gridded_problems()` and write it to `oracle_path`."""
    if name not in gridded_problems():
        raise KeyError(f"no oracle for problem {name!r}")
    from .raster import save_raster

    Path(oracle_dir).mkdir(parents=True, exist_ok=True)
    raster, meta = _module(name).reference_grid(verbose)
    path = oracle_path(oracle_dir, name)
    save_raster(raster=raster, path=path, meta=meta)
    return path


_HOLDOUT_REFERENCE: dict[str, np.ndarray] = {}


def holdout_reference(problem: PinnProblem) -> tuple[np.ndarray, np.ndarray]:
    """The hold-out points and the reference values on them.

    A closed-form reference is computed once per process and problem name,
    like a sparse-grid Stein plan (`quadrature.stein_plan`), and returned
    read-only; a gridded reference comes from its oracle file and is read
    anew.  The points are rebuilt on every call: on a 201 x 101 grid they
    cost a fifth of its closed-form reference, and kept they would hold
    325 kB through every ZO step, which the peak RSS of a run shows.
    """
    points = problem.holdout_points()
    ref = _HOLDOUT_REFERENCE.get(problem.name)
    if ref is None:
        if problem.reference is None:
            raise OracleNotBuilt(
                f"reference for {problem.name!r} is not available; run `oracle build` "
                "and pass oracle_dir to get_problem"
            )
        ref = np.asarray(problem.reference(points), dtype=float)
        if not _gridded(problem.name):  # a closed form, fixed by the problem name
            ref.flags.writeable = False
            _HOLDOUT_REFERENCE[problem.name] = ref
    return points, ref


# ---------------------------------------------------------------------------
# Sampling and the loss
# ---------------------------------------------------------------------------


def sample_batch(problem: PinnProblem, seed: int, step: int = 0) -> dict[str, np.ndarray]:
    """Draw the per-step points, keyed by (seed, step): the residual centers,
    then per data term its sides' points, stacked in side order."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, step)))
    inset = problem.sample_margin * (problem.hi - problem.lo)
    lo, hi = problem.lo + inset, problem.hi - inset
    n = problem.residual_points
    if problem.fixed_grid:
        grid = problem.holdout_points()
        out = {"residual": grid if n >= len(grid) else grid[rng.choice(len(grid), size=n, replace=False)]}
    else:
        out = {"residual": rng.uniform(lo, hi, size=(n, problem.input_dim))}
    for term in problem.data:
        sides = []
        for coord, value, _ in term.sides:
            pts = rng.uniform(lo, hi, size=(term.points, problem.input_dim))
            pts[:, coord] = value
            sides.append(pts)
        out[term.name] = np.concatenate(sides)
    return out


@dataclass(frozen=True)
class StepInputs:
    """Everything a loss query at one (seed, step) needs besides the network.

    `points` stacks the Stein evaluation points of the residual centers, then
    of each data term's centers; `data` holds per data term the term, its
    rows among the centers and its target values.
    """

    plan: SteinPlan
    points: np.ndarray  # (centers * plan.n_queries, input_dim)
    residual: np.ndarray  # residual centers, the first rows of the centers
    data: tuple  # (DataTerm, slice of the centers, target values)


def step_inputs(problem: PinnProblem, stein_cfg: SteinConfig, batch_seed: int, step: int = 0) -> StepInputs:
    """Batch, Stein plan, evaluation points and data targets of one step; keyed by (seed, step)."""
    batch = sample_batch(problem, batch_seed, step)
    plan = stein_plan(stein_cfg, problem.input_dim, call_index=step)
    data = []
    pos = len(batch["residual"])
    for term in problem.data:
        sides = batch[term.name].reshape(len(term.sides), term.points, problem.input_dim)
        targets = np.concatenate([target(pts) for (_, _, target), pts in zip(term.sides, sides)])
        data.append((term, slice(pos, pos + len(targets)), targets))
        pos += len(targets)
    centers = np.concatenate(list(batch.values()))
    return StepInputs(plan, plan.eval_points(centers), batch["residual"], tuple(data))


def pinn_loss(
    solution,
    problem: PinnProblem,
    stein_cfg: SteinConfig,
    batch_seed: int,
    step: int = 0,
    inputs: StepInputs | None = None,
) -> tuple[float, dict[str, float]]:
    """Weighted smoothed-residual loss with per-term breakdown: one query of `score`.

    `solution` is the (transformed) solution network mapping (rows,
    input_dim) to (rows,) values; all derivatives go through the smoothing estimators.
    `inputs` are the step's inputs from `step_inputs`, built here when not
    given; every query of a ZO step shares them.  The values go to `score`
    in slices of `_SCORE_ROWS` rows, which bound what its combines hold: a
    Monte-Carlo query of 532,610 rows peaks below twice its values' bytes
    (tests/test_score.py).
    """
    if inputs is None:
        inputs = step_inputs(problem, stein_cfg, batch_seed, step)
    values = np.asarray(solution(inputs.points), dtype=float).reshape(1, -1)
    slices = (values[:, lo : lo + _SCORE_ROWS] for lo in range(0, values.shape[-1], _SCORE_ROWS))
    total, terms = score(problem, inputs, slices)
    return float(total[0]), {name: float(value[0]) for name, value in terms.items()}


def score(problem: PinnProblem, inputs: StepInputs, blocks) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The loss of the queries whose solution values at `inputs.points` come
    as the iterable `blocks` of row blocks, in row order: arrays (..., block
    rows), with the same leading query axes each, such as the (probes, 2)
    queries of a ZO step.

    Returns each query's total and its terms, arrays of the leading shape.
    Each center is combined (`SteinPlan.combine`, every estimator) as soon
    as all its `plan.n_queries` rows have come, with the other whole centers
    of its block; the rows of a center not yet whole are copied and held
    until the next block, so a block may be a buffer its producer
    overwrites later.  `combine` gives each center the same bits in any
    call, so the estimates of all centers, joined, and the terms taken from
    them (the residual centers, then each data term's rows) equal a call
    with one block of all rows bit for bit.
    """
    n = inputs.plan.n_queries
    got = []  # the estimates of each combine call, in center order
    held, count = [], 0  # the rows not yet combined, and how many
    for block in blocks:
        held.append(block)
        count += block.shape[-1]
        if count >= n:
            values = np.concatenate(held, axis=-1) if len(held) > 1 else block
            cut = count - count % n
            got.append(inputs.plan.combine(values[..., :cut]))
            held, count = [values[..., cut:]], count - cut
        held[-1] = held[-1].copy()  # the block's producer may overwrite it
    if count:
        raise ValueError(f"the values end inside a center, {count} of its {n} rows")
    value = np.concatenate([e["value"] for e in got], axis=-1)
    residual = slice(0, len(inputs.residual))
    bundle = {key: np.concatenate([e[key] for e in got], axis=-2)[..., residual, :] for key in ("first", "second")}
    bundle["value"] = value[..., residual]
    r = problem.residual(bundle, inputs.residual)
    terms = {"residual": np.mean(r**2, axis=-1)}
    total = terms["residual"]
    for term, rows, target in inputs.data:
        terms[term.name] = np.mean((value[..., rows] - target) ** 2, axis=-1)
        total = total + term.weight * terms[term.name]
    terms["total"] = total
    return total, terms
