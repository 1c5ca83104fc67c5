"""Nested Gaussian quadrature, Smolyak sparse grids, and smoothed-derivative estimators.

Everything here integrates against the standard normal measure

    E[f] = (2*pi)^(-D/2) * integral f(z) exp(-|z|^2/2) dz.

The univariate rules form a nested sequence with node counts 1, 3, 5:

    level 1: {0}                          weight 1
    level 2: {-sqrt(3), 0, sqrt(3)}       weights 1/6, 2/3, 1/6  (3-point probabilists' Gauss-Hermite)
    level 3: level-2 nodes plus {-B, B}   with B = sqrt(5 + sqrt(10))

The level-3 extension keeps level-2 as a subset.  Matching the even moments
of N(0,1) lexicographically (m0 = 1, m2 = 1, m4 = 3) forces the weight on the
two new abscissae to zero: subtracting 3*m2 from m4 gives
2*w_B*B^2*(B^2 - 3) = 0, so any nonzero w_B would require B = sqrt(3), a
duplicate node.  A positive-weight Kronrod-style extension of the 3-point
Hermite rule does not exist, so degree-5 is the maximal exactness attainable
by a nested 5-point rule; m6 evaluates to 9 rather than 15.  The new nodes sit
at the outer abscissae of the 5-point Gauss-Hermite rule.

D-dimensional grids come from the Smolyak combination

    A(D, k) = sum over q in [max(0, k-D), k-1] of
              (-1)^(k-1-q) * C(D-1, k-1-q) * sum over |l| = D+q of V_l1 x ... x V_lD,

with coincident nodes merged and their signed weights summed.  At level 3 the
merged grid has exactly 2*D^2 + 2*D + 1 nodes.

The smoothed-model estimators evaluate a network f at x + sigma*z over the
grid (or over antithetic Monte-Carlo pairs) and combine the values into the
smoothed forward value, its gradient and the diagonal of its Hessian.  The
node set is symmetric, so f(x - sigma*z_j) reuses the evaluation at the
negated node.  Only nodes whose values enter a sum are queried: the weighted
nodes, their negations and the center.  At level 3 the 2*D axis nodes +-B*e_i
carry weight 0, so 2*D^2 + 1 of the grid's nodes are queried (9 of 13 at
D = 2); `SteinPlan` documents the rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, sqrt
from typing import Sequence

import numpy as np

__all__ = [
    "Rule1D",
    "SparseGrid",
    "SteinConfig",
    "QuadratureError",
    "UnsupportedLevelError",
    "InvalidDimensionError",
    "rule_1d",
    "build_sparse_grid",
    "save_grid",
    "SteinPlan",
    "stein_plan",
]

_SQRT3 = sqrt(3.0)
# Outer abscissa of the 5-point Gauss-Hermite rule (probabilists' weight).
_B3 = sqrt(5.0 + sqrt(10.0))

_NODE_QUANTUM = 1e-12  # dedup tolerance, in units of unscaled (sigma = 1) nodes


class QuadratureError(ValueError):
    pass


class UnsupportedLevelError(QuadratureError):
    pass


class InvalidDimensionError(QuadratureError):
    pass


@dataclass(frozen=True)
class Rule1D:
    """One univariate rule: `nodes[i]` carries `weights[i]`, sum(weights) == 1."""

    level: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise QuadratureError("nodes and weights must have equal length")


def rule_1d(level: int) -> Rule1D:
    """Return the nested rule for the given accuracy level (1, 2 or 3)."""
    if level not in (1, 2, 3):
        raise UnsupportedLevelError(f"level {level} not supported (choose 1, 2 or 3)")
    if level == 1:
        return Rule1D(1, (0.0,), (1.0,))
    if level == 2:
        return Rule1D(2, (-_SQRT3, 0.0, _SQRT3), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    return Rule1D(
        3,
        (-_B3, -_SQRT3, 0.0, _SQRT3, _B3),
        (0.0, 1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0, 0.0),
    )


@dataclass(frozen=True)
class SparseGrid:
    """Merged Smolyak node set: ``nodes`` is (n, dim), ``weights`` is (n,)."""

    dim: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.ascontiguousarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.ascontiguousarray(self.weights, dtype=float))
        if self.nodes.shape != (len(self.weights), self.dim):
            raise QuadratureError("node/weight shapes inconsistent with dim")

    def __len__(self) -> int:
        return len(self.weights)


def _excess_assignments(dim: int, q: int, max_excess: int):
    """Yield {coord: excess} dicts distributing q units with per-coord cap."""
    if q == 0:
        yield {}
        return
    # partitions of q with parts <= max_excess, assigned to distinct coords
    def partitions(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    for part in partitions(q, max_excess):
        r = len(part)
        if r > dim:
            continue
        for coords in itertools.combinations(range(dim), r):
            # distinct orderings of the partition over the chosen coords
            for perm in set(itertools.permutations(part)):
                yield dict(zip(coords, perm))


def build_sparse_grid(dim: int, level: int) -> SparseGrid:
    """Construct the level-k Smolyak grid for D-variate standard-normal integration.

    Nodes coinciding across index tuples are merged with their signed weights
    summed; merged nodes are kept even when the summed weight is zero, since
    they are part of the published node counts.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    if level not in (1, 2, 3):
        raise UnsupportedLevelError(f"level {level} not supported")
    rules = {l: rule_1d(l) for l in range(1, level + 1)}
    base = rules[1]
    accum: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}
    for q in range(max(0, level - dim), level):
        coeff = (-1.0) ** (level - 1 - q) * comb(dim - 1, level - 1 - q)
        for excess in _excess_assignments(dim, q, level - 1):
            per_coord = [rules[1 + excess.get(m, 0)] for m in range(dim)]
            # only iterate over the coords with more than one node
            hot = sorted(excess)
            hot_nodes = [per_coord[m].nodes for m in hot]
            hot_weights = [per_coord[m].weights for m in hot]
            for combo in itertools.product(*(range(len(n)) for n in hot_nodes)):
                node = np.zeros(dim)
                w = coeff * float(base.weights[0]) ** (dim - len(hot))
                for i, (m, idx) in enumerate(zip(hot, combo)):
                    node[m] = hot_nodes[i][idx]
                    w *= hot_weights[i][idx]
                key = tuple(int(round(v / _NODE_QUANTUM)) for v in node)
                if key in accum:
                    accum[key] = (accum[key][0], accum[key][1] + w)
                else:
                    accum[key] = (node, w)
    items = sorted(accum.values(), key=lambda nw: tuple(nw[0]))
    nodes = np.array([nw[0] for nw in items])
    weights = np.array([nw[1] for nw in items])
    return SparseGrid(dim=dim, level=level, nodes=nodes, weights=weights)


_GRID_CACHE: dict[tuple[int, int], SparseGrid] = {}


def cached_grid(dim: int, level: int) -> SparseGrid:
    key = (dim, level)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = build_sparse_grid(dim, level)
    return _GRID_CACHE[key]


def save_grid(grid: SparseGrid, path) -> None:
    """Plain-text dump: '#' header with (dim, level, count), then one node+weight per line."""
    with open(path, "w") as fh:
        fh.write(f"# dim {grid.dim}\n# level {grid.level}\n# count {len(grid)}\n")
        for node, w in zip(grid.nodes, grid.weights):
            fh.write(" ".join(f"{v:.17g}" for v in node) + f" {w:.17g}\n")


# ---------------------------------------------------------------------------
# Smoothed-model derivative estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteinConfig:
    """How to integrate the Gaussian smoothing: grid mode or antithetic Monte Carlo.

    sigma   : smoothing noise std (> 0)
    mode    : 'sparse-grid' or 'monte-carlo'
    level   : grid accuracy level (sparse-grid mode)
    samples : number of antithetic pairs (monte-carlo mode)
    seed    : base seed for the per-call Monte-Carlo streams
    """

    sigma: float
    mode: str = "sparse-grid"
    level: int = 3
    samples: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.sigma <= 0:
            raise QuadratureError(f"sigma must be > 0, got {self.sigma}")
        if self.mode not in ("sparse-grid", "monte-carlo"):
            raise QuadratureError(f"unknown mode {self.mode!r}")
        if self.mode == "sparse-grid" and self.level not in (1, 2, 3):
            raise UnsupportedLevelError(f"level {self.level} not supported")
        if self.mode == "monte-carlo" and self.samples < 1:
            raise QuadratureError("samples must be >= 1")


class SteinPlan:
    """Precomputed offsets and combination weights for one estimator call.

    ``offsets`` has shape (n, dim), the full node layout: the merged grid
    scaled by sigma, or the Monte-Carlo pairs then one zero row.  It always
    contains exactly one zero row, ``center``; ``pair[j]`` indexes the row
    holding the negated offset.  With f_j = f(x + offset_j):

        u(x)      = sum_j w_j * (f_j + f_pair(j)) / 2
        du_i(x)   = sum_j w_j * offset_ji / (2 sigma^2) * (f_j - f_pair(j))
        d2u_ii(x) = sum_j w_j * (offset_ji^2 - sigma^2) / (2 sigma^4) * (f_j + f_pair(j) - 2 f_0)

    A node's value enters these sums only if its weight is nonzero, it is the
    pair of such a node, or it is the center.  Only those nodes (``queried``,
    in layout order) are evaluated: 9 of 13 at D = 2 for the level-3 grid,
    whose outer abscissae carry weight 0.  ``combine`` scatters the queried
    values into a zero-filled array of the full layout and runs the sums over
    all n nodes in layout order, so for the same node values every bit of the
    result equals the sums over a forward of every node.
    """

    def __init__(self, cfg: SteinConfig, dim: int, call_index: int = 0):
        sigma = cfg.sigma
        if cfg.mode == "sparse-grid":
            grid = cached_grid(dim, cfg.level)
            offsets = grid.nodes * sigma
            weights = grid.weights.copy()
        else:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, call_index)))
            half = sigma * rng.standard_normal((cfg.samples, dim))
            offsets = np.concatenate([half, -half, np.zeros((1, dim))])
            weights = np.concatenate(
                [np.full(cfg.samples, 1.0 / cfg.samples), np.zeros(cfg.samples + 1)]
            )
        self.dim = dim
        self.sigma = sigma
        self.offsets = offsets
        self.weights = weights
        self.pair = self._pair_index(offsets)
        center = np.flatnonzero(np.all(offsets == 0.0, axis=1))
        if len(center) != 1:
            raise QuadratureError("plan requires exactly one zero offset")
        self.center = int(center[0])
        keep = (weights != 0.0) | (weights[self.pair] != 0.0)
        keep[self.center] = True
        self.queried = np.flatnonzero(keep)
        # combination coefficient tables
        self.c_first = weights[:, None] * offsets / (2.0 * sigma**2)
        self.c_second = weights[:, None] * (offsets**2 - sigma**2) / (2.0 * sigma**4)
        for table in (self.offsets, self.weights, self.pair, self.queried, self.c_first, self.c_second):
            table.flags.writeable = False  # a sparse-grid plan is shared by every step (`stein_plan`)

    @staticmethod
    def _pair_index(offsets: np.ndarray) -> np.ndarray:
        normalized = offsets + 0.0  # maps -0.0 to +0.0 so byte keys match
        lookup = {normalized[j].tobytes(): j for j in range(len(offsets))}
        pair = np.empty(len(offsets), dtype=np.intp)
        for j in range(len(offsets)):
            try:
                pair[j] = lookup[(-offsets[j] + 0.0).tobytes()]
            except KeyError:  # pragma: no cover - node sets are symmetric by construction
                raise QuadratureError("offset set is not symmetric")
        return pair

    @property
    def n_queries(self) -> int:
        """Model evaluations per center: the queried nodes."""
        return len(self.queried)

    def eval_points(self, x: np.ndarray) -> np.ndarray:
        """Queried evaluation points for a (P, dim) batch of centers: shape (P*n_queries, dim)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x[:, None, :] + self.offsets[None, self.queried, :]).reshape(-1, self.dim)

    def combine(self, values: np.ndarray, parts: Sequence[tuple[slice, Sequence[str]]]) -> list[dict[str, np.ndarray]]:
        """Combine model outputs at eval_points into the requested estimators.

        ``values`` has shape (..., P*n_queries): the outputs at eval_points
        of any number of queries along leading axes, such as the (B, rows)
        outputs of B loss queries.  ``parts`` is a sequence of (rows, which):
        a slice of the P centers and the estimators wanted on them ('value',
        'first', 'second').  The full-layout scatter and its pair gather are
        built once for all parts and queries.  Returns one dict per part,
        arrays of shape (..., rows) ('first' and 'second' add a dim axis).

        A query's result on a part equals a call on that query's values of
        that part's rows alone, bit for bit: the value sum is one BLAS
        matrix-vector product per query and part (a stacked matmul), as a
        product over all queries' rows at once would round differently.
        The chunk rule: a call holds four full-layout (..., P, n) float
        arrays at once (the scatter, its pair gather, their sum and one
        estimator's operand), so a caller that bounds its memory by `budget`
        bytes passes at most `queries_per_call(rows, budget)` queries.
        """
        vals = np.asarray(values, dtype=float)
        lead = vals.shape[:-1]
        queried = vals.reshape(*lead, -1, self.n_queries)
        v_all = np.zeros((*queried.shape[:-1], len(self.weights)))
        v_all[..., self.queried] = queried
        v_neg_all = v_all[..., self.pair]
        out = []
        for rows, which in parts:
            v, v_neg = v_all[..., rows, :], v_neg_all[..., rows, :]
            both = v + v_neg
            got: dict[str, np.ndarray] = {}
            if "value" in which:
                got["value"] = 0.5 * (both @ self.weights)
            if "first" in which:
                # (..., P, n) x (n, D) -> (..., P, D)
                got["first"] = np.einsum("...pn,nd->...pd", v - v_neg, self.c_first)
            if "second" in which:
                centered = both - 2.0 * v[..., self.center : self.center + 1]
                got["second"] = np.einsum("...pn,nd->...pd", centered, self.c_second)
            out.append(got)
        return out

    def queries_per_call(self, rows: int, budget: int) -> int:
        """Queries per `combine` call, at least one, whose full-layout arrays
        fit in `budget` bytes when each query has `rows` values."""
        per_query = 4 * 8 * (rows // self.n_queries) * len(self.weights)  # four float arrays (`combine`)
        return max(1, budget // per_query)


_PLAN_CACHE: dict[tuple[float, int, int], SteinPlan] = {}


def stein_plan(cfg: SteinConfig, dim: int, call_index: int = 0) -> SteinPlan:
    """The plan of estimator call `call_index`.  A sparse-grid plan depends
    on (sigma, level, dim) alone, so it is built once per process and every
    call shares it (building one takes 1.15 ms at D = 21); a
    Monte-Carlo plan draws its offsets from (seed, call_index), a new plan
    per call."""
    if cfg.mode != "sparse-grid":
        return SteinPlan(cfg, dim, call_index)
    key = (cfg.sigma, cfg.level, dim)
    if key not in _PLAN_CACHE:
        _PLAN_CACHE[key] = SteinPlan(cfg, dim)
    return _PLAN_CACHE[key]
