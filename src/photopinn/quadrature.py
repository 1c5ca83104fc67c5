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

with coincident nodes merged and their signed weights summed.  With the 1-D
rules stopping at level 3, a term raises at most two coordinates above
level 1, so only three cases of q occur (V_l(i) raises coordinate i to
level l, every other coordinate stays at the center):

    A(D, 3) = C(D-1, 2) * center - (D-1) * sum_i V_2(i)
              + sum_i V_3(i) + sum_{i<j} V_2(i) x V_2(j),

and the lower levels are its truncations, A(D, 2) = -(D-1) * center +
sum_i V_2(i) and A(D, 1) = center (for D < k the terms with q < k - D drop
out).  The terms are summed in this order, i and then (i, j) ascending, and
floating-point addition is not associative, so this order fixes the bytes of
the merged weights.  At level 3 the merged grid has exactly 2*D^2 + 2*D + 1
nodes.

The smoothed-model estimators evaluate a network f at x + sigma*z over a
symmetric node set with one zero row, the center, and combine the values into
the smoothed forward value, its gradient and the diagonal of its Hessian;
f(x - sigma*z_j) reuses the evaluation at the negated node.  Each Stein mode
has one node-set function, and a `SteinPlan` is the set it returns: the
grid's nonzero-weight nodes plus the center (`sparse_grid_nodes`), or the
antithetic Monte-Carlo pairs plus the center (`monte_carlo_nodes`).  At
level 3 the 2*D axis nodes +-B*e_i carry weight 0, so a query evaluates
2*D^2 + 1 of the grid's nodes (9 of 13 at D = 2); `build_sparse_grid` keeps
every merged node, since the published node counts count them all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, sqrt

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
    "sparse_grid_nodes",
    "monte_carlo_nodes",
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


def build_sparse_grid(dim: int, level: int) -> SparseGrid:
    """Construct the level-k Smolyak grid for D-variate standard-normal integration.

    The terms come in the module docstring's order, each over the product of
    its raised coordinates' 1-D nodes, last coordinate fastest.  Coincident
    nodes merge in ascending coordinate order: a merged node takes its first
    occurrence's coordinates and the sum of its signed weights in listing
    order, and stays when that sum is zero, as the published counts count it.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    if level not in (1, 2, 3):
        raise UnsupportedLevelError(f"level {level} not supported")
    singles = np.arange(dim)[:, None]
    pairs = np.array(list(itertools.combinations(range(dim), 2)), dtype=int).reshape(-1, 2)
    # q -> the terms with |l| = D + q: (their raised coordinates (T, r), the levels of those r coordinates)
    terms = {0: [(np.zeros((1, 0), dtype=int), ())], 1: [(singles, (2,))], 2: [(singles, (3,)), (pairs, (2, 2))]}
    nodes, weights = [], []
    for q in range(max(0, level - dim), level):
        coeff = (-1.0) ** (level - 1 - q) * comb(dim - 1, level - 1 - q)
        for coords, levels in terms[q]:
            rules = [rule_1d(l) for l in levels]
            combos = np.array(list(itertools.product(*(range(len(r.nodes)) for r in rules))), dtype=int)
            block = np.zeros((len(coords), len(combos), dim))
            w = np.full(len(combos), coeff)
            for s, rule in enumerate(rules):
                block[np.arange(len(coords))[:, None], :, coords[:, s, None]] = np.take(rule.nodes, combos[:, s])
                w *= np.take(rule.weights, combos[:, s])
            nodes.append(block.reshape(-1, dim))
            weights.append(np.tile(w, len(coords)))
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    keys = np.round(nodes / _NODE_QUANTUM).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    merged, later = weights[first], np.delete(np.arange(len(weights)), first)
    np.add.at(merged, inverse.ravel()[later], weights[later])
    return SparseGrid(dim=dim, level=level, nodes=nodes[first], weights=merged)


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
        if self.mode not in _NODE_SETS:
            raise QuadratureError(f"unknown mode {self.mode!r}")
        if self.mode == "sparse-grid" and self.level not in (1, 2, 3):
            raise UnsupportedLevelError(f"level {self.level} not supported")
        if self.mode == "monte-carlo" and self.samples < 1:
            raise QuadratureError("samples must be >= 1")


def sparse_grid_nodes(cfg: SteinConfig, dim: int, call_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, weights) of a sparse-grid query: the level-`cfg.level`
    grid's nonzero-weight nodes and its center, in grid order, scaled by
    sigma.  Grid weights are symmetric, so the set is too."""
    grid = build_sparse_grid(dim, cfg.level)
    keep = (grid.weights != 0.0) | np.all(grid.nodes == 0.0, axis=1)
    return grid.nodes[keep] * cfg.sigma, grid.weights[keep]


def monte_carlo_nodes(cfg: SteinConfig, dim: int, call_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, weights) of Monte-Carlo query `call_index`: `cfg.samples`
    Gaussian offsets drawn from (seed, call_index), their negations and the
    center; each drawn offset weighs 1/samples, its negation and the center 0."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, call_index)))
    half = cfg.sigma * rng.standard_normal((cfg.samples, dim))
    offsets = np.concatenate([half, -half, np.zeros((1, dim))])
    return offsets, np.concatenate([np.full(cfg.samples, 1.0 / cfg.samples), np.zeros(cfg.samples + 1)])


_NODE_SETS = {"sparse-grid": sparse_grid_nodes, "monte-carlo": monte_carlo_nodes}


class SteinPlan:
    """The node set one estimator call evaluates, and its combination tables.

    ``offsets`` (n, dim) and ``weights`` (n,) come from the node-set
    function of ``cfg.mode``.  The set is symmetric with exactly one zero
    row, ``center``; ``pair[j]`` indexes the row holding the negated offset.
    With f_j = f(x + offset_j):

        u(x)      = sum_j w_j * (f_j + f_pair(j)) / 2
        du_i(x)   = sum_j w_j * offset_ji / (2 sigma^2) * (f_j - f_pair(j))
        d2u_ii(x) = sum_j w_j * (offset_ji^2 - sigma^2) / (2 sigma^4) * (f_j + f_pair(j) - 2 f_0)

    Every node is queried, so a center takes ``n_queries`` = n rows.
    """

    def __init__(self, cfg: SteinConfig, dim: int, call_index: int = 0):
        offsets, weights = _NODE_SETS[cfg.mode](cfg, dim, call_index)
        sigma = cfg.sigma
        self.dim = dim
        self.sigma = sigma
        self.offsets = offsets
        self.weights = weights
        self.pair = self._pair_index(offsets)
        center = np.flatnonzero(np.all(offsets == 0.0, axis=1))
        if len(center) != 1:
            raise QuadratureError("plan requires exactly one zero offset")
        self.center = int(center[0])
        # combination coefficient tables
        self.c_first = weights[:, None] * offsets / (2.0 * sigma**2)
        self.c_second = weights[:, None] * (offsets**2 - sigma**2) / (2.0 * sigma**4)
        for table in (self.offsets, self.weights, self.pair, self.c_first, self.c_second):
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
        """Model evaluations per center: the nodes of the set."""
        return len(self.weights)

    def eval_points(self, x: np.ndarray) -> np.ndarray:
        """Evaluation points for a (P, dim) batch of centers: shape (P*n_queries, dim)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x[:, None, :] + self.offsets[None, :, :]).reshape(-1, self.dim)

    def combine(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """The estimators of every center from the model outputs at eval_points.

        ``values`` has shape (..., P*n_queries): the outputs at eval_points
        of any number of queries along leading axes, such as the (B, rows)
        outputs of B loss queries.  Returns 'value' (..., P), and 'first'
        and 'second' (..., P, dim).

        Each center's result equals a call on that center's values alone,
        bit for bit, whatever else the call holds: every sum is a fixed-order
        `einsum` loop over the n nodes of one center and query, as a BLAS
        product over several rows at once would round by their position.
        Beside the values, a call holds three (..., P, n) float arrays at
        once (the pair gather, their sum and one estimator's operand), so a
        caller bounds its memory by the centers it passes in one call.
        """
        v = np.asarray(values, dtype=float)
        v = v.reshape(*v.shape[:-1], -1, self.n_queries)
        v_neg = v[..., self.pair]
        both = v + v_neg
        return {
            "value": 0.5 * np.einsum("...pn,n->...p", both, self.weights),
            # (..., P, n) x (n, D) -> (..., P, D)
            "first": np.einsum("...pn,nd->...pd", v - v_neg, self.c_first),
            "second": np.einsum("...pn,nd->...pd", both - 2.0 * v[..., self.center : self.center + 1], self.c_second),
        }


_PLAN_CACHE: dict[tuple[float, int, int], SteinPlan] = {}


def stein_plan(cfg: SteinConfig, dim: int, call_index: int = 0) -> SteinPlan:
    """The plan of estimator call `call_index`.  A sparse-grid plan depends
    on (sigma, level, dim) alone, so it is built once per process and every
    call shares it (building one, grid included, takes 10-20 ms at D = 21); a
    Monte-Carlo plan draws its offsets from (seed, call_index), a new plan
    per call."""
    if cfg.mode != "sparse-grid":
        return SteinPlan(cfg, dim, call_index)
    key = (cfg.sigma, cfg.level, dim)
    if key not in _PLAN_CACHE:
        _PLAN_CACHE[key] = SteinPlan(cfg, dim)
    return _PLAN_CACHE[key]
