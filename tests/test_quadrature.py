"""Univariate rules, Smolyak grids, and their integration properties."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photopinn.quadrature import (
    InvalidDimensionError,
    Rule1D,
    SparseGrid,
    UnsupportedLevelError,
    build_sparse_grid,
    rule_1d,
    save_grid,
)

SQRT3 = math.sqrt(3.0)

# Gaussian moments E[z^p] for even p: 1, 1, 3, 15, 105, ...
GAUSS_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}


def sparse_integrate(grid: SparseGrid, f) -> np.ndarray:
    """sum_j w_j f(node_j), for f mapping an (n, dim) batch to (n,) values."""
    return np.tensordot(grid.weights, np.asarray(f(grid.nodes), dtype=float), axes=(0, 0))


def rule_moment(rule: Rule1D, p: int) -> float:
    return float(np.dot(rule.weights, np.asarray(rule.nodes) ** p))


def test_level1_is_midpoint():
    r = rule_1d(1)
    assert r.nodes == (0.0,)
    assert r.weights == (1.0,)


def test_level2_matches_moment_system_oracle():
    # independent oracle: solve the symmetric 3-point system m0=1, m2=1, m4=3
    # for nodes {0, +-a}: 2 w a^2 = 1, 2 w a^4 = 3 -> a^2 = 3, w = 1/6.
    a = math.sqrt(3.0)
    w_outer = 1.0 / (2 * a * a)
    r = rule_1d(2)
    assert np.allclose(r.nodes, [-a, 0.0, a], atol=1e-15)
    assert np.allclose(r.weights, [w_outer, 1 - 2 * w_outer, w_outer], atol=1e-15)


def test_level3_contains_level2_and_has_five_nodes():
    r2, r3 = rule_1d(2), rule_1d(3)
    assert len(r3.nodes) == 5
    assert set(r2.nodes) <= set(r3.nodes)
    assert 0.0 in r3.nodes


def test_level3_moment_system_is_infeasible():
    """Brute-force check of the degree-6 moment system for a nested 5-point rule.

    With nodes {0, +-sqrt(3), +-b} and symmetric weights, m4 - 3*m2 gives
    2 w_b b^2 (b^2 - 3) = 0, so no b distinct from sqrt(3) admits nonzero
    weight while matching m4.  The least-squares defect over a dense b grid
    stays bounded away from zero; lexicographic matching (m0, m2, m4) is the
    maximal feasible construction and is what rule_1d(3) ships.
    """
    best = np.inf
    for b in np.linspace(0.2, 6.0, 1800):
        if abs(b * b - 3.0) < 1e-6:
            continue
        A = np.array(
            [
                [1.0, 2.0, 2.0],
                [0.0, 6.0, 2 * b**2],
                [0.0, 18.0, 2 * b**4],
                [0.0, 54.0, 2 * b**6],
            ]
        )
        m = np.array([1.0, 1.0, 3.0, 15.0])
        w, *_ = np.linalg.lstsq(A, m, rcond=None)
        best = min(best, float(np.linalg.norm(A @ w - m)))
    assert best > 0.04

    r3 = rule_1d(3)
    for p in range(6):  # degree-5 exactness is attained
        assert abs(rule_moment(r3, p) - GAUSS_MOMENTS[p]) < 1e-12
    assert abs(rule_moment(r3, 6) - 9.0) < 1e-12  # m6 lands at 9, not 15


def test_level2_exact_through_degree5():
    r = rule_1d(2)
    for p in range(6):
        assert abs(rule_moment(r, p) - GAUSS_MOMENTS[p]) < 1e-12


def test_unsupported_level():
    with pytest.raises(UnsupportedLevelError):
        rule_1d(4)
    with pytest.raises(UnsupportedLevelError):
        rule_1d(0)


@pytest.mark.parametrize("dim,expected", [(2, 13), (3, 25), (21, 925), (1, 5)])
def test_published_grid_counts(dim, expected):
    assert len(build_sparse_grid(dim, 3)) == expected


def test_grid_count_formula_all_dims():
    for dim in range(1, 26):
        assert len(build_sparse_grid(dim, 3)) == 2 * dim * dim + 2 * dim + 1


def test_level1_grid_single_node():
    g = build_sparse_grid(1, 1)
    assert len(g) == 1
    assert g.nodes[0, 0] == 0.0
    assert g.weights[0] == 1.0


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        build_sparse_grid(0, 2)


@pytest.mark.parametrize("dim,level", [(1, 1), (2, 2), (3, 3), (7, 3), (4, 2)])
def test_grid_weights_sum_to_one(dim, level):
    g = build_sparse_grid(dim, level)
    assert abs(g.weights.sum() - 1.0) < 1e-12


def test_grid_nodes_unique():
    g = build_sparse_grid(5, 3)
    keys = {tuple(np.round(n / 1e-12).astype(np.int64)) for n in g.nodes}
    assert len(keys) == len(g)


def test_grid_symmetric_under_negation():
    g = build_sparse_grid(4, 3)
    table = {tuple(n): w for n, w in zip(g.nodes, g.weights)}
    for n, w in zip(g.nodes, g.weights):
        assert table[tuple(-n + 0.0)] == pytest.approx(w, abs=1e-15)


def test_grid_axis_moments_needed_by_estimators():
    # E[z_i^2] = 1, E[z_i^4] = 3, E[z_i^2 z_j^2] = 1 must be exact at level 3
    g = build_sparse_grid(3, 3)
    z = g.nodes
    w = g.weights
    for i in range(3):
        assert np.dot(w, z[:, i] ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(w, z[:, i] ** 4) == pytest.approx(3.0, abs=1e-12)
    assert np.dot(w, z[:, 0] ** 2 * z[:, 1] ** 2) == pytest.approx(1.0, abs=1e-12)


def gaussian_monomial_value(powers):
    v = 1.0
    for p in powers:
        if p % 2 == 1:
            return 0.0
        v *= GAUSS_MOMENTS[p]
    return v


def test_grid_integrates_degree3_polynomials_exactly(rng):
    # closed-form Gaussian moments as the oracle
    g = build_sparse_grid(3, 3)
    monos = [p for p in itertools.product(range(4), repeat=3) if sum(p) <= 3]
    coeffs = rng.standard_normal(len(monos))

    def poly(z):
        out = np.zeros(len(z))
        for c, p in zip(coeffs, monos):
            out += c * z[:, 0] ** p[0] * z[:, 1] ** p[1] * z[:, 2] ** p[2]
        return out

    expected = sum(c * gaussian_monomial_value(p) for c, p in zip(coeffs, monos))
    got = sparse_integrate(g, poly)
    assert got == pytest.approx(expected, abs=1e-10)


def test_sparse_integrate_constant_and_variance():
    g = build_sparse_grid(4, 2)
    assert sparse_integrate(g, lambda z: np.ones(len(z))) == pytest.approx(1.0, abs=1e-13)
    assert sparse_integrate(g, lambda z: z[:, 2] ** 2) == pytest.approx(1.0, abs=1e-12)


def test_grid_save_load_roundtrip(tmp_path):
    g = build_sparse_grid(3, 3)
    path = tmp_path / "grid.txt"
    save_grid(g, path)
    assert path.read_text().splitlines()[:3] == ["# dim 3", "# level 3", "# count 25"]
    rows = np.loadtxt(path)
    assert np.array_equal(rows[:, :-1], g.nodes)
    assert np.array_equal(rows[:, -1], g.weights)


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(min_value=1, max_value=8), level=st.integers(min_value=1, max_value=3))
def test_grid_invariants_property(dim, level):
    g = build_sparse_grid(dim, level)
    assert abs(g.weights.sum() - 1.0) < 1e-12
    # nesting of node sets across levels
    if level < 3:
        bigger = build_sparse_grid(dim, level + 1)
        small = {tuple(n) for n in g.nodes}
        large = {tuple(n) for n in bigger.nodes}
        assert small <= large
