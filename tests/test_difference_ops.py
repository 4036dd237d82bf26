"""Difference-operator algebra: shift matrix, adjoint, spectrum, grid action."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeangle.core import GridFunction, SectorGrid, make_geometry
from planeangle.difference_ops import (
    DifferenceOperator,
    SingularMatrix,
    adjoint,
    apply_on_grid,
    column_shift_operator,
    inverse_matrix,
    spectrum,
    symmetric_part_positive_definite,
    to_matrix,
    two_sector_operator,
)

GEO2 = make_geometry([0.4, 1.2, 2.0])
GEO3 = make_geometry([0.4, 1.0, 1.6, 2.2])


def test_to_matrix_two_sector():
    m = to_matrix(two_sector_operator(0.5, 0.25, GEO2))
    assert np.array_equal(m, [[1.0, -0.5], [-0.25, 1.0]])


def test_to_matrix_identity():
    m = to_matrix(DifferenceOperator({0: 1.0}, GEO2))
    assert np.array_equal(m, np.eye(2))


def test_to_matrix_three_sector():
    op = DifferenceOperator({0: 2.0, 1: 1.0, -1: -1.0}, GEO3)
    expected = [[2.0, 1.0, 0.0], [-1.0, 2.0, 1.0], [0.0, -1.0, 2.0]]
    assert np.array_equal(to_matrix(op), expected)


def test_adjoint_swaps_coefficients():
    op = two_sector_operator(0.5, 0.25, GEO2)
    adj = adjoint(op)
    assert adj.coeff(1) == -0.25
    assert adj.coeff(-1) == -0.5
    assert adj.coeff(0) == 1.0


def test_adjoint_fixed_point_for_symmetric_coefficients():
    op = DifferenceOperator({0: 1.0, 1: -0.3, -1: -0.3}, GEO2)
    assert adjoint(op) == op


@given(
    e0=st.floats(-3, 3), e1=st.floats(-3, 3), em1=st.floats(-3, 3)
)
@settings(max_examples=50, deadline=None)
def test_adjoint_is_involution(e0, e1, em1):
    op = DifferenceOperator({0: e0, 1: e1, -1: em1}, GEO2)
    assert adjoint(adjoint(op)) == op


def test_adjoint_matrix_is_transpose():
    op = two_sector_operator(0.7, -0.2, GEO2)
    assert np.array_equal(to_matrix(adjoint(op)), to_matrix(op).T)


def test_spectrum_identity():
    vals = spectrum(two_sector_operator(0.0, 0.0, GEO2))
    assert np.allclose(vals, [1.0, 1.0])


def test_spectrum_closed_form_real_pair():
    # eigenvalues of [[1, -a], [-b, 1]] are 1 +- sqrt(a*b)
    vals = spectrum(two_sector_operator(0.5, 0.5, GEO2))
    assert np.allclose(vals, [0.5, 1.5], atol=1e-14)


def test_spectrum_complex_pair():
    vals = spectrum(two_sector_operator(1.0, -1.0, GEO2))
    assert np.allclose(sorted(vals, key=lambda z: z.imag), [1 - 1j, 1 + 1j], atol=1e-14)


def test_inverse_matrix_closed_form():
    inv = inverse_matrix(two_sector_operator(0.5, 0.5, GEO2))
    assert np.allclose(inv, np.array([[1.0, 0.5], [0.5, 1.0]]) / 0.75, atol=1e-14)


def test_inverse_matrix_identity():
    inv = inverse_matrix(two_sector_operator(0.0, 0.0, GEO2))
    assert np.array_equal(inv, np.eye(2))


def test_inverse_matrix_singular():
    with pytest.raises(SingularMatrix):
        inverse_matrix(two_sector_operator(2.0, 0.5, GEO2))


def test_positive_definite_inside_regime():
    assert symmetric_part_positive_definite(two_sector_operator(0.9, 0.9, GEO2))
    assert symmetric_part_positive_definite(two_sector_operator(0.0, 0.0, GEO2))


def test_positive_definite_fails_outside_regime():
    assert not symmetric_part_positive_definite(two_sector_operator(1.5, 1.5, GEO2))


def test_coupling_regime_determinant_scan():
    # det = 1 - alpha*beta never vanishes when |alpha+beta| < 2
    grid = np.arange(-60, 61) / 20.0
    for a in grid:
        for b in grid:
            if abs(a + b) < 2.0:
                inverse_matrix(two_sector_operator(a, b, GEO2))


def test_apply_on_grid_identity():
    grid = SectorGrid(GEO2, 0.5, 2.0, 4, 8)
    rng = np.random.default_rng(7)
    u = GridFunction(grid, rng.standard_normal((5, 9)))
    v = apply_on_grid(DifferenceOperator({0: 1.0}, GEO2), u)
    assert np.array_equal(v.values, u.values)


def test_apply_on_grid_pure_shift():
    grid = SectorGrid(GEO2, 0.5, 2.0, 4, 8)
    s = grid.shift_columns
    vals = np.zeros((5, 9))
    vals[:, s + 1 :] = np.arange(5)[:, None] + 1.0  # support inside K_2
    u = GridFunction(grid, vals)
    v = apply_on_grid(DifferenceOperator({1: 1.0}, GEO2), u)
    assert np.array_equal(v.values[:, 1 : s + 1], vals[:, s + 1 : 2 * s + 1])
    assert np.all(v.values[:, 0] == 0.0)
    assert np.all(v.values[:, s + 1 :] == 0.0)


def test_apply_on_grid_matches_block_matrix():
    grid = SectorGrid(GEO2, 0.5, 2.0, 4, 8)
    op = two_sector_operator(0.3, 0.7, GEO2)
    m = column_shift_operator(op, grid).toarray()
    rng = np.random.default_rng(11)
    u = GridFunction(grid, rng.standard_normal((5, 9)))
    v = apply_on_grid(op, u)
    for i in range(5):
        assert np.allclose(v.values[i], m @ u.values[i], atol=1e-14)


def test_discrete_block_spectrum():
    # away from the boundary-residue columns the discrete operator is a
    # direct sum of copies of the shift matrix, one per interior column pair
    grid = SectorGrid(GEO2, 0.5, 2.0, 8, 16)
    op = two_sector_operator(0.4, -0.3, GEO2)
    s = grid.shift_columns
    m = column_shift_operator(op, grid).toarray()
    matrix_eigs = np.sort_complex(np.linalg.eigvals(to_matrix(op)))
    for j0 in range(1, s):
        cols = [j0, j0 + s]
        block = m[np.ix_(cols, cols)]
        assert np.allclose(
            np.sort_complex(np.linalg.eigvals(block)), matrix_eigs, atol=1e-10
        )


def test_commutes_with_interior_differences():
    # support kept one full sector clear of both angular boundaries, so all
    # shifted reads stay inside the angle and the finite differences commute
    grid = SectorGrid(GEO3, 0.5, 2.0, 8, 18)
    op = DifferenceOperator({0: 1.0, 1: -0.6, -1: 0.4}, GEO3)
    s = grid.shift_columns
    rng = np.random.default_rng(3)
    vals = np.zeros((9, 19), dtype=complex)
    vals[1:-1, s + 1 : 2 * s] = rng.standard_normal((7, s - 1))
    u = GridFunction(grid, vals)

    def d_phi(a):
        out = np.zeros_like(a)
        out[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2 * grid.dphi)
        return out

    def d_r(a):
        out = np.zeros_like(a)
        out[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2 * grid.dr)
        return out

    for diff in (d_phi, d_r):
        lhs = diff(apply_on_grid(op, u).values)
        rhs = apply_on_grid(op, GridFunction(grid, diff(u.values))).values
        scale = max(np.max(np.abs(rhs)), 1.0)
        # drop the one-node rim where the difference stencil is undefined
        assert np.max(np.abs(lhs - rhs)[1:-1, 1:-1]) <= 1e-13 * scale


def test_coefficient_range_enforced():
    with pytest.raises(Exception):
        DifferenceOperator({2: 1.0}, GEO2)
    with pytest.raises(Exception):
        DifferenceOperator({0: np.inf}, GEO2)
