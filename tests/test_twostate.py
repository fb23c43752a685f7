import numpy as np
import pytest

from wfgibbs import (
    GridSpec,
    build_two_state,
    rescale,
    two_state_table,
    two_state_veff,
)
from wfgibbs.twostate import (DomainError, two_state_coefficients, two_state_coherent,
                              two_state_lambda)

from conftest import (DOUBLE_WELL_MASSES, DOUBLE_WELL_REFERENCE, harmonic, inner_product,
                      momentum_expectation)


@pytest.mark.parametrize("mass", DOUBLE_WELL_MASSES)
def test_doublet_and_dipole_regression(mass, two_state_models):
    ts = two_state_models[mass]
    ref = DOUBLE_WELL_REFERENCE[mass]
    assert ts.e1 == pytest.approx(ref["e1"], rel=5e-4)
    assert ts.e2 == pytest.approx(ref["e2"], rel=5e-4)
    assert ts.d == pytest.approx(ref["d"], rel=5e-4)
    assert ts.d > 0


def test_arc_endpoints_and_center(two_state_models):
    ts = two_state_models[0.5]
    assert two_state_veff(ts, 0.0) == pytest.approx(ts.e1)
    assert two_state_veff(ts, ts.d) == pytest.approx(ts.mean_level)
    assert two_state_veff(ts, -ts.d) == pytest.approx(ts.mean_level)


def test_arc_is_even_and_convex(two_state_models):
    ts = two_state_models[1.0]
    q = np.linspace(-0.99 * ts.d, 0.99 * ts.d, 101)
    v = np.array([two_state_veff(ts, qi) for qi in q])
    assert np.allclose(v, v[::-1])
    assert np.all(np.diff(v, 2) > 0)


def test_domain_guard(two_state_models):
    ts = two_state_models[0.2]
    with pytest.raises(DomainError):
        two_state_veff(ts, 1.01 * ts.d)
    with pytest.raises(DomainError):
        two_state_lambda(ts, -1.5 * ts.d)


def test_lambda_is_minus_arc_gradient(two_state_models):
    ts = two_state_models[0.5]
    for q in (-0.8, -0.2, 0.3, 0.9):
        h = 1e-6
        grad = (two_state_veff(ts, q + h) - two_state_veff(ts, q - h)) / (2 * h)
        assert two_state_lambda(ts, q) == pytest.approx(-grad, abs=1e-7)


def test_coefficients_satisfy_constraints(two_state_models):
    ts = two_state_models[1.0]
    for q in np.linspace(-0.95 * ts.d, 0.95 * ts.d, 9):
        a1, a2 = two_state_coefficients(ts, q)
        assert a1**2 + a2**2 == pytest.approx(1.0)
        # position constraint: <q> = 2 a1 a2 d
        assert 2 * a1 * a2 * ts.d == pytest.approx(q, abs=1e-12)
        # energy identity: a1^2 E1 + a2^2 E2 = V_eff(q)
        energy = a1**2 * ts.e1 + a2**2 * ts.e2
        assert energy == pytest.approx(two_state_veff(ts, q), abs=1e-12)


def test_coefficients_limits(two_state_models):
    ts = two_state_models[0.2]
    assert two_state_coefficients(ts, 0.0) == (1.0, 0.0)
    a1, a2 = two_state_coefficients(ts, ts.d)
    assert a1 == pytest.approx(np.cos(np.pi / 4))
    assert a2 == pytest.approx(np.sin(np.pi / 4))


def test_coherent_state_expectations(two_state_models, dw_grid):
    ts = two_state_models[0.5]
    state = two_state_coherent(ts, 0.4 * ts.d, 0.9)
    from wfgibbs import position_element

    norm = inner_product(state.psi, state.psi, dw_grid)
    assert norm == pytest.approx(1.0, abs=1e-9)
    q = position_element(state.psi, state.psi, dw_grid)
    assert np.real(q) == pytest.approx(0.4 * ts.d, abs=1e-8)
    assert momentum_expectation(state.psi, dw_grid, 1.0) == pytest.approx(0.9, abs=1e-4)


def test_table_covers_full_domain(two_state_models):
    ts = two_state_models[1.5]
    table = two_state_table(ts, n=201)
    assert table.bounded_support
    assert table.q[0] == pytest.approx(-ts.d)
    assert table.q[-1] == pytest.approx(ts.d)
    assert np.isnan(table.lam[0]) and np.isnan(table.lam[-1])
    assert np.all(np.isfinite(table.lam[1:-1]))
    assert table.meta["kind"] == "two_state"


def test_rescale_maps_arc_to_unit_circle(two_state_models):
    # rescaled, the arc is -sqrt(1 - u^2) for every mass
    for ts in two_state_models.values():
        q = np.linspace(-ts.d, ts.d, 41)
        v = np.array([two_state_veff(ts, qi) for qi in q])
        u, s = rescale(ts, v, q)
        assert np.allclose(s, -np.sqrt(1.0 - u**2), atol=1e-12)
        assert np.array_equal(rescale(ts, v), s)


def test_harmonic_two_state_dipole(harmonic_grid):
    # harmonic doublet: d = 1/sqrt(2), splitting = 1
    ts = build_two_state(harmonic(), harmonic_grid)
    assert ts.d == pytest.approx(1 / np.sqrt(2), rel=1e-5)
    assert ts.splitting == pytest.approx(1.0, abs=1e-4)
