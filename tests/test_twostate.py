import numpy as np
import pytest

from wfgibbs import (
    GridSpec,
    UsageError,
    build_two_state,
    two_state_veff,
)
from wfgibbs.twostate import rescale

from conftest import (DOUBLE_WELL_MASSES, DOUBLE_WELL_REFERENCE, harmonic, inner_product,
                      momentum_expectation, two_state_coefficients, two_state_coherent)


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
    with pytest.raises(UsageError, match="exceeds the dipole"):
        two_state_veff(ts, 1.01 * ts.d)
    with pytest.raises(UsageError, match="exceeds the dipole"):
        two_state_veff(ts, -1.5 * ts.d)


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
    psi = two_state_coherent(ts, 0.4 * ts.d, 0.9)
    norm = inner_product(psi, psi, dw_grid)
    assert norm == pytest.approx(1.0, abs=1e-9)
    q = inner_product(psi, dw_grid.x * psi, dw_grid)
    assert np.real(q) == pytest.approx(0.4 * ts.d, abs=1e-8)
    assert momentum_expectation(psi, dw_grid, 1.0) == pytest.approx(0.9, abs=1e-4)


def test_rescale_maps_arc_to_unit_circle(two_state_models):
    # rescaled, the arc is -sqrt(1 - u^2) for every mass
    for ts in two_state_models.values():
        q = np.linspace(-ts.d, ts.d, 41)
        v = np.array([two_state_veff(ts, qi) for qi in q])
        u, s = rescale(ts, v, q)
        assert np.allclose(s, -np.sqrt(1.0 - u**2), atol=1e-12)
        assert np.array_equal(u, q / ts.d)


def test_harmonic_two_state_dipole(harmonic_grid):
    # harmonic doublet: d = 1/sqrt(2), splitting = 1
    ts = build_two_state(harmonic(), harmonic_grid)
    assert ts.d == pytest.approx(1 / np.sqrt(2), rel=1e-5)
    assert ts.splitting == pytest.approx(1.0, abs=1e-4)
