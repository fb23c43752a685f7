import importlib.machinery

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg import lapack as scipy_lapack

from wfgibbs import (
    GridSpec,
    Tilted,
    ModelParams,
    Polynomial,
    QuarticDoubleWell,
    SolverError,
    UsageError,
    assemble_hamiltonian,
    lowest_eigenpairs,
    parity_of,
    spectra,
    tilt_hamiltonian,
)
from conftest import DOUBLE_WELL_REFERENCE, double_well, harmonic, inner_product


@pytest.mark.parametrize("mass", sorted(DOUBLE_WELL_REFERENCE))
def test_double_well_doublet_regression(mass, dw_grid):
    ref = DOUBLE_WELL_REFERENCE[mass]
    pairs = lowest_eigenpairs(assemble_hamiltonian(double_well(mass), dw_grid), 2)
    assert pairs[0].energy == pytest.approx(ref["e1"], rel=5e-4)
    assert pairs[1].energy == pytest.approx(ref["e2"], rel=5e-4)


def test_harmonic_ladder(harmonic_grid):
    pairs = lowest_eigenpairs(assemble_hamiltonian(harmonic(), harmonic_grid), 4)
    energies = [p.energy for p in pairs]
    assert energies == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=1e-4)


def test_orthonormality_gram(dw_grid):
    pairs = lowest_eigenpairs(assemble_hamiltonian(double_well(0.5), dw_grid), 6)
    wts = dw_grid.weights
    phis = np.stack([p.wavefunction for p in pairs])
    gram = (phis * wts) @ phis.T
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8


def test_energies_strictly_increase(dw_grid):
    pairs = lowest_eigenpairs(assemble_hamiltonian(double_well(1.5), dw_grid), 6)
    energies = np.array([p.energy for p in pairs])
    assert np.all(np.diff(energies) > 0)


def test_doublet_splitting_resolved(dw_grid):
    # m = 1.5 splitting is ~9.465e-3, five orders below the energy scale
    pairs = lowest_eigenpairs(assemble_hamiltonian(double_well(1.5), dw_grid), 2)
    split = pairs[1].energy - pairs[0].energy
    assert split == pytest.approx(1.65329839 - 1.64383345, rel=1e-3)


def test_agreement_with_dense_eigensolve():
    grid = GridSpec(-6.0, 6.0, 180)
    op = assemble_hamiltonian(double_well(0.5), grid)
    pairs = lowest_eigenpairs(op, 5)
    dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
    reference = np.sort(np.linalg.eigvalsh(dense))[:5]
    assert np.max(np.abs([p.energy for p in pairs] - reference)) < 1e-10


def test_residuals_are_small(dw_grid):
    op = assemble_hamiltonian(double_well(0.2), dw_grid)
    for pair in lowest_eigenpairs(op, 3):
        assert pair.residual <= 1e-10 * max(1.0, op.norm_estimate)


def test_normalization_invariant(dw_grid):
    op = assemble_hamiltonian(double_well(1.0), dw_grid)
    wts = dw_grid.weights
    for pair in lowest_eigenpairs(op, 4):
        assert np.sum(pair.wavefunction**2 * wts) == pytest.approx(1.0, abs=1e-10)


def test_sign_convention(dw_grid):
    op = assemble_hamiltonian(double_well(1.0), dw_grid)
    for pair in lowest_eigenpairs(op, 4):
        lead = pair.wavefunction[np.abs(pair.wavefunction) > 1e-8][0]
        assert lead > 0


def test_ground_state_even_first_excited_odd(dw_grid):
    pairs = lowest_eigenpairs(assemble_hamiltonian(double_well(0.2), dw_grid), 2)
    assert parity_of(pairs[0], dw_grid) == "even"
    assert parity_of(pairs[1], dw_grid) == "odd"


def test_tilted_well_has_no_parity(dw_grid):
    mp = ModelParams(0.2, 1.0, Tilted(QuarticDoubleWell(1.0, 1.5), 0.3))
    pair = lowest_eigenpairs(assemble_hamiltonian(mp, dw_grid), 1)[0]
    assert parity_of(pair, dw_grid) == "none"


def test_bad_arguments_rejected(dw_grid):
    op = assemble_hamiltonian(double_well(0.2), dw_grid)
    with pytest.raises(UsageError):
        lowest_eigenpairs(op, 0)
    with pytest.raises(UsageError):
        lowest_eigenpairs(op, 2, tol=-1.0)
    with pytest.raises(UsageError):
        parity_of(lowest_eigenpairs(op, 1)[0], GridSpec(0.0, 6.0, 11))
    with pytest.raises(UsageError):
        lowest_eigenpairs(op, 2, start=np.ones(op.n))


def test_non_finite_operator_is_a_solver_error():
    # a potential that overflows on the grid gives inf on the diagonal
    mp = ModelParams(1.0, 1.0, Polynomial((0.0, 0.0, 1e308)))
    with np.errstate(over="ignore"):
        op = assemble_hamiltonian(mp, GridSpec(-6.0, 6.0, 101))
    assert not np.isfinite(op.diagonal).all()
    with pytest.raises(SolverError, match="non-finite"):
        lowest_eigenpairs(op, 1)


@pytest.mark.parametrize("mass", [0.2, 1.5])
@pytest.mark.parametrize("lam, near", [(0.3, 0.29), (-0.05, -0.045), (1.0, 0.9)])
def test_warm_start_matches_lapack(mass, lam, near, dw_grid):
    op = assemble_hamiltonian(double_well(mass), dw_grid)
    start = lowest_eigenpairs(tilt_hamiltonian(op, near), 1)[0].wavefunction
    tilted = tilt_hamiltonian(op, lam)
    warm = lowest_eigenpairs(tilted, 1, start=start)[0]
    cold = lowest_eigenpairs(tilted, 1)[0]
    assert warm.method == "inverse_iteration" and cold.method == "lapack"
    assert abs(warm.energy - cold.energy) <= 1e-9 * max(1.0, abs(cold.energy))
    overlap = inner_product(warm.wavefunction, cold.wavefunction, dw_grid).real
    assert overlap >= 1.0 - 1e-12
    assert warm.residual <= 1e-10 * max(1.0, tilted.norm_estimate)


@pytest.mark.parametrize("mass", [0.2, 1.5])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_warm_start_from_exact_eigenvector_stops_at_roundoff(mass, lam, dw_grid):
    # the start's residual is already at roundoff and the next step cannot
    # halve it, so the start itself comes back after one or two factorizations
    tilted = tilt_hamiltonian(assemble_hamiltonian(double_well(mass), dw_grid), lam)
    cold = lowest_eigenpairs(tilted, 1)[0]
    warm = lowest_eigenpairs(tilted, 1, start=cold.wavefunction)[0]
    assert warm.method == "inverse_iteration" and cold.factorizations == 0
    assert 1 <= warm.factorizations <= 2
    assert abs(warm.energy - cold.energy) <= 1e-10 * max(1.0, abs(cold.energy))
    assert np.max(np.abs(warm.wavefunction - cold.wavefunction)) <= 1e-10
    assert warm.residual <= 1e-10 * max(1.0, tilted.norm_estimate)


@pytest.mark.parametrize("lam", [0.0, 1e-4, -1e-3])
@pytest.mark.parametrize("mix", [0.0, 1e-8, 1e-4, 1e-2, 0.3])
def test_warm_start_from_odd_partner_never_returns_excited_state(lam, mix, dw_grid):
    # m = 1.5: splitting ~9.5e-3, so a start on the odd partner has a small
    # residual and a Rayleigh quotient near E2; the certified shift must
    # still lead to the ground state, or to the cold solve
    op = assemble_hamiltonian(double_well(1.5), dw_grid)
    even, odd = lowest_eigenpairs(op, 2)
    tilted = tilt_hamiltonian(op, lam)
    cold = lowest_eigenpairs(tilted, 1)[0]
    pair = lowest_eigenpairs(tilted, 1, start=odd.wavefunction + mix * even.wavefunction)[0]
    assert abs(pair.energy - cold.energy) <= 1e-9 * max(1.0, abs(cold.energy))
    assert inner_product(pair.wavefunction, cold.wavefunction, dw_grid).real >= 1.0 - 1e-12


@pytest.mark.parametrize("mass", [0.2, 1.5])
def test_failed_factorization_falls_back_to_lapack(mass, dw_grid):
    # H - sigma with sigma just below E2 is indefinite, so dpttrf fails at
    # the first step and the cold solve runs
    op = assemble_hamiltonian(double_well(mass), dw_grid)
    odd = lowest_eigenpairs(op, 2)[1]
    pair = lowest_eigenpairs(op, 1, start=odd.wavefunction)[0]
    cold = lowest_eigenpairs(op, 1)[0]
    assert pair.method == "lapack"
    assert pair.energy == cold.energy
    assert np.array_equal(pair.wavefunction, cold.wavefunction)
    assert pair.residual == cold.residual


def _check_cold_path(k, mass, grid):
    # reference: the cold path as it stood before warm starts existed, through
    # scipy.linalg.eigh_tridiagonal
    op = assemble_hamiltonian(double_well(mass), grid)
    energies, vectors = eigh_tridiagonal(op.diagonal, op.off_diagonal,
                                         select="i", select_range=(0, k - 1))
    wts = grid.weights
    for i, pair in enumerate(lowest_eigenpairs(op, k, start=None)):
        vec = vectors[:, i]
        phi = vec / np.sqrt(grid.dx)
        if phi[np.abs(phi) > 1e-8][0] < 0:
            phi = -phi
        phi = phi / np.sqrt(np.sum(phi * phi * wts))
        assert pair.method == "lapack"
        assert pair.energy == float(energies[i])
        assert np.array_equal(pair.wavefunction, phi)
        assert pair.residual == float(np.linalg.norm(op.apply(vec) - energies[i] * vec))


@pytest.mark.parametrize("k", [1, 3])
def test_cold_path_is_unchanged(k, dw_grid):
    _check_cold_path(k, 0.5, dw_grid)


@pytest.mark.parametrize("mass", [0.2, 1.5])
@pytest.mark.parametrize("k", [1, 2, 3, 24])
def test_cold_path_is_unchanged_across_masses(k, mass, dw_grid):
    # m = 1.5 holds the near-degenerate doublet that stein deflates
    _check_cold_path(k, mass, dw_grid)


def test_loader_falls_back_to_scipy_linalg_lapack(monkeypatch, dw_grid):
    # with no _flapack file to load, the public scipy.linalg.lapack module,
    # which exposes the same wrappers, gives the same pairs cold and warm
    loaded = spectra._load_flapack()
    assert loaded is not scipy_lapack
    assert all(hasattr(loaded, name) for name in ("dstebz", "dstein", "dpttrf", "dpttrs"))
    with monkeypatch.context() as patch:
        patch.setattr(importlib.machinery.PathFinder, "find_spec",
                      classmethod(lambda cls, name, path=None, target=None: None))
        fallback = spectra._load_flapack()
    assert fallback is scipy_lapack

    op = assemble_hamiltonian(double_well(1.5), dw_grid)
    tilted = tilt_hamiltonian(op, 0.3)
    start = lowest_eigenpairs(tilt_hamiltonian(op, 0.29), 1)[0].wavefunction
    runs = []
    for module in (loaded, fallback):
        monkeypatch.setattr(spectra, "_lapack", module)
        runs.append(lowest_eigenpairs(op, 3) + lowest_eigenpairs(tilted, 1, start=start))
    assert [p.method for p in runs[1]] == ["lapack"] * 3 + ["inverse_iteration"]
    for a, b in zip(*runs):
        assert a.energy == b.energy and a.residual == b.residual and a.method == b.method
        assert np.array_equal(a.wavefunction, b.wavefunction)
