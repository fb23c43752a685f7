"""Lowest eigenpairs of real symmetric tridiagonal operators.

Cold solves locate eigenvalues by bisection on Sturm sequence counts
(LAPACK dstebz) and the eigenvectors by inverse iteration with deflation
inside near-degenerate clusters (LAPACK dstein), the same calls
scipy.linalg.eigh_tridiagonal(select="i") makes. This resolves tunneling
doublets whose splitting is many orders of magnitude below the eigenvalue
scale.

A ground state (k = 1) given a start vector, such as the ground state at a
nearby multiplier, is refined instead by shifted inverse iteration: each
shift sigma = rho - max(r, 1e3 eps ||H||) sits below the Rayleigh quotient
rho by its residual r, and a successful LDL^T factorization of H - sigma
(LAPACK dpttrf) certifies that H - sigma is positive definite, i.e. that
sigma lies below the whole spectrum (Parlett, The Symmetric Eigenvalue
Problem, ch. 4), so the iteration can only converge to the ground state.
Once the residual is at roundoff (at most 1e3 eps ||H||) the iteration
stops at the first step that fails to halve it, and returns the vector
whose own shift was certified; started from an exact eigenvector it takes
one factorization. A failed factorization, or a residual that stalls above
roundoff, falls back to the cold LAPACK solve.

The reduced resolvent (H - E0)^+ of a ground state, which gives the
susceptibility dq/dlambda of constrained ground states, is applied by the
same LDL^T factorization at the shift E0 - 1e3 eps ||H|| just below E0.

This is the only module that calls LAPACK. Its four routines (dstebz and
dstein for cold solves; dpttrf and dpttrs for warm solves and the reduced
resolvent) are called through scipy's f2py extension scipy/linalg/_flapack,
loaded from its file so that the scipy.linalg package __init__, which
imports numpy.testing and numpy.f2py among others, never runs: it is most
of the package's import time. When the file is not found,
scipy.linalg.lapack, which exposes the same wrappers, is used instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, UsageError
from .lattice import GridSpec, TridiagonalOperator

DEFAULT_TOL = 1e-10
MAX_INVERSE_STEPS = 40
SHIFT_FLOOR = 1e3 * np.finfo(float).eps  # least distance of a shift below E0, per ||H||
PARITY_TOL = 1e-6  # max |phi(x) -+ phi(-x)| of an even or odd state


def _load_flapack():
    """scipy's _flapack extension module, executed from its file without
    importing any scipy package; scipy.linalg.lapack when there is none."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        dirs = [os.path.join(p, "linalg") for p in scipy_spec.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.linalg import lapack
    return lapack


_lapack = _load_flapack()


@dataclass(frozen=True)
class EigenPair:
    """Energy and grid wavefunction, normalized with trapezoid weights.

    Sign convention: the first component exceeding 1e-8 in magnitude is
    positive. ``method`` names the path that produced the pair: "lapack"
    (cold dstebz/dstein solve) or "inverse_iteration" (warm start, dpttrf
    certified shifts and dpttrs solves). ``factorizations`` counts the
    dpttrf calls made for it, those of a warm start that fell back included.
    """

    energy: float
    wavefunction: np.ndarray
    residual: float
    method: str
    factorizations: int


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(vec) > 1e-8)[0]
    if len(nz) and vec[nz[0]] < 0:
        return -vec
    return vec


def _inverse_iteration(op: TridiagonalOperator, start: np.ndarray):
    """((energy, unit vector, residual) of the ground state refined from start
    by certified shifted inverse iteration, or None when a factorization
    fails, the residual stalls above roundoff or MAX_INVERSE_STEPS pass;
    dpttrf calls made)."""
    floor = SHIFT_FLOOR * op.norm_estimate
    vec = start / np.linalg.norm(start)
    best = None
    for step in range(MAX_INVERSE_STEPS):
        hv = op.apply(vec)
        rho = float(vec @ hv)
        resid = float(np.linalg.norm(hv - rho * vec))
        # best's own shift passed dpttrf, so its rho < E0 + max(r, floor); at
        # roundoff a step that fails to halve the residual ends the iteration
        if best is not None and resid > 0.5 * best[2] and (best[2] <= floor or resid >= best[2]):
            return (best if best[2] <= floor else None), step
        best = (rho, vec, resid)
        vec = _shifted_solve(op, rho - max(resid, floor), vec)
        if vec is None:
            return None, step + 1
        vec /= np.linalg.norm(vec)
    return None, MAX_INVERSE_STEPS


def _shifted_solve(op: TridiagonalOperator, shift: float, rhs: np.ndarray):
    """(H - shift)^-1 rhs by an LDL^T factorization (dpttrf, dpttrs), or
    None when it fails, i.e. when shift does not lie below the spectrum."""
    dd, ee, info = _lapack.dpttrf(op.diagonal - shift, op.off_diagonal)
    return _lapack.dpttrs(dd, ee, rhs)[0] if info == 0 else None


def _cold_solve(op: TridiagonalOperator, k: int):
    """(ascending energies, unit eigenvectors as columns) of the k lowest
    eigenpairs: dstebz by index in block order, then dstein."""
    d, e = op.diagonal, op.off_diagonal
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise SolverError("tridiagonal operator has non-finite entries")
    m, w, iblock, isplit, info = _lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info == 0:
        w = w[:m]
        vectors, info = _lapack.dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise SolverError(f"tridiagonal eigensolve failed: LAPACK stebz/stein info={info}")
    order = np.argsort(w)
    return w[order], vectors[:, order]


def lowest_eigenpairs(op: TridiagonalOperator, k: int, tol: float = DEFAULT_TOL,
                      start: np.ndarray | None = None):
    """Return the k lowest eigenpairs in ascending order.

    With k == 1 and a start vector the ground state is refined from start
    by certified shifted inverse iteration, falling back to the cold LAPACK
    solve when that fails (see the module docstring). Raises SolverError if
    any residual ||H phi - E phi|| exceeds tol * max(1, ||H||).
    """
    if k < 1 or k > op.n:
        raise UsageError(f"k={k} outside [1, {op.n}]")
    if tol <= 0:
        raise UsageError(f"tol must be positive, got {tol}")
    if start is not None and k != 1:
        raise UsageError(f"a start vector needs k=1, got k={k}")
    warm, factorizations = (None, 0) if start is None else _inverse_iteration(op, start)
    if warm is not None:
        energies, vectors = [warm[0]], warm[1][:, None]
        method = "inverse_iteration"
    else:
        method = "lapack"
        energies, vectors = _cold_solve(op, k)

    dx = op.grid.dx
    bound = tol * max(1.0, op.norm_estimate)
    pairs = []
    for i in range(k):
        vec = vectors[:, i]
        resid = (warm[2] if warm is not None
                 else float(np.linalg.norm(op.apply(vec) - energies[i] * vec)))
        if resid > bound:
            raise SolverError(
                f"eigenpair {i} residual {resid:.3e} exceeds bound {bound:.3e}",
                residual=resid,
            )
        phi = _fix_sign(vec / np.sqrt(dx))
        # renormalize in the trapezoid norm (endpoint weights)
        norm2 = np.sum(phi * phi * op.grid.weights)
        phi = phi / np.sqrt(norm2)
        pairs.append(EigenPair(float(energies[i]), phi, resid, method, factorizations))
    return pairs


def reduced_resolvent(op: TridiagonalOperator, ground: EigenPair,
                      rhs: np.ndarray) -> np.ndarray:
    """(H - E0)^+ rhs: the inverse of H - E0 on the orthogonal complement of
    the ground state of op, applied to rhs projected onto it (Euclidean
    inner product on grid vectors).

    It is solved as (H - E0 + f)^-1 with f = 1e3 eps ||H|| by dpttrf/dpttrs,
    so the component along each excited state k is off by the relative
    amount f / (E_k - E0). Raises SolverError if the factorization fails.
    """
    u = ground.wavefunction / np.linalg.norm(ground.wavefunction)
    shift = ground.energy - SHIFT_FLOOR * op.norm_estimate
    y = _shifted_solve(op, shift, rhs - (u @ rhs) * u)
    if y is None:
        raise SolverError(f"H - E0 is not positive definite below E0={ground.energy}")
    return y - (u @ y) * u


def parity_of(pair: EigenPair, grid: GridSpec) -> str:
    """Classify a wavefunction as 'even', 'odd', or 'none' on a symmetric grid."""
    if not grid.is_symmetric:
        raise UsageError("parity classification requires a symmetric grid")
    phi = pair.wavefunction
    if np.max(np.abs(phi - phi[::-1])) < PARITY_TOL:
        return "even"
    if np.max(np.abs(phi + phi[::-1])) < PARITY_TOL:
        return "odd"
    return "none"
