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
certifies that H - sigma is positive definite, i.e. that sigma lies below
the whole spectrum (Parlett, The Symmetric Eigenvalue Problem, ch. 4), so
the iteration can only converge to the ground state. The first vector at
roundoff (residual at most f = 1e3 eps ||H||) is certified when its shift
rho - f factors, and nothing more is factored: one step from it at that
shift shrinks every excited component relative to the ground one, so the
successor's Rayleigh quotient is at most rho < E0 + f, and the successor
is returned if it halves the vector's residual, the vector otherwise.
Started from an exact eigenvector the iteration takes one factorization.

A tilted ground state decays exponentially where the potential exceeds its
energy, so the iteration runs on the window [lo, hi) of rows where the
start exceeds 1e-20 of its peak, plus 64 rows on each side (the edges are
found on every 32nd row, so lo is a multiple of 32), and its vectors are
zero outside. A window of more than 3/4 of the grid is the whole grid.
Each shifted solve factors the window block with its two end diagonals
lowered by their couplings |e| to the rows outside, and a shift is used
only if it lies strictly below min(diag_i - |e_(i-1)| - |e_i|) over the
rows outside. Eliminating from row 0, every outside pivot then exceeds its
coupling by induction (a pivot d > |e| passes on e^2 / d < |e|), each
window pivot is at least the lowered block's (the last one by more than
its coupling to row hi), and the rows past hi follow as the first ones
did: a successful window factorization certifies H - sigma on the whole
grid. The residual adds the two couplings |e| |v_edge| to the rows just
outside, so rho and r are exactly those of the zero-padded vector on the
whole grid. An iteration that fails on a window (a shift not certified,
or a residual that stalls above roundoff, say because the ground state
reaches past an edge) goes on once over the whole grid from its best
vector; a failure there falls back to the cold LAPACK solve.

The tilt response of a ground state, dq/dlambda and dphi/dlambda of the
ground state of H + lambda q, comes from its reduced resolvent (H - E0)^+,
applied by the same LDL^T solve over the whole grid at the shift
E0 - 1e3 eps ||H|| just below E0.

Every solve returns its own work record, a Counter of its solves, dptsv
factorizations and the rows they factored: a caller sums the records.

This is the only module that calls LAPACK. Its three routines (dstebz and
dstein for cold solves; dptsv, an LDL^T factorization and solve, for warm
solves and the tilt response) are called through scipy's f2py
extension scipy/linalg/_flapack, loaded from its file so that the
scipy.linalg package __init__, which imports numpy.testing and numpy.f2py
among others, never runs: it is most of the package's import time. When
the file is not found, scipy.linalg.lapack, which exposes the same
wrappers, is used instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, UsageError
from .lattice import GridSpec, TridiagonalOperator, tridiagonal_product

DEFAULT_TOL = 1e-10  # bound on every residual ||H phi - E phi||, per max(1, ||H||)
MAX_INVERSE_STEPS = 40
SHIFT_FLOOR = 1e3 * np.finfo(float).eps  # least distance of a shift below E0, per ||H||
PARITY_TOL = 1e-6  # max |phi(x) -+ phi(-x)| of an even or odd state
WINDOW_CUT = 1e-20  # share of its peak below which a start row may lie outside the window
WINDOW_STRIDE = 32  # the window's edges are found on every 32nd row
WINDOW_MARGIN = 64  # rows kept beyond them
WINDOW_SHARE = 0.75  # a wider window is the whole grid


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
    """Energy and grid wavefunction, unit in the grid's inner product
    dx sum_i (lattice): the unit eigenvector divided by sqrt(dx).

    Sign convention: the first component exceeding 1e-8 in magnitude is
    positive. ``work`` is the record of the call that made it, the same
    for each of its k pairs: ``eigensolves`` (1), ``lapack_fallbacks`` (1
    when a start was given and the cold solve ran), ``factorizations``
    (the dptsv calls, those of a warm start that fell back included) and
    ``factorized_rows`` (the rows they factored).
    """

    energy: float
    wavefunction: np.ndarray
    residual: float
    work: Counter


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(vec) > 1e-8)[0]
    if len(nz) and vec[nz[0]] < 0:
        return -vec
    return vec


def _window(op: TridiagonalOperator, start: np.ndarray):
    """Rows [lo, hi) of the warm solve from start: those where start exceeds
    WINDOW_CUT of its peak, found on every WINDOW_STRIDE-th row (so lo is a
    multiple of it), plus WINDOW_MARGIN rows; the whole grid when that is
    more than WINDOW_SHARE of it or start has no such row."""
    coarse = np.abs(start[::WINDOW_STRIDE])
    # argmax and nonzero take microseconds less than max and flatnonzero,
    # and this runs before every warm solve
    above = (coarse > WINDOW_CUT * coarse[coarse.argmax()]).nonzero()[0]
    if not len(above):
        return 0, op.n
    lo = max(WINDOW_STRIDE * (int(above[0]) - 1) - WINDOW_MARGIN, 0)
    hi = min(WINDOW_STRIDE * (int(above[-1]) + 1) + WINDOW_MARGIN, op.n)
    return (lo, hi) if hi - lo <= WINDOW_SHARE * op.n else (0, op.n)


def _inverse_iteration(op: TridiagonalOperator, start: np.ndarray):
    """((energy, unit vector, residual) of the ground state refined from start
    by certified shifted inverse iteration, or None when that fails; dptsv
    calls made; rows they factored). The iteration runs on the window of
    start and, if it fails there, once more on the whole grid from its best
    vector."""
    lo, hi = _window(op, start)
    warm, best, count = _iterate(op, start, lo, hi)
    rows = count * (hi - lo)
    if warm is None and hi - lo < op.n:
        warm, _, more = _iterate(op, best, 0, op.n)
        count, rows = count + more, rows + more * op.n
    return warm, count, rows


def _iterate(op: TridiagonalOperator, start: np.ndarray, lo: int, hi: int):
    """(energy, unit vector, residual) of the ground state refined from start
    on rows [lo, hi), zero outside, or None when a shift is not certified,
    the residual stalls above roundoff or MAX_INVERSE_STEPS pass; the vector
    of least residual, zero-padded; dptsv calls made."""
    floor = SHIFT_FLOOR * op.norm_estimate
    d, e, lowered, left, right, wall = _block(op, lo, hi)

    def padded(vec):
        if hi - lo == op.n:
            return vec
        full = np.zeros(op.n)
        full[lo:hi] = vec
        return full

    # x / sqrt(x.dot(x)) is x / np.linalg.norm(x) bit for bit, without its
    # microseconds of argument handling on each step
    vec = start[lo:hi]
    vec = vec / math.sqrt(vec.dot(vec))
    best = None
    for step in range(MAX_INVERSE_STEPS):
        hv = tridiagonal_product(d, e, vec)
        rho = float(vec @ hv)
        r = hv - rho * vec
        # the residual of vec padded with zeros: the window rows and the two
        # rows just outside
        resid = math.sqrt(r.dot(r) + (left * vec[0]) ** 2 + (right * vec[-1]) ** 2)
        # best's shift was certified below E0; once best is at roundoff, vec
        # is one step from it at that shift, so its rho is at most best's
        if best is not None and (best[2] <= floor or resid >= best[2]):
            if best[2] <= floor and resid <= 0.5 * best[2]:
                best = (rho, vec, resid)
            found = (best[0], padded(best[1]), best[2]) if best[2] <= floor else None
            return found, padded(best[1]), step
        best = (rho, vec, resid)
        shift = rho - max(resid, floor)
        if not shift < wall:
            return None, padded(best[1]), step
        vec = _solve(lowered - shift, e, vec)
        if vec is None:
            return None, padded(best[1]), step + 1
        vec /= math.sqrt(vec.dot(vec))
    return None, padded(best[1]), MAX_INVERSE_STEPS


def _block(op: TridiagonalOperator, lo: int, hi: int):
    """(diagonal, off-diagonal, the diagonal with its two ends lowered by
    their couplings |e| to the rows just outside, those couplings on the
    left and right, least Gershgorin bound diag_i - |e_(i-1)| - |e_i| of
    the rows outside) of rows [lo, hi) of op. With no rows outside, the
    lowered diagonal is the diagonal and the bound inf. A shift below the
    bound makes the pivot of every outside row exceed its coupling (see
    the module docstring)."""
    d, e = op.diagonal[lo:hi], op.off_diagonal[lo:hi - 1]
    if lo == 0 and hi == op.n:
        return d, e, d, 0.0, 0.0, np.inf
    left = abs(op.off_diagonal[lo - 1]) if lo else 0.0
    right = abs(op.off_diagonal[hi - 1]) if hi < op.n else 0.0
    lowered = d.copy()
    lowered[0] -= left
    lowered[-1] -= right
    coupling = np.abs(op.off_diagonal)
    bound = op.diagonal.copy()
    bound[:-1] -= coupling
    bound[1:] -= coupling
    return d, e, lowered, left, right, float(min(bound[:lo].min(initial=np.inf),
                                                 bound[hi:].min(initial=np.inf)))


def _solve(diagonal: np.ndarray, off_diagonal: np.ndarray, rhs: np.ndarray):
    """The solution of the symmetric tridiagonal system by an LDL^T
    factorization (dptsv), or None when a pivot is not positive, i.e. when
    the matrix is not positive definite. diagonal, a temporary of the
    caller, is overwritten (which spares dptsv a copy of it)."""
    x, info = _lapack.dptsv(diagonal, off_diagonal, rhs, overwrite_d=1)[2:]
    return x if info == 0 else None


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


def lowest_eigenpairs(op: TridiagonalOperator, k: int, start: np.ndarray | None = None):
    """Return the k lowest eigenpairs in ascending order.

    With k == 1 and a start vector the ground state is refined from start
    by certified shifted inverse iteration, falling back to the cold LAPACK
    solve when that fails (see the module docstring); a start that is not a
    real, finite vector of op.n entries with a nonzero norm is a UsageError.
    Raises SolverError if any residual ||H phi - E phi|| exceeds
    DEFAULT_TOL * max(1, ||H||).
    """
    if k < 1 or k > op.n:
        raise UsageError(f"k={k} outside [1, {op.n}]")
    if start is not None:
        if k != 1:
            raise UsageError(f"a start vector needs k=1, got k={k}")
        start = np.asarray(start)
        # start @ start is nan for a nan entry and inf for an infinite one
        if (start.shape != (op.n,) or start.dtype.kind not in "iuf"
                or not 0.0 < start @ start < np.inf):
            raise UsageError(f"a start vector needs {op.n} real, finite entries and a "
                             f"nonzero norm, got shape {start.shape} of {start.dtype}")
    warm, factorizations, rows = (None, 0, 0) if start is None else _inverse_iteration(op, start)
    if warm is not None:
        energies, vectors = [warm[0]], warm[1][:, None]
    else:
        energies, vectors = _cold_solve(op, k)

    dx = op.grid.dx
    bound = DEFAULT_TOL * max(1.0, op.norm_estimate)
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
        work = Counter(eigensolves=1, lapack_fallbacks=int(start is not None and warm is None),
                       factorizations=factorizations, factorized_rows=rows)
        pairs.append(EigenPair(float(energies[i]), phi, resid, work))
    return pairs


def tilt_response(op: TridiagonalOperator, ground: EigenPair):
    """(dq/dlambda, dphi/dlambda, work) of the ground state of op + lambda q
    at lambda = 0, phi the unit ground state (Euclidean norm on grid
    vectors): with r = (x - <q>) phi, dphi/dlambda = -(H - E0)^+ r and
    dq/dlambda = -2 <r, (H - E0)^+ r>.

    The reduced resolvent (H - E0)^+, the inverse of H - E0 on the
    orthogonal complement of phi, is solved as (H - E0 + f)^-1 with
    f = 1e3 eps ||H|| by one dptsv over the whole grid, so the component
    along each excited state k is off by the relative amount f / (E_k - E0);
    work counts that factorization and its rows. Raises SolverError if the
    factorization fails.
    """
    u = ground.wavefunction / np.linalg.norm(ground.wavefunction)
    x = op.grid.x
    r = (x - u @ (x * u)) * u
    shift = ground.energy - SHIFT_FLOOR * op.norm_estimate
    y = _solve(op.diagonal - shift, op.off_diagonal, r - (u @ r) * u)
    if y is None:
        raise SolverError(f"H - E0 is not positive definite below E0={ground.energy}")
    y = y - (u @ y) * u
    return -2.0 * float(r @ y), -y, Counter(factorizations=1, factorized_rows=op.n)


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
