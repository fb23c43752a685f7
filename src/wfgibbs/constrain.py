"""Constrained ground states and the effective potential.

For a target position expectation q the ground state of the tilted
Hamiltonian H + lambda*q is solved self-consistently: the multiplier
lambda(q) is the root of g(lambda) = <phi_lambda, q phi_lambda> - q, which
is strictly decreasing in lambda. The effective potential is

    V_eff(q) = E0_lambda(q) - lambda(q) * q,

a Legendre-type transform of the concave map lambda -> E0_lambda; it is
convex with dV_eff/dq = -lambda(q). Generalized coherent states are
exp(i p x / hbar) * phi_lambda(q)(x).

Both tables come from one continuation in lambda, outward from the
untilted node (q0, E0, 0), whose ground state is refined warm from the even
state of the caller's lowest doublet (a twostate.TwoStateModel, which every
table takes and records): by Hellmann-Feynman each tilted ground state is
an exact node (q, E0 - lambda q, lambda). Prescribed nodes
(effective_potential) are hit to the root tolerance, free ones
(lambda_walk_table) wherever an advance of h/8 to 3h/2 lands; a symmetric
problem is solved on one side and mirrored. A prescribed node's lambda is
predicted by quadratic extrapolation through the last three nodes (by the
secant before that), a free node's by the secant. A node that cannot be
solved raises out of either builder: a table with a hole is not V_eff.

Each Newton step's slope comes with the first-order change of the ground
state, dphi/dlambda = -(H - E0)^+ (x - q) phi, and every eigensolve after
one, in the same node or at the next, starts from phi + dlambda dphi/dlambda
instead of phi while that correction is a perturbation (below half of phi
in norm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolverError, UnreachableTargetError, UsageError
from .lattice import (
    GridSpec,
    ModelParams,
    QuarticDoubleWell,
    TridiagonalOperator,
    assemble_hamiltonian,
    position_element,
    tilt_hamiltonian,
)
from .spectra import EigenPair, lowest_eigenpairs, reduced_resolvent

if TYPE_CHECKING:
    from .twostate import TwoStateModel

DEFAULT_ROOT_TOL_SCALE = 1e-8
MAX_NEWTON_STEPS = 100


def default_grid(mp: ModelParams) -> GridSpec:
    """Grid wide and fine enough for the low-lying states of the model.

    For the quartic double well with x0 = 1.5 this is [-6, 6] with 4001
    points; wavefunction tails there are below 1e-12 for all studied masses.
    """
    pot = mp.potential
    half = max(6.0, 4.0 * pot.x0) if isinstance(pot, QuarticDoubleWell) else 10.0
    return GridSpec(-half, half, 4001)


@dataclass(frozen=True)
class ConstrainedState:
    """Self-consistent record (q, lambda(q), ground energy, wavefunction),
    with the number of k=1 eigensolves the root took, how many of the
    warm-started ones fell back to a cold LAPACK solve, the cold solves and
    the dpttrf factorizations (eigensolves and slopes), and dphi/dlambda of
    the unit ground state at the last Newton step (None without one)."""

    q_target: float
    lam: float
    ground_energy: float
    v_eff: float
    wavefunction: np.ndarray
    constraint_residual: float
    eigensolves: int
    lapack_fallbacks: int
    cold_solves: int
    factorizations: int
    tangent: np.ndarray | None


@dataclass(frozen=True)
class CoherentState:
    q: float
    p: float
    psi: np.ndarray


@dataclass
class EffectivePotentialTable:
    """Sampled V_eff(q) with the doublet metadata used for rescaling."""

    q: np.ndarray
    v_eff: np.ndarray
    lam: np.ndarray
    meta: dict = field(default_factory=dict)
    bounded_support: bool = False

    def interpolate(self, qq):
        """Piecewise-linear V_eff between table nodes."""
        return np.interp(qq, self.q, self.v_eff)


def _slope(op: TridiagonalOperator, ground: EigenPair):
    """(dq/dlambda, dphi/dlambda) of the ground state of op + lambda q at
    lambda = 0, phi the unit ground state: with r = (x - <q>) phi,
    dphi/dlambda = -(H - E0)^+ r and dq/dlambda = -2 <r, (H - E0)^+ r>."""
    u = ground.wavefunction / np.linalg.norm(ground.wavefunction)
    x = op.grid.x
    r = (x - u @ (x * u)) * u
    y = reduced_resolvent(op, ground, r)
    return -2.0 * float(r @ y), -y


def _first_order(phi: np.ndarray, dlam: float, tangent: np.ndarray | None) -> np.ndarray:
    """Start vector for the ground state at lambda + dlam, from phi at lambda:
    phi/|phi| + dlam dphi/dlambda while the correction is below 1/2 in norm,
    phi itself otherwise (or without a tangent)."""
    if tangent is None or not abs(dlam) * np.linalg.norm(tangent) < 0.5:
        return phi
    return phi / np.linalg.norm(phi) + dlam * tangent


def solve_lambda(mp: ModelParams, q_target: float, grid: GridSpec,
                 op: TridiagonalOperator | None = None, start: np.ndarray | None = None,
                 lam: float = 0.0, *, _band: tuple | None = None) -> ConstrainedState:
    """Find lambda such that the tilted ground state has <q> = q_target.

    Safeguarded Newton from lam on g(lambda) = <q>_lambda - q_target, with
    the exact slope g' of _slope. g is strictly decreasing, so each
    evaluated lambda bounds the root on one side, and a step that leaves
    the bounds is replaced by their midpoint. The slope only steers: a
    multiplier is accepted when |g| <= 1e-8 max(1, |q_target|), so an
    inexact slope costs eigensolves, not accuracy. While the root is not
    yet bracketed, a step that does not bring <q> closer to q_target means
    the target is out of reach (UnreachableTargetError). Each eigensolve is
    warm-started from start, then from the first-order change of the last
    ground state (see the module docstring). The lambda continuation passes
    _band, the (low, high) g it accepts for a free node, which is recorded
    at the <q> it reaches.
    """
    if op is None:
        op = assemble_hamiltonian(mp, grid)
    tol = DEFAULT_ROOT_TOL_SCALE * max(1.0, abs(q_target))
    band = (-tol, tol) if _band is None else _band
    lo, hi, best = -np.inf, np.inf, np.inf
    solves = fallbacks = cold = factorizations = 0
    tangent = None
    for _ in range(MAX_NEWTON_STEPS):
        tilted = tilt_hamiltonian(op, lam)
        pair = lowest_eigenpairs(tilted, 1, start=start)[0]
        solves += 1
        cold += pair.method == "lapack"
        fallbacks += start is not None and pair.method == "lapack"
        factorizations += pair.factorizations
        phi = pair.wavefunction
        q = position_element(phi, phi, grid)
        resid = q - q_target
        if band[0] <= resid <= band[1]:
            at = q_target if _band is None else q
            return ConstrainedState(at, lam, pair.energy, pair.energy - lam * at, phi,
                                    abs(q - at), solves, fallbacks, cold, factorizations,
                                    tangent)
        if resid > 0:
            lo = lam
        else:
            hi = lam
        if abs(resid) >= best and (np.isinf(lo) or np.isinf(hi)):
            raise UnreachableTargetError(
                f"<q> stalls {abs(resid):.3g} short of {q_target} (grid too narrow?)",
                residual=abs(resid))
        best = min(best, abs(resid))
        chi, tangent = _slope(tilted, pair)
        factorizations += 1
        lam_next = lam - resid / chi
        if not lo < lam_next < hi:
            lam_next = 0.5 * (lo + hi)
        start, lam = _first_order(phi, lam_next - lam, tangent), lam_next
    raise SolverError(f"<q> - {q_target} not within [{band[0]:.3g}, {band[1]:.3g}] after "
                      f"{MAX_NEWTON_STEPS} Newton steps (best residual {best:.3g})", residual=best)


_COUNTS = ("eigensolves", "lapack_fallbacks", "cold_solves", "factorizations")


def _anchor(ts: TwoStateModel, grid: GridSpec, mirror: bool):
    """(counts, branch start (op, ground pair, q0, dlambda/dq)) of ts.model
    on grid: the untilted ground state, warm from ts.phi1 moved onto grid by
    linear interpolation (zero outside ts.grid), q0 its <q> (0 when
    mirrored) and the two-level -(e2 - e1) / 2d^2."""
    op = assemble_hamiltonian(ts.model, grid)
    start = np.interp(grid.x, ts.grid.x, ts.phi1, left=0.0, right=0.0)
    ground = lowest_eigenpairs(op, 1, start=start)[0]
    cold = int(ground.method == "lapack")
    counts = {"eigensolves": 1, "lapack_fallbacks": cold, "cold_solves": cold,
              "factorizations": ground.factorizations}
    q0 = 0.0 if mirror else position_element(ground.wavefunction, ground.wavefunction, grid)
    return counts, (op, ground, q0, -ts.splitting / (2.0 * ts.d**2))


def _outward(mp, grid, branch, direction, counts, targets=(), h=None, q_max=None):
    """Nodes (q, V, lambda) along direction, adding the work to counts: one
    solve_lambda call per node, from the predicted lambda (see the module
    docstring) and the first-order change of the last ground state.
    Prescribed nodes (targets, in outward order) are recorded at the
    target, free nodes (h given) where an advance in [h/8, 3h/2] of h lands,
    up to the first past q_max. A node that cannot be solved raises."""
    op, ground, q, slope = branch
    lam, phi, tangent, band = 0.0, ground.wavefunction, None, None
    # lambda(qt) ~ lam + (qt - q) (slope + curvature (qt - q_back)), Newton
    # form through the last three nodes; q_back == q while slope is two-level
    q_back, curvature = q, 0.0
    if h is not None:
        band = (h / 8 - h, h / 2) if direction > 0 else (-h / 2, h - h / 8)
        # free targets: one step on from the last node, until past q_max
        targets = iter(lambda: q + direction * h if direction * q < q_max else None, None)
    nodes = []
    for qt in targets:
        aim = lam + (qt - q) * (slope + curvature * (qt - q_back))
        cs = solve_lambda(mp, qt, grid, op=op, start=_first_order(phi, aim - lam, tangent),
                          lam=aim, _band=band)
        secant = (cs.lam - lam) / (cs.q_target - q)
        if h is None and q_back != q:
            curvature = (secant - slope) / (cs.q_target - q_back)
        q_back, q, lam, slope = q, cs.q_target, cs.lam, secant
        phi, tangent = cs.wavefunction, cs.tangent
        for key in _COUNTS:
            counts[key] += getattr(cs, key)
        nodes.append((q, cs.v_eff, lam))
    return nodes


def _columns(mp, grid, branch, counts, mirror, up=(), down=(), centre=True, **free):
    """Ascending (q, V, lambda) columns: _outward on each side of the
    untilted node (up and down hold each side's targets in outward order),
    the lower side mirrored when mirror, the untilted node between the
    sides when centre."""
    up = _outward(mp, grid, branch, 1.0, counts, up, **free)
    down = ([(-q, v, -lam) for q, v, lam in up] if mirror
            else _outward(mp, grid, branch, -1.0, counts, down, **free))
    return np.array(down[::-1] + [(branch[2], branch[1].energy, 0.0)] * centre + up).T


def _table(ts, grid, q, v, lam, counts, **extra):
    # always empty, as an unsolvable node raises; kept for readers of the key
    meta = {"e1": ts.e1, "e2": ts.e2, "d": ts.d, "model": ts.model.to_dict(),
            "grid": grid.to_dict(), **extra, "failed_points": [], **counts}
    return EffectivePotentialTable(np.asarray(q), np.asarray(v), np.asarray(lam), meta)


def effective_potential(ts: TwoStateModel, q_grid, grid: GridSpec) -> EffectivePotentialTable:
    """Tabulate V_eff of ts.model over an ascending q grid, by lambda
    continuation out from the untilted ground state on each side of its <q>.

    ts, the model's lowest doublet, gives meta its (e1, e2, d) and the
    untilted solve its warm start, so no solve is cold unless a warm start
    fails. A symmetric potential on a symmetric x grid and q grid (to 1e-12
    of its span) is solved on q > 0 and mirrored, (q, V, lambda) -> (-q, V,
    -lambda); a centre node is the untilted node. A node that cannot be
    solved raises UnreachableTargetError or SolverError. meta records the
    work done: k=1 eigensolves, warm starts that fell back, cold solves and
    dpttrf factorizations."""
    q_grid = np.asarray(q_grid, dtype=float)
    if len(q_grid) == 0:
        raise UsageError("empty q grid")
    if np.any(np.diff(q_grid) <= 0):
        raise UsageError("q grid must be strictly ascending")
    mp, n = ts.model, len(q_grid)
    mirror = bool(mp.potential.is_symmetric and grid.is_symmetric
                  and np.all(np.abs(q_grid + q_grid[::-1]) < 1e-12 * (q_grid[-1] - q_grid[0])))
    counts, branch = _anchor(ts, grid, mirror)
    # the upper side starts at the first node above q0 (past the centre)
    k = (n + 1) // 2 if mirror else int(np.searchsorted(q_grid, branch[2], side="right"))
    _, v, lam = _columns(mp, grid, branch, counts, mirror, q_grid[k:], q_grid[:k][::-1],
                         centre=mirror and n % 2)
    return _table(ts, grid, q_grid, v, lam, counts, root_tol_scale=DEFAULT_ROOT_TOL_SCALE)


def lambda_walk_table(ts: TwoStateModel, q_max: float, n_q: int,
                      grid: GridSpec) -> EffectivePotentialTable:
    """Tabulate V_eff of ts.model on free nodes covering [-q_max, q_max],
    with no root finding: the lambda continuation accepts any advance in
    [h/8, 3h/2] of h = 2 q_max / (n_q - 1), so no gap exceeds 1.5 h and each
    node gains at least h/8. A side ends at its first node past q_max, or
    raises UnreachableTargetError or SolverError if it cannot advance. A
    symmetric potential on a symmetric grid is walked on q > 0 and mirrored
    about the exact node (0, E0, 0). ts and meta are as in
    effective_potential."""
    if not 0 < q_max < np.inf or n_q < 2:
        raise UsageError(f"need 0 < q_max < inf and n_q >= 2, got {q_max}, {n_q}")
    mirror = ts.model.potential.is_symmetric and grid.is_symmetric
    counts, branch = _anchor(ts, grid, mirror)
    q, v, lam = _columns(ts.model, grid, branch, counts, mirror, h=2.0 * q_max / (n_q - 1),
                         q_max=q_max)
    return _table(ts, grid, q, v, lam, counts)
