"""Constrained ground states and the effective potential.

For a target position expectation q the ground state of the tilted
Hamiltonian H + lambda*q is solved self-consistently: the multiplier
lambda(q) is the root of g(lambda) = <phi_lambda, q phi_lambda> - q, which
is strictly decreasing in lambda. The effective potential is

    V_eff(q) = E0_lambda(q) - lambda(q) * q,

a Legendre-type transform of the concave map lambda -> E0_lambda; it is
convex with dV_eff/dq = -lambda(q).

Both tables come from one continuation in lambda, outward from the
untilted node (q0, E0, 0), whose ground state is refined warm from the even
state of the caller's lowest doublet (a twostate.TwoStateModel, which every
table takes and holds): by Hellmann-Feynman each tilted ground state is
an exact node (q, E0 - lambda q, lambda). Prescribed nodes
(effective_potential) are hit to the root tolerance, free ones
(lambda_walk_table) wherever an advance of h/8 to 3h/2 lands; a symmetric
problem is solved on one side and mirrored. A node that cannot be solved
raises out of either builder: a table with a hole is not V_eff. Only they
build tables, so every node holds its exact, finite slope -lambda.

Each node starts from one rule, _lagrange: the polynomial through the last
(at most three) nodes, sum_i w_i y_i with scalar or vector y_i. It predicts
the node's multiplier from lambda(q) and starts its first eigensolve from
phi(lambda) at that multiplier, each quadratic through three nodes and the
line through two; at the first node they are the two-level slope and the
untilted phi. Each Newton step's slope comes with the
first-order change of the ground state, dphi/dlambda (spectra.tilt_response),
and the node's next eigensolve starts from phi + dlambda dphi/dlambda.
Either start is used only while its correction to the last phi is a
perturbation (below half of phi in norm), phi itself otherwise.

The walk holds one operator, H, and sums the work records that spectra
returns with each eigensolve and tilt response; it counts no solve itself.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, UsageError
from .lattice import (
    GridSpec,
    ModelParams,
    QuarticDoubleWell,
    TridiagonalOperator,
    assemble_hamiltonian,
    position_element,
    tilt_hamiltonian,
)
from .spectra import lowest_eigenpairs, tilt_response
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
    with the work the root took: the sum of the work records of its
    eigensolves and tilt responses."""

    q_target: float
    lam: float
    ground_energy: float
    v_eff: float
    wavefunction: np.ndarray
    constraint_residual: float
    work: Counter


@dataclass
class EffectivePotentialTable:
    """Sampled V_eff(q) of doublet.model, rescaled by its doublet; meta is
    the work record of a solved table (grid, counts), empty otherwise."""

    q: np.ndarray
    v_eff: np.ndarray
    lam: np.ndarray
    doublet: TwoStateModel
    meta: dict = field(default_factory=dict)

    def interpolate(self, qq):
        """V_eff at qq, the end values outside the table's range: cubic
        Hermite on the nodes' values and exact slopes dV_eff/dq = -lambda
        (a lone node's value everywhere)."""
        q, v, lam = self.q, self.v_eff, self.lam
        if len(q) < 2:
            return np.interp(qq, q, v)
        x = np.clip(qq, q[0], q[-1])
        i = np.clip(np.searchsorted(q, x, side="right") - 1, 0, len(q) - 2)
        h = q[i + 1] - q[i]
        t, u = (x - q[i]) / h, (q[i + 1] - x) / h
        # symmetric in (t, V_i, lambda_i) <-> (u, V_i+1, -lambda_i+1): a
        # mirrored table gives mirrored values, bit for bit
        return (u * u * (3.0 - 2.0 * u) * v[i] + t * t * (3.0 - 2.0 * t) * v[i + 1]
                - h * (t * u) * (u * lam[i] - t * lam[i + 1]))


def _perturbed(phi: np.ndarray, start: np.ndarray) -> np.ndarray:
    """start while its correction to phi is below half of phi in norm (a
    perturbation), phi itself otherwise."""
    return start if np.linalg.norm(start - phi) < 0.5 * np.linalg.norm(phi) else phi


def _first_order(phi: np.ndarray, dlam: float, tangent: np.ndarray) -> np.ndarray:
    """Start vector for the ground state at lambda + dlam, from phi at lambda
    and tangent, dphi/dlambda of the unit ground state: phi + dlam |phi|
    tangent."""
    return _perturbed(phi, phi + dlam * np.linalg.norm(phi) * tangent)


def _lagrange(points, x):
    """The polynomial through points, (x_i, y_i) with each y_i a scalar or a
    vector, at x: sum_i w_i y_i with the Lagrange weights
    w_i = prod_(j != i) (x - x_j) / (x_i - x_j)."""
    total = 0.0
    for i, (xi, yi) in enumerate(points):
        w = math.prod((x - xj) / (xi - xj) for j, (xj, _) in enumerate(points) if j != i)
        total = total + w * yi
    return total


def solve_lambda(op: TridiagonalOperator, q_target: float, start: np.ndarray | None = None,
                 lam: float = 0.0, *, _band: tuple | None = None) -> ConstrainedState:
    """Find lambda such that the ground state of op + lambda q has
    <q> = q_target.

    Safeguarded Newton from lam on g(lambda) = <q>_lambda - q_target, with
    the exact slope g' of tilt_response. g is strictly decreasing, so each
    evaluated lambda bounds the root on one side, and a step that leaves
    the bounds is replaced by their midpoint. The slope only steers: a
    multiplier is accepted when |g| <= 1e-8 max(1, |q_target|), so an
    inexact slope costs eigensolves, not accuracy. While the root is not
    yet bracketed, a step that does not bring <q> closer to q_target, or a
    slope that gives no finite step, means the target is out of reach
    (SolverError). Each eigensolve is warm-started from start, then from
    the first-order change of the last ground state (see the module
    docstring). The lambda continuation passes _band, the (low, high) g it
    accepts for a free node, which is recorded at the <q> it reaches.
    """
    tol = DEFAULT_ROOT_TOL_SCALE * max(1.0, abs(q_target))
    band = (-tol, tol) if _band is None else _band
    lo, hi, best = -np.inf, np.inf, np.inf
    work = Counter()
    for _ in range(MAX_NEWTON_STEPS):
        tilted = tilt_hamiltonian(op, lam)
        pair = lowest_eigenpairs(tilted, 1, start=start)[0]
        work.update(pair.work)
        phi = pair.wavefunction
        q = position_element(phi, phi, op.grid)
        resid = float(q - q_target)  # a Python float: its step past the float range is inf
        if band[0] <= resid <= band[1]:
            at = q_target if _band is None else q
            return ConstrainedState(at, lam, pair.energy, pair.energy - lam * at, phi,
                                    abs(q - at), work)
        if resid > 0:
            lo = lam
        else:
            hi = lam
        unbracketed = np.isinf(lo) or np.isinf(hi)
        # while the root is unbracketed, a residual that does not shrink gives
        # no step, and neither does a zero slope: either is a stall. Once it
        # is bracketed, a step that is not finite leaves the bracket
        lam_next = math.nan
        if abs(resid) < best or not unbracketed:
            best = min(best, abs(resid))
            chi, tangent, slope_work = tilt_response(tilted, pair)
            work.update(slope_work)
            lam_next = lam - resid / chi if chi else math.nan
        if unbracketed and not math.isfinite(lam_next):
            raise SolverError(
                f"<q> stalls {abs(resid):.3g} short of {q_target} (grid too narrow?)",
                residual=abs(resid))
        if not lo < lam_next < hi:
            lam_next = 0.5 * (lo + hi)
        start, lam = _first_order(phi, lam_next - lam, tangent), lam_next
    raise SolverError(f"<q> - {q_target} not within [{band[0]:.3g}, {band[1]:.3g}] after "
                      f"{MAX_NEWTON_STEPS} Newton steps (best residual {best:.3g})", residual=best)


def _anchor(ts: TwoStateModel, grid: GridSpec, mirror: bool):
    """(work counts, branch start (op, ground pair, q0, dlambda/dq)) of
    ts.model on grid: the untilted ground state, warm from ts.phi1 moved onto
    grid by linear interpolation (zero outside ts.grid), q0 its <q> (0 when
    mirrored) and the two-level -(e2 - e1) / 2d^2."""
    op = assemble_hamiltonian(ts.model, grid)
    start = np.interp(grid.x, ts.grid.x, ts.phi1, left=0.0, right=0.0)
    ground = lowest_eigenpairs(op, 1, start=start)[0]
    q0 = 0.0 if mirror else position_element(ground.wavefunction, ground.wavefunction, grid)
    return Counter(ground.work), (op, ground, q0, -ts.splitting / (2.0 * ts.d**2))


def _outward(branch, direction, counts, targets=(), h=None, q_max=None):
    """Nodes (q, V, lambda) along direction, adding the work to counts: one
    solve_lambda call per node, from the lambda and the ground state that
    _lagrange extrapolates (see the module docstring).
    Prescribed nodes (targets, in outward order) are recorded at the
    target, free nodes (h given) where an advance in [h/8, 3h/2] of h lands,
    up to the first past q_max. A node that cannot be solved raises."""
    op, ground, q, slope = branch
    band = None
    if h is not None:
        band = (h / 8 - h, h / 2) if direction > 0 else (-h / 2, h - h / 8)
        # free targets: one step on from the last node, until past q_max
        targets = iter(lambda: q + direction * h if direction * q < q_max else None, None)
    known = [(q, 0.0, ground.wavefunction)]  # (q, lambda, phi) of the last three nodes
    nodes = []
    for qt in targets:
        aim = (_lagrange([(qk, lk) for qk, lk, _ in known], qt) if len(known) > 1
               else (qt - q) * slope)
        start = _perturbed(known[-1][2], _lagrange([(lk, phi) for _, lk, phi in known], aim))
        cs = solve_lambda(op, qt, start=start, lam=aim, _band=band)
        q = cs.q_target
        known = known[-2:] + [(q, cs.lam, cs.wavefunction)]
        counts.update(cs.work)  # not +=, which drops the zero counts
        nodes.append((q, cs.v_eff, cs.lam))
    return nodes


def _columns(branch, counts, mirror, up=(), down=(), centre=True, **free):
    """Ascending (q, V, lambda) columns: _outward on each side of the
    untilted node (up and down hold each side's targets in outward order),
    the lower side mirrored when mirror, the untilted node between the
    sides when centre."""
    up = _outward(branch, 1.0, counts, up, **free)
    down = ([(-q, v, -lam) for q, v, lam in up] if mirror
            else _outward(branch, -1.0, counts, down, **free))
    return np.array(down[::-1] + [(branch[2], branch[1].energy, 0.0)] * centre + up).T


def _table(ts, grid, q, v, lam, counts, **extra):
    # failed_points is always empty, as an unsolvable node raises; kept for
    # readers of the key
    meta = {"grid": grid.to_dict(), **extra, "failed_points": [], **counts}
    return EffectivePotentialTable(np.asarray(q), np.asarray(v), np.asarray(lam), ts, meta)


def effective_potential(ts: TwoStateModel, q_grid, grid: GridSpec) -> EffectivePotentialTable:
    """Tabulate V_eff of ts.model over an ascending q grid, by lambda
    continuation out from the untilted ground state on each side of its <q>.

    ts, the model's lowest doublet, becomes the table's doublet and gives
    the untilted solve its warm start, so no solve is cold unless a warm
    start fails. A symmetric potential on a symmetric x grid and q grid (to
    1e-12 of its span) is solved on q > 0 and mirrored, (q, V, lambda) ->
    (-q, V, -lambda); a centre node is the untilted node. A node that cannot be
    solved raises SolverError. meta records the grid and the work done: k=1
    eigensolves, warm starts that fell back, dptsv factorizations and the
    rows they factored."""
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
    _, v, lam = _columns(branch, counts, mirror, q_grid[k:], q_grid[:k][::-1],
                         centre=mirror and n % 2)
    return _table(ts, grid, q_grid, v, lam, counts, root_tol_scale=DEFAULT_ROOT_TOL_SCALE)


def lambda_walk_table(ts: TwoStateModel, q_max: float, n_q: int,
                      grid: GridSpec) -> EffectivePotentialTable:
    """Tabulate V_eff of ts.model on free nodes covering [-q_max, q_max],
    with no root finding: the lambda continuation accepts any advance in
    [h/8, 3h/2] of h = 2 q_max / (n_q - 1), so no gap exceeds 1.5 h and each
    node gains at least h/8. A side ends at its first node past q_max, or
    raises SolverError if it cannot advance. A symmetric potential on a
    symmetric grid is walked on q > 0 and mirrored about the exact node
    (0, E0, 0). ts and meta are as in effective_potential."""
    if not 0 < q_max < np.inf or n_q < 2:
        raise UsageError(f"need 0 < q_max < inf and n_q >= 2, got {q_max}, {n_q}")
    mirror = ts.model.potential.is_symmetric and grid.is_symmetric
    counts, branch = _anchor(ts, grid, mirror)
    q, v, lam = _columns(branch, counts, mirror, h=2.0 * q_max / (n_q - 1), q_max=q_max)
    return _table(ts, grid, q, v, lam, counts)
