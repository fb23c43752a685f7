"""Constrained ground states and the effective potential.

For a target position expectation q the ground state of the tilted
Hamiltonian H + lambda*q is solved self-consistently: the multiplier
lambda(q) is the root of g(lambda) = <phi_lambda, q phi_lambda> - q, which
is strictly decreasing in lambda. The effective potential is

    V_eff(q) = E0_lambda(q) - lambda(q) * q,

a Legendre-type transform of the concave map lambda -> E0_lambda; it is
convex with dV_eff/dq = -lambda(q). Generalized coherent states are
exp(i p x / hbar) * phi_lambda(q)(x).

Where the q nodes are prescribed (effective_potential), each is a root in
lambda, found by Newton on the exact slope dq/dlambda (susceptibility).
Where they are free (lambda_walk_table), no root is needed: by
Hellmann-Feynman every tilted ground state is itself an exact node
(q(lambda), E0(lambda) - lambda q(lambda)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

DEFAULT_ROOT_TOL_SCALE = 1e-8
MAX_NEWTON_STEPS = 100
MAX_STEP_HALVINGS = 40
MAX_WALK_STEPS_PER_NODE = 8  # a lambda walk takes at most this many steps per n_q

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
    with the number of k=1 eigensolves the root took and how many of the
    warm-started ones fell back to a cold LAPACK solve."""

    q_target: float
    lam: float
    ground_energy: float
    v_eff: float
    wavefunction: np.ndarray
    constraint_residual: float
    eigensolves: int
    lapack_fallbacks: int


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


def susceptibility(op: TridiagonalOperator, ground: EigenPair) -> float:
    """dq/dlambda of the ground state of op + lambda q at lambda = 0.

    By second-order perturbation theory it is -2 <r, (H - E0)^+ r>, with
    r = (x - <q>) phi0; it is negative.
    """
    u = ground.wavefunction / np.linalg.norm(ground.wavefunction)
    x = op.grid.x
    r = (x - u @ (x * u)) * u
    return -2.0 * float(r @ reduced_resolvent(op, ground, r))


def solve_lambda(mp: ModelParams, q_target: float, grid: GridSpec,
                 op: TridiagonalOperator | None = None, start: np.ndarray | None = None,
                 lam: float = 0.0) -> ConstrainedState:
    """Find lambda such that the tilted ground state has <q> = q_target.

    Safeguarded Newton from lam on g(lambda) = <q>_lambda - q_target, with
    the exact slope g' = susceptibility. g is strictly decreasing, so each
    evaluated lambda bounds the root on one side, and a step that leaves
    the bounds is replaced by their midpoint. The slope only steers: a
    multiplier is accepted when |g| <= 1e-8 max(1, |q_target|), so an
    inexact slope costs eigensolves, not accuracy. While the root is not
    yet bracketed, a step that does not bring <q> closer to q_target means
    the target is out of reach (UnreachableTargetError). Each eigensolve is
    warm-started from the last ground state, or from start before the first.
    """
    if op is None:
        op = assemble_hamiltonian(mp, grid)
    tol = DEFAULT_ROOT_TOL_SCALE * max(1.0, abs(q_target))
    lo, hi, best = -np.inf, np.inf, np.inf
    solves = fallbacks = 0
    for _ in range(MAX_NEWTON_STEPS):
        tilted = tilt_hamiltonian(op, lam)
        pair = lowest_eigenpairs(tilted, 1, start=start)[0]
        solves += 1
        fallbacks += start is not None and pair.method == "lapack"
        start = pair.wavefunction
        resid = position_element(start, start, grid) - q_target
        if abs(resid) <= tol:
            return ConstrainedState(q_target, lam, pair.energy, pair.energy - lam * q_target,
                                    start, abs(resid), solves, fallbacks)
        if resid > 0:
            lo = lam
        else:
            hi = lam
        if abs(resid) >= best and (np.isinf(lo) or np.isinf(hi)):
            raise UnreachableTargetError(
                f"<q> stalls {abs(resid):.3g} short of {q_target} (grid too narrow?)",
                residual=abs(resid))
        best = min(best, abs(resid))
        lam -= resid / susceptibility(tilted, pair)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
    raise SolverError(f"<q> not within {tol:.3g} of {q_target} after {MAX_NEWTON_STEPS} "
                      f"Newton steps", residual=best)


def _doublet(op: TridiagonalOperator):
    """The two lowest eigenpairs of op and their (e1, e2, |<phi_1, q phi_2>|)."""
    pairs = lowest_eigenpairs(op, 2)
    return pairs, (pairs[0].energy, pairs[1].energy,
                   abs(position_element(pairs[0].wavefunction, pairs[1].wavefunction, op.grid)))


def effective_potential(mp: ModelParams, q_grid, grid: GridSpec,
                        doublet: tuple | None = None) -> EffectivePotentialTable:
    """Tabulate V_eff over an ascending q grid.

    Continuation: each point's Newton solve starts from the multiplier
    extrapolated along the secant dlambda/dq of the last two solved points
    (lambda = 0 at the first point, the last lambda at the second), and
    from the previous point's ground state. Points whose solve fails
    are recorded in the metadata and excluded from the table. doublet, the
    (e1, e2, d) of the lowest doublet on the same grid when the caller has
    already solved it, is stored as given; otherwise it is solved here.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    if len(q_grid) == 0:
        raise UsageError("empty q grid")
    if np.any(np.diff(q_grid) <= 0):
        raise UsageError("q grid must be strictly ascending")
    op = assemble_hamiltonian(mp, grid)
    e1, e2, d = _doublet(op)[1] if doublet is None else doublet

    qs, vs, ls, failed = [], [], [], []
    secant, start = 0.0, None
    eigensolves = fallbacks = 0
    for qt in q_grid:
        try:
            cs = solve_lambda(mp, qt, grid, op=op, start=start,
                              lam=ls[-1] + secant * (qt - qs[-1]) if qs else 0.0)
        except SolverError as exc:
            failed.append({"q": float(qt), "error": str(exc)})
            continue
        if qs:
            secant = (cs.lam - ls[-1]) / (qt - qs[-1])
        start = cs.wavefunction
        eigensolves += cs.eigensolves
        fallbacks += cs.lapack_fallbacks
        qs.append(cs.q_target)
        vs.append(cs.v_eff)
        ls.append(cs.lam)

    meta = {
        "e1": e1,
        "e2": e2,
        "d": d,
        "model": mp.to_dict(),
        "grid": grid.to_dict(),
        "root_tol_scale": DEFAULT_ROOT_TOL_SCALE,
        "failed_points": failed,
        "eigensolves": eigensolves,
        "lapack_fallbacks": fallbacks,
    }
    return EffectivePotentialTable(np.asarray(qs), np.asarray(vs), np.asarray(ls), meta)


def lambda_walk_table(mp: ModelParams, q_max: float, n_q: int, grid: GridSpec,
                      doublet: tuple | None = None) -> EffectivePotentialTable:
    """Tabulate V_eff on free nodes covering [-q_max, q_max], with no root
    finding.

    lambda is walked by continuation from 0, one ground state of H + lambda q
    per node, each warm-started from the previous node's. Each step is aimed
    at dq = h = 2 q_max / (n_q - 1) along the last secant dq/dlambda (the
    two-level susceptibility -2 d^2 / (e2 - e1) before the first) and halved
    while |dq| > 1.5 h, so no gap exceeds 1.5 h; a walk ends at its first
    node past q_max. A symmetric potential on a symmetric grid is walked on
    lambda <= 0 only and mirrored, (q, V, lambda) -> (-q, V, -lambda), about
    the exact node (0, E0, 0). doublet is as in effective_potential. A walk
    that stalls or exceeds its step bounds raises SolverError.
    """
    if not 0 < q_max < np.inf or n_q < 2:
        raise UsageError(f"need 0 < q_max < inf and n_q >= 2, got {q_max}, {n_q}")
    op = assemble_hamiltonian(mp, grid)
    if doublet is None:
        pairs, doublet = _doublet(op)
        ground, eigensolves = pairs[0], 0
    else:
        ground, eigensolves = lowest_eigenpairs(op, 1)[0], 1
    e1, e2, d = doublet
    h = 2.0 * q_max / (n_q - 1)
    mirror = mp.potential.is_symmetric and grid.is_symmetric
    q0 = 0.0 if mirror else position_element(ground.wavefunction, ground.wavefunction, grid)
    fallbacks = 0

    def walk(direction):
        """Nodes (q, V, lambda) from q0 out past direction * q_max."""
        nonlocal eigensolves, fallbacks
        lam, q, state = 0.0, q0, ground.wavefunction
        slope = -2.0 * d**2 / (e2 - e1)
        nodes = []
        while direction * q < q_max:
            if len(nodes) >= MAX_WALK_STEPS_PER_NODE * n_q:
                raise SolverError(f"lambda walk passed {len(nodes)} nodes at q={q} "
                                  f"without reaching |q| = {q_max}")
            step = direction * h / slope
            for _ in range(MAX_STEP_HALVINGS + 1):
                pair = lowest_eigenpairs(tilt_hamiltonian(op, lam + step), 1, start=state)[0]
                eigensolves += 1
                fallbacks += pair.method == "lapack"
                q_new = position_element(pair.wavefunction, pair.wavefunction, grid)
                dq = q_new - q
                if abs(dq) <= 1.5 * h:
                    break
                step *= 0.5
            else:
                raise SolverError(f"lambda step at q={q} still moves q by {dq:.3g} "
                                  f"> 1.5 h after {MAX_STEP_HALVINGS} halvings")
            if not direction * dq > 0:
                raise UnreachableTargetError(
                    f"<q> stalls at {q} short of |q| = {q_max} (grid too narrow?)")
            slope = dq / step
            lam, q, state = lam + step, q_new, pair.wavefunction
            nodes.append((q, pair.energy - lam * q, lam))
        return nodes

    up = walk(1.0)
    down = [(-q, v, -lam) for q, v, lam in up] if mirror else walk(-1.0)
    q, v, lam = np.array(down[::-1] + [(q0, ground.energy, 0.0)] + up).T
    meta = {
        "e1": e1,
        "e2": e2,
        "d": d,
        "model": mp.to_dict(),
        "grid": grid.to_dict(),
        "failed_points": [],
        "eigensolves": eigensolves,
        "lapack_fallbacks": fallbacks,
    }
    return EffectivePotentialTable(q, v, lam, meta)


def coherent_state(cs: ConstrainedState, p: float, mp: ModelParams,
                   grid: GridSpec) -> CoherentState:
    """exp(i p x / hbar) times the constrained ground state."""
    psi = np.exp(1j * p * grid.x / mp.hbar) * cs.wavefunction
    return CoherentState(cs.q_target, p, psi)

