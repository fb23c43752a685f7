"""The Gibbs measure over normalized wave functions on N levels: Monte Carlo
sampling, its exact moments, and the canonical atoms it is contrasted with.

On a truncated eigenbasis of size N a state is a complex coefficient
vector c on the unit sphere, with energy E(c) = sum_k |c_k|^2 E_k. A
random-walk Metropolis chain proposes c' = normalize(c + sigma * z) with
isotropic complex Gaussian z; the proposal density depends only on the
angle between c and c', hence is symmetric, and the acceptance rule
min(1, exp(-beta dE)) leaves exp(-beta E(c)) on the sphere invariant.

Each retained step records the expectations (<q>, <p>) as quadratic forms
c^dag Q c and c^dag P c. Chains are independently seeded from
(seed, chain index), and a run is bit-for-bit reproducible for a given
seed and chain count. exact_moments gives the measure's exact means and
variances at any beta, from one contour sum over the tilted simplex of the
moduli |c_k|^2; canonical_atoms gives the canonical density matrix's
distribution of <q> on the same levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, SolverError, UsageError
from .lattice import GridSpec, ModelParams, assemble_hamiltonian
from .spectra import lowest_eigenpairs
from .twostate import TwoStateModel, two_state_from_pairs

_PROPOSAL_SCALE = 0.3  # every chain's sigma at its first step; burn-in tunes it
_TUNE_WINDOW = 200  # burn-in steps per proposal-scale update
_NOISE_BLOCK = 4096  # steps per block of random draws
_BATCHES = 32  # batches per chain of a batch-means standard error
_SOKAL_C = 6.0  # IAT window: the first m >= _SOKAL_C tau(m)
# OpenBLAS keeps a dgemm of m * n * k <= 65536 * 4 on one thread
# (interface/gemm.c). Larger ones may wake its thread pool: with the
# OpenBLAS 0.3.31 bundled with numpy 2.4 on 2 cores, products from about
# 1e6 ran on both threads and took 2 to 25 times as long as one of half
# the size on one thread
_SERIAL_GEMM_SIZE = 65536 * 4
_WALL_ROWS = 8  # grid rows next to each hard wall whose weight of the top level is recorded
_CONTOUR_TAIL = 50.0  # exact_moments' contour ends where |e^z| is e^-50 of its saddle value


@dataclass(frozen=True)
class TruncatedModel:
    """Eigenbasis truncation: energies plus position/momentum quadratic forms.

    The momentum matrix is purely imaginary for real eigenfunctions and is
    stored as its real antisymmetric part A with P = i * A.
    """

    energies: np.ndarray
    q_matrix: np.ndarray
    p_matrix_imag: np.ndarray
    # the lowest doublet of the levels, which anchors the V_eff table of
    # validate: marginal, and the top level's weight within
    # _WALL_ROWS rows of the grid's walls; None for a model given as matrices
    doublet: TwoStateModel | None = None
    top_level_wall_weight: float | None = None

    @property
    def n(self) -> int:
        return len(self.energies)

    @cached_property
    def _forms(self) -> np.ndarray:
        """The (2N, 4N) real forms [sym(Q) (x) I2 | -anti(A) (x) J] of <q>, <p>.

        On the float64 view x = (Re c_0, Im c_0, Re c_1, ...) of c,
        Re(c^dag Q c) = x^T (sym(Q) (x) I2) x and Re(i c^dag A c) =
        -x^T (anti(A) (x) J) x with J = [[0, 1], [-1, 0]]; both blocks are
        symmetric.
        """
        q = np.asarray(self.q_matrix, dtype=float)
        a = np.asarray(self.p_matrix_imag, dtype=float)
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return np.hstack([np.kron(0.5 * (q + q.T), np.eye(2)),
                          np.kron(-0.5 * (a - a.T), j)])

    def _real_expectations(self, x: np.ndarray):
        """(<q>, <p>) for the rows of x, float64 views (m, 2N) of coefficient
        vectors: one gemm against the stacked forms and two row dots per
        chunk of rows, sized so that each gemm runs on one thread and memory
        stays bounded for any m.

        Every row goes through gemm, a lone one included (numpy would hand a
        single row to gemv, whose last bits differ), so a row's result does
        not depend on which rows share its chunk.
        """
        n2 = 2 * self.n
        forms = self._forms
        chunk = max(_SERIAL_GEMM_SIZE // forms.size, 2)
        q, p = np.empty(len(x)), np.empty(len(x))
        for lo in range(0, len(x), chunk):
            rows = x[lo:lo + chunk]
            y = np.dot(rows if len(rows) > 1 else np.vstack([rows, rows]), forms)
            q[lo:lo + len(rows)] = np.einsum("ij,ij->i", rows, y[:len(rows), :n2])
            p[lo:lo + len(rows)] = np.einsum("ij,ij->i", rows, y[:len(rows), n2:])
        return q, p


def _serial_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in blocks of rows of a, each product of at most
    _SERIAL_GEMM_SIZE multiply-adds when a row fits, so that each runs on
    one BLAS thread and the bits do not depend on the thread count (one
    gemm of 24 levels on 4001 points differs between one and two
    threads)."""
    rows = max(_SERIAL_GEMM_SIZE // b.size, 1)
    return np.concatenate([a[lo:lo + rows] @ b for lo in range(0, len(a), rows)])


def build_truncated_model(mp: ModelParams, n_basis: int, grid: GridSpec) -> TruncatedModel:
    """Project q and p onto the span of the lowest n_basis eigenstates,
    whose two lowest give the model its doublet. The top level's weight
    next to the walls measures how much the truncation feels the box."""
    if n_basis < 2:
        raise UsageError(f"n_basis must be >= 2, got {n_basis}")
    op = assemble_hamiltonian(mp, grid)
    pairs = lowest_eigenpairs(op, n_basis)
    dx = grid.dx
    phis = np.stack([p.wavefunction for p in pairs])  # (N, n_grid)

    q_matrix = _serial_product(phis * (dx * grid.x), phis.T)
    q_matrix = 0.5 * (q_matrix + q_matrix.T)

    dphis = np.zeros_like(phis)
    dphis[:, 1:-1] = (phis[:, 2:] - phis[:, :-2]) / (2.0 * dx)
    # <phi_k, p phi_l> = -i hbar <phi_k, phi_l'> = i * A_kl
    a = -mp.hbar * dx * _serial_product(phis, dphis.T)
    a = 0.5 * (a - a.T)

    energies = np.array([p.energy for p in pairs])
    density = dx * phis[-1] ** 2
    wall_weight = float(density[:_WALL_ROWS].sum() + density[-_WALL_ROWS:].sum())
    return TruncatedModel(energies, q_matrix, a, two_state_from_pairs(mp, grid, pairs),
                          wall_weight)


@dataclass(frozen=True)
class ChainConfig:
    chain_count: int = 4
    steps_per_chain: int = 50_000
    burn_in: int = 5_000
    seed: int = 0

    def __post_init__(self):
        if self.chain_count < 1 or self.steps_per_chain < 1:
            raise ConfigurationError("chain_count and steps_per_chain must be >= 1")
        if self.chain_count * self.steps_per_chain < 2:  # two batches for a standard error
            raise ConfigurationError("chain_count * steps_per_chain must be >= 2")
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be >= 0")


@dataclass
class SampleRun:
    """Retained (<q>, <p>) samples with chain diagnostics."""

    beta: float
    chain_count: int
    steps_per_chain: int
    burn_in: int
    seed: int
    samples: np.ndarray  # (chains, steps, 2)
    chain_acceptance: np.ndarray  # (chains,) acceptance after burn-in
    chain_iat: np.ndarray  # (chains,) integrated autocorrelation time of <q>
    proposal_scales: np.ndarray  # (chains,) tuned sigma

    @property
    def acceptance_rate(self) -> float:
        return float(self.chain_acceptance.mean())

    @property
    def integrated_autocorrelation_time(self) -> float:
        return float(np.mean(self.chain_iat))

    def chain_records(self) -> list:
        """Per-chain acceptance, tuned sigma, IAT of <q> and ESS (steps / IAT)."""
        return [{"acceptance": float(acc), "proposal_scale": float(sigma),
                 "iat_q": float(iat), "ess_q": self.steps_per_chain / float(iat)}
                for acc, sigma, iat in zip(self.chain_acceptance, self.proposal_scales,
                                           self.chain_iat)]

    @property
    def q(self) -> np.ndarray:
        return self.samples[:, :, 0].ravel()

    def moment_summary(self) -> dict:
        """Means and variances of q and p with batch-means standard errors.
        Each column is copied once into one contiguous (chains, steps)
        buffer, which is then centered and squared in place."""
        out = {}
        series = np.empty(self.samples.shape[:2])
        for column, name in enumerate("qp"):
            np.copyto(series, self.samples[:, :, column])
            mean = float(series.mean())
            out[f"mean_{name}"] = mean
            out[f"mean_{name}_se"] = _batch_se(series)
            series -= mean
            np.square(series, out=series)
            out[f"var_{name}"] = float(series.mean())
            out[f"var_{name}_se"] = _batch_se(series)
        return out


def _batch_se(series: np.ndarray) -> float:
    """Batch-means standard error over _BATCHES batches per chain (or one
    step per batch when a chain is shorter)."""
    chains, steps = series.shape
    per, n_batches = steps // _BATCHES, _BATCHES
    if per < 1:
        per, n_batches = 1, steps
    trimmed = series[:, : per * n_batches].reshape(chains, n_batches, per)
    means = trimmed.mean(axis=2).ravel()
    return float(means.std(ddof=1) / np.sqrt(len(means)))


def integrated_autocorrelation(series: np.ndarray) -> float:
    """Initial-sequence IAT estimate with Sokal's adaptive window."""
    series = np.asarray(series, dtype=float)
    n = len(series)
    x = series - series.mean()
    var = np.sum(x * x) / n  # pairwise sum: no dependence on the BLAS threads
    if var == 0:
        return 1.0
    # FFT autocorrelation
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n] / (var * n)
    # taus[m] = 1 + 2 sum_{t=1..m} acf[t], summed in order; the window is the
    # first m >= _SOKAL_C taus[m], or the whole series
    taus = np.cumsum(np.r_[1.0, 2.0 * acf[1:]])
    window = np.flatnonzero(np.arange(1, n) >= _SOKAL_C * taus[1:])
    return float(max(taus[window[0] + 1 if len(window) else n - 1], 1.0))


def noise_blocks(cfg: ChainConfig) -> list:
    """The blocks that cut the random stream of cfg's chains, the one rule
    of the blocks: for each, in order, (start, rows, span), its first step,
    its step count and the retained steps lo <= step < hi it holds, as
    (lo, hi) in the samples' own indices, or None for a block of burn-in
    alone. The blocks tile the burn_in + steps_per_chain steps, every one
    but the last _NOISE_BLOCK long, so the first is the widest; the spans
    tile [0, steps_per_chain), each ending with its block. chain_draws
    draws by them, the engine steps and evaluates by them, and cli lays
    out its shared slots and formats samples.csv by them."""
    total = cfg.burn_in + cfg.steps_per_chain
    blocks = [(start, min(_NOISE_BLOCK, total - start)) for start in range(0, total, _NOISE_BLOCK)]
    return [(start, rows, None if start + rows <= cfg.burn_in else
             (max(start - cfg.burn_in, 0), start + rows - cfg.burn_in))
            for start, rows in blocks]


def chain_draws(cfg: ChainConfig, n: int, beta: float, slots=None):
    """Yield the random stream of cfg's chains on n levels: first the start
    vectors, a (chains, 2N) array, then for each block of noise_blocks(cfg)
    the step-major normals (rows, chains, 2N) and the thresholds -log(u) /
    beta (rows, chains) of the rule dE < -log(u) / beta (+inf at beta = 0,
    where every step is accepted).

    Each chain draws from a private generator seeded by (seed, chain index):
    its start, then per block its normals and then its uniforms, so the
    chain count does not change any chain's stream. A chain draws into a
    (rows, 2N) scratch that is copied into its column of the step-major
    normals. Block k is drawn straight into the first rows of slots[k %
    len(slots)], each slot a (normals, thresholds) pair of arrays as wide
    as the first block; by default one slot of its own. A block is valid
    until its slot is drawn into again, and the consumer may overwrite
    what it takes."""
    n_chains, n2 = cfg.chain_count, 2 * n
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
            for i in range(n_chains)]
    yield np.stack([rng.standard_normal(n2) for rng in rngs])
    blocks = noise_blocks(cfg)
    width = blocks[0][1]
    if slots is None:
        slots = [(np.empty((width, n_chains, n2)), np.empty((width, n_chains)))]
    scratch, uniforms = np.empty((width, n2)), np.empty(width)
    for k, (_, rows, _) in enumerate(blocks):
        normals, thresholds = (array[:rows] for array in slots[k % len(slots)])
        for i, rng in enumerate(rngs):
            normals[:, i] = rng.standard_normal(out=scratch[:rows])
            u = rng.random(out=uniforms[:rows])
            # u = 0, beta = 0 or a beta below about 1e-307 gives t = +inf
            with np.errstate(divide="ignore", over="ignore"):
                np.divide(np.negative(np.log(u, out=u), out=u), beta, out=thresholds[:, i])
        yield normals, thresholds


def _checked(array, shape: tuple, name: str):
    """array, when it is a writable float64 array of the given shape (the
    engine writes into each); else UsageError."""
    if not (isinstance(array, np.ndarray) and array.shape == shape
            and array.dtype == np.float64 and array.flags.writeable):
        got = (f"{'read-only ' * (not array.flags.writeable)}{array.dtype} {array.shape}"
               if isinstance(array, np.ndarray) else type(array).__name__)
        raise UsageError(f"{name} must be a writable float64 array of shape {shape}, "
                         f"got {got}")
    return array


def sample_ensemble(tm: TruncatedModel, beta: float, cfg: ChainConfig, out=None,
                    draws=None) -> SampleRun:
    """Run independent Metropolis chains in lockstep and merge their samples.

    The states are held as the float64 view (chains, 2N) of the
    coefficients, real and imaginary parts interleaved. One step of every
    chain is a handful of numpy calls on contiguous (chains, 2N) slabs and
    (chains,) vectors: the proposal c + sigma z goes straight over z, its
    row of the block's normals, then one dot of its square against
    F = [1, E - E0] (each energy repeated for the real and the imaginary
    part) gives |prop|^2 and sum_k (E_k - E0) |prop_k|^2, whose ratio is
    the energy of normalize(prop). The rule u < exp(-beta max(dE, 0)) is
    applied as dE < -log(u) / beta, then |prop| goes over the step's
    threshold, and an accepted step sets c = prop / |prop|. An exactly zero
    proposal, which has probability zero, gets the energy 0/0 = nan and is
    rejected. Sigma only changes at the tuning boundaries of burn-in, so
    the noise is scaled in place once per tuning segment, and acceptances
    are counted per segment.

    The draws and accept flags of a block are step-major, (steps, chains,
    ...), and one loop runs burn-in and retained steps alike, with no copy
    of the state: only at the block's first retained step is the state
    entering it copied. After a block's steps, one call of
    TruncatedModel._real_expectations evaluates (<q>, <p>) for the block's
    fresh rows of every chain in step-major order: each chain's first
    retained state (the state entering it when that step was rejected) and
    the states of its accepted steps after it, rebuilt as proposal / norm
    (the very division the step made). Each retained step then takes the
    last fresh row of its chain, a running maximum of row indices, since a
    rejected step repeats its state bit for bit. The blocks, their steps
    and the retained steps of each are those of noise_blocks(cfg). The
    samples go into out, a (chains, steps, 2) float64 array, when one is
    given.

    The random numbers come from draws, an iterator over the items of
    chain_draws(cfg, tm.n, beta), which is the default (cli draws them in
    another process, one block ahead, and formats the samples there while
    the chains run on): the start vectors, then one (normals, thresholds)
    tuple per block. An item that is not such a tuple, or an array of the
    wrong shape or dtype, or one that is not writable, is a UsageError
    naming it, as is such an out. The engine writes over the normals and
    thresholds it takes. Block k + 1 is taken only after block k is
    evaluated, so when the engine takes block k (k = the block count: the
    item after the last block), every retained step before block k is
    final in out. (The BLAS kernel behind the dot
    depends on the chain count, gemv for one chain and gemm for more, so a
    chain's states can differ in the last bit between runs with different
    chain counts.)
    """
    if not 0 <= beta < np.inf:
        raise UsageError(f"beta must be finite and >= 0, got {beta}")
    n = tm.n
    n_chains = cfg.chain_count
    e_shift = tm.energies - tm.energies[0]  # avoids underflow at large beta
    if not np.all(np.isfinite(e_shift)):
        raise ConfigurationError("non-finite energies in truncated model")
    forms = np.column_stack([np.ones(2 * n), np.repeat(e_shift, 2)])

    shape = (n_chains, cfg.steps_per_chain, 2)
    samples = _checked(np.empty(shape) if out is None else out, shape, "out")
    draws = chain_draws(cfg, n, beta) if draws is None else draws
    c = _checked(next(draws, None), (n_chains, 2 * n), "draws' start").copy()
    norm2_e = (c * c) @ forms
    c /= np.sqrt(norm2_e[:, :1])
    energy = norm2_e[:, 1] / norm2_e[:, 0]
    sigma = np.full((n_chains, 1), _PROPOSAL_SCALE)

    blocks = noise_blocks(cfg)
    accepts = np.empty((blocks[0][1], n_chains), dtype=bool)
    entering = np.empty((n_chains, 2 * n))  # the state entering the first retained step
    sq, r = np.empty((n_chains, 2 * n)), np.empty((n_chains, 2))
    norm2, e_sum = r[:, 0], r[:, 1]
    e, de = np.empty(n_chains), np.empty(n_chains)
    accepted = np.zeros(n_chains, dtype=np.int64)
    window_accepted = np.zeros(n_chains, dtype=np.int64)
    # cuts between tuning segments: every tuning boundary and the end of burn-in
    cuts = [*range(_TUNE_WINDOW, cfg.burn_in + 1, _TUNE_WINDOW), cfg.burn_in]
    # the step's ufuncs are bound to locals and take their outputs
    # positionally: the lookups and keyword parsing they skip cost about
    # 0.6 us of a 6 us step
    add, multiply, dot, divide, subtract, less, sqrt, copyto = (
        np.add, np.multiply, np.dot, np.divide, np.subtract, np.less, np.sqrt, np.copyto)
    for k, (start, block, span) in enumerate(blocks):
        item = next(draws, None)
        if not (isinstance(item, tuple) and len(item) == 2):
            got = f"a {len(item)}-tuple" if isinstance(item, tuple) else type(item).__name__
            raise UsageError(f"draws' block {k} must be a (normals, thresholds) tuple of arrays "
                             f"of shape {(block, n_chains, 2 * n)} and {(block, n_chains)}, "
                             f"got {got}")
        noise = _checked(item[0], (block, n_chains, 2 * n), f"draws' block {k} normals")
        thresholds = _checked(item[1], (block, n_chains), f"draws' block {k} thresholds")
        first = block - (span[1] - span[0]) if span else block  # the first retained step
        bounds = sorted({0, block, *(cut - start for cut in cuts if start < cut < start + block)})
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            noise[lo:hi] *= sigma
            if lo == first:
                np.copyto(entering, c)
            with np.errstate(invalid="ignore", divide="ignore"):
                for prop, t, root, acc, acc_col in zip(
                        noise[lo:hi], thresholds[lo:hi], thresholds[lo:hi, :, None],
                        accepts[lo:hi], accepts[lo:hi, :, None]):
                    add(c, prop, prop)
                    multiply(prop, prop, sq)
                    dot(sq, forms, r)
                    divide(e_sum, norm2, e)
                    less(subtract(e, energy, de), t, acc)
                    sqrt(norm2, t)
                    divide(prop, root, out=c, where=acc_col)
                    copyto(energy, e, where=acc)
            if start + lo >= cfg.burn_in:
                continue
            window_accepted += accepts[lo:hi].sum(axis=0)
            if (start + hi) % _TUNE_WINDOW == 0:
                # tune sigma toward acceptance in [0.3, 0.5]; frozen after burn-in
                rate = window_accepted / _TUNE_WINDOW
                tune = (rate < 0.3) | (rate > 0.5)
                sigma[tune, 0] = np.clip(sigma[tune, 0] * np.exp(rate[tune] - 0.4), 1e-4, 10.0)
                window_accepted[:] = 0
        if span:
            accepted += accepts[first:block].sum(axis=0)
            fresh = accepts[first:block].copy()
            fresh[0] = True
            steps, chains = np.nonzero(fresh)  # step-major
            states = noise[first + steps, chains]
            states /= thresholds[first + steps, chains, None]
            np.copyto(states[:n_chains], entering, where=~accepts[first, :, None])
            q, p = tm._real_expectations(states)
            # each retained step takes the last fresh row of its chain
            rows = np.zeros(fresh.shape, dtype=np.int64)
            rows[fresh] = np.arange(len(states))
            rows = np.maximum.accumulate(rows).T
            samples[:, slice(*span), 0], samples[:, slice(*span), 1] = q[rows], p[rows]
    next(draws, None)  # the item after the last block: every block is spent

    return SampleRun(
        beta=beta,
        chain_count=cfg.chain_count,
        steps_per_chain=cfg.steps_per_chain,
        burn_in=cfg.burn_in,
        seed=cfg.seed,
        samples=samples,
        chain_acceptance=accepted / cfg.steps_per_chain,
        chain_iat=np.array([integrated_autocorrelation(s[:, 0]) for s in samples]),
        proposal_scales=sigma[:, 0],
    )


def _weight_moments(s: np.ndarray):
    """(E[w], E[w w^T]) of the moduli w on the flat simplex tilted by
    exp(-s . w), for shifts s >= 0 with min s = 0.

    The tilted volume is the Bromwich integral
    D(s) = (1 / 2 pi i) int e^z prod_k a_k dz with a_k = 1 / (z + s_k), whose
    poles -s_k lie at or left of 0; E[w_k] and E[w_k w_l] put a_k and
    (1 + delta_kl) a_k a_l under the same integral, over D. The contour is
    the parabola z = z* (1 + i t)^2 through the saddle z* of
    e^z prod_k a_k (sum_k a_k(z*) = 1), which puts every pole at Im t = 1,
    and the integrals are trapezoid sums in t with step
    2 pi / (_CONTOUR_TAIL + 3 z*) out to where Re z = -_CONTOUR_TAIL
    (Weideman & Trefethen, Math. Comp. 76, 2007). The terms come from their
    logarithms, taken relative to the saddle's and then to the largest, so
    no product of the a_k under- or overflows at any finite scale of s.
    """
    # Newton on the concave 1 / sum_k a_k(z), from z = 1 <= z*, rises to
    # z* without overshoot; a poor z* only costs digits, which the sum
    # rules of exact_moments catch
    z = 1.0
    for _ in range(100):
        inv = 1.0 / (z + s)
        total = inv.sum()
        step = (total - 1.0) * total / (inv @ inv)
        z += step
        if abs(step) <= 1e-14 * z:
            break
    h = 2.0 * np.pi / (_CONTOUR_TAIL + 3.0 * z)
    t = h * np.arange(int(np.sqrt(_CONTOUR_TAIL / z + 1.0) / h) + 1)
    u = 1.0 + 1j * t
    nodes = z * u * u
    a = 1.0 / (nodes[:, None] + s)  # (M, N)
    # log prod_k a_k relative to its value at z*: -sum_k log(1 + x_k) with
    # x_k = (z - z*) / (z* + s_k), in real and imaginary parts that keep the
    # digits of a tiny x_k (a sum of plain log a_k would lose about
    # N log(s_max) ulps: 1e-11 in the sum rules at N = 400, beta = 1e300)
    x = (nodes - z)[:, None] / (z + s)
    log_b = (nodes + np.log(u) - 0.5 * np.log1p(2.0 * x.real + abs(x) ** 2).sum(axis=1)
             - 1j * np.arctan2(x.imag, 1.0 + x.real).sum(axis=1))
    b = np.exp(log_b - log_b.real.max())
    b[0] *= 0.5  # t < 0 is the conjugate half
    ba = b[:, None] * a
    d = b.real.sum()
    # Re(a^T diag(b) a) as one real product
    eww = _serial_product(np.concatenate([ba.real, -ba.imag]).T,
                          np.concatenate([a.real, a.imag])) / d
    eww[np.diag_indices_from(eww)] *= 2.0
    return ba.real.sum(axis=0) / d, eww


def exact_moments(tm: TruncatedModel, beta: float) -> dict:
    """Exact means and variances of (<q>, <p>) under the sampled measure.

    Under exp(-beta E(c)) on the unit sphere the moduli w_k = |c_k|^2 follow
    the flat simplex density tilted by exp(-sum_k s_k w_k),
    s = beta (E - min E), and the phases are independent and uniform;
    _weight_moments gives E[w] and E[w w^T] by one contour sum.

    Averaging the phases out of <q> = sum_kl Q_kl conj(c_k) c_l gives
    E<q> = sum_k Q_kk E[w_k] and
    E<q>^2 = sum_kl Q_kk Q_ll E[w_k w_l] + sum_{k != l} Q_kl^2 E[w_k w_l];
    <p> is the same with A, which has no diagonal, so E<p> = 0. Any N, any
    potential: Q's diagonal (nonzero in tilted wells) is included.

    Raises SolverError naming beta when some beta (E_k - min E) overflows,
    or when the moments miss the sum rules sum_k E[w_k] = 1 or
    sum_l E[w_k w_l] = E[w_k] by more than 1e-10.
    """
    if not 0 <= beta < np.inf:
        raise UsageError(f"beta must be finite and >= 0, got {beta}")
    with np.errstate(over="ignore"):
        s = beta * (tm.energies - tm.energies.min())
    if not np.isfinite(s).all():
        raise SolverError(f"exact moments at beta = {beta}: beta (E - min E) overflows")
    ew, eww = _weight_moments(s)
    miss = np.max(np.abs(np.append(eww.sum(axis=1) - ew, ew.sum() - 1.0)))
    if not miss <= 1e-10:
        raise SolverError(f"exact moments at beta = {beta}: the weight moments "
                          f"miss their sum rules by {miss:.3g}")

    q = 0.5 * (tm.q_matrix + tm.q_matrix.T)
    a = 0.5 * (tm.p_matrix_imag - tm.p_matrix_imag.T)
    off_q = q - np.diag(np.diag(q))
    # sum_k w_k = 1: the diagonal taken relative to Q_00 gives the same
    # variance without cancelling against Q_00^2 when w_0 is near 1
    dq = np.diag(q) - q[0, 0]
    mean_dq = dq @ ew
    return {
        "mean_q": float(q[0, 0] + mean_dq),
        "mean_p": 0.0,
        "var_q": float(dq @ eww @ dq - mean_dq**2 + np.sum(off_q**2 * eww)),
        "var_p": float(np.sum(a**2 * eww)),
    }


@dataclass(frozen=True)
class CanonicalAtoms:
    """Point atoms (weight, q_k) of the canonical expectation distribution."""

    weights: np.ndarray
    positions: np.ndarray
    z: float

    def dispersion(self) -> float:
        mean = float(np.sum(self.weights * self.positions))
        second = float(np.sum(self.weights * self.positions**2))
        return float(np.sqrt(max(second - mean**2, 0.0)))


def canonical_atoms(tm: TruncatedModel, beta: float) -> CanonicalAtoms:
    """Boltzmann-weighted atoms (e^(-beta E_k)/Z, <phi_k, q phi_k>) of the
    k_max = tm.n levels of a truncated model.

    Requires e^(-beta (E_kmax - E_1)) < 1e-10 so the truncation remainder
    is negligible, and raises ConfigurationError naming k_max otherwise.
    """
    if not 0 < beta < np.inf:
        raise UsageError(f"beta must be positive and finite, got {beta}")
    energies = tm.energies
    rel = np.exp(-beta * (energies - energies[0]))
    if rel[-1] >= 1e-10:
        raise ConfigurationError(
            f"k_max={tm.n} too small at beta={beta}: top-level weight "
            f"{rel[-1]:.2e} >= 1e-10; increase k_max"
        )
    weights = rel / rel.sum()
    z = float(np.exp(-beta * energies[0]) * rel.sum())
    return CanonicalAtoms(weights, np.diag(tm.q_matrix), z)

