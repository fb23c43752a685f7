"""Monte Carlo sampling of the Gibbs measure over normalized wave functions.

On a truncated eigenbasis of size N a state is a complex coefficient
vector c on the unit sphere, with energy E(c) = sum_k |c_k|^2 E_k. A
random-walk Metropolis chain proposes c' = normalize(c + sigma * z) with
isotropic complex Gaussian z; the proposal density depends only on the
angle between c and c', hence is symmetric, and the acceptance rule
min(1, exp(-beta dE)) leaves exp(-beta E(c)) on the sphere invariant.

Each retained step records the expectations (<q>, <p>) as quadratic forms
c^dag Q c and c^dag P c. Chains are independently seeded from
(seed, chain index), and a run is bit-for-bit reproducible for a given
seed and chain count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, UsageError
from .lattice import GridSpec, ModelParams, assemble_hamiltonian
from .spectra import lowest_eigenpairs
from .twostate import TwoStateModel, two_state_from_pairs

_TUNE_WINDOW = 200  # burn-in steps per proposal-scale update
_NOISE_BLOCK = 4096  # steps per block of random draws
_FORM_ROWS = 1024  # coefficient vectors per gemm in TruncatedModel.expectations


@dataclass(frozen=True)
class TruncatedModel:
    """Eigenbasis truncation: energies plus position/momentum quadratic forms.

    The momentum matrix is purely imaginary for real eigenfunctions and is
    stored as its real antisymmetric part A with P = i * A.
    """

    energies: np.ndarray
    q_matrix: np.ndarray
    p_matrix_imag: np.ndarray
    # the lowest doublet of the levels; None for a model given as matrices
    doublet: TwoStateModel | None = None

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

    def expectations(self, c: np.ndarray):
        """(<q>, <p>) for unit-norm coefficient vectors stacked on the last axis.

        For c of shape (..., N) both results have shape (...).
        """
        c = np.ascontiguousarray(c, dtype=np.complex128)
        q, p = self._real_expectations(c.view(np.float64).reshape(-1, 2 * self.n))
        return q.reshape(c.shape[:-1])[()], p.reshape(c.shape[:-1])[()]

    def _real_expectations(self, x: np.ndarray):
        """(<q>, <p>) for the rows of x, float64 views (m, 2N) of coefficient
        vectors: one gemm against the stacked forms and two row dots per
        chunk of _FORM_ROWS rows, so memory stays bounded for any m."""
        n2 = 2 * self.n
        q, p = np.empty(len(x)), np.empty(len(x))
        for lo in range(0, len(x), _FORM_ROWS):
            rows = x[lo:lo + _FORM_ROWS]
            y = rows @ self._forms
            q[lo:lo + len(rows)] = np.einsum("ij,ij->i", rows, y[:, :n2])
            p[lo:lo + len(rows)] = np.einsum("ij,ij->i", rows, y[:, n2:])
        return q, p


def build_truncated_model(mp: ModelParams, n_basis: int, grid: GridSpec) -> TruncatedModel:
    """Project q and p onto the span of the lowest n_basis eigenstates,
    whose two lowest give the model its doublet."""
    if n_basis < 2:
        raise UsageError(f"n_basis must be >= 2, got {n_basis}")
    op = assemble_hamiltonian(mp, grid)
    pairs = lowest_eigenpairs(op, n_basis)
    wts = grid.weights
    phis = np.stack([p.wavefunction for p in pairs])  # (N, n_grid)

    q_matrix = (phis * wts * grid.x) @ phis.T
    q_matrix = 0.5 * (q_matrix + q_matrix.T)

    dphis = np.zeros_like(phis)
    dphis[:, 1:-1] = (phis[:, 2:] - phis[:, :-2]) / (2.0 * grid.dx)
    # <phi_k, p phi_l> = -i hbar <phi_k, phi_l'> = i * A_kl
    a = -mp.hbar * (phis * wts) @ dphis.T
    a = 0.5 * (a - a.T)

    energies = np.array([p.energy for p in pairs])
    return TruncatedModel(energies, q_matrix, a, two_state_from_pairs(mp, grid, pairs))


@dataclass(frozen=True)
class ChainConfig:
    chain_count: int = 4
    steps_per_chain: int = 50_000
    burn_in: int = 5_000
    seed: int = 0
    proposal_scale: float = 0.3
    keep_coefficients: bool = False

    def __post_init__(self):
        if self.chain_count < 1 or self.steps_per_chain < 1:
            raise ConfigurationError("chain_count and steps_per_chain must be >= 1")
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be >= 0")
        if not np.isfinite(self.proposal_scale) or self.proposal_scale <= 0:
            raise ConfigurationError(f"bad proposal scale {self.proposal_scale}")


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
    coefficients: np.ndarray | None = None  # (chains, steps, N) when retained

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

    @property
    def p(self) -> np.ndarray:
        return self.samples[:, :, 1].ravel()

    def moment_summary(self, n_batches: int = 32) -> dict:
        """Means and variances of q and p with batch-means standard errors."""
        out = {}
        for name, series in (("q", self.samples[:, :, 0]), ("p", self.samples[:, :, 1])):
            flat = series.ravel()
            mean = float(flat.mean())
            out[f"mean_{name}"] = mean
            out[f"mean_{name}_se"] = _batch_se(series, n_batches)
            centered = (series - mean) ** 2
            out[f"var_{name}"] = float(centered.mean())
            out[f"var_{name}_se"] = _batch_se(centered, n_batches)
        return out


def _batch_se(series: np.ndarray, n_batches: int) -> float:
    """Batch-means standard error over per-chain batches."""
    chains, steps = series.shape
    per = steps // n_batches
    if per < 1:
        per, n_batches = 1, steps
    trimmed = series[:, : per * n_batches].reshape(chains, n_batches, per)
    means = trimmed.mean(axis=2).ravel()
    return float(means.std(ddof=1) / np.sqrt(len(means)))


def integrated_autocorrelation(series: np.ndarray, c: float = 6.0) -> float:
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
    # first m >= c taus[m], or the whole series
    taus = np.cumsum(np.r_[1.0, 2.0 * acf[1:]])
    window = np.flatnonzero(np.arange(1, n) >= c * taus[1:])
    return float(max(taus[window[0] + 1 if len(window) else n - 1], 1.0))


def sample_ensemble(tm: TruncatedModel, beta: float, cfg: ChainConfig) -> SampleRun:
    """Run independent Metropolis chains in lockstep and merge their samples.

    The states are held as the float64 view (chains, 2N) of the
    coefficients, real and imaginary parts interleaved. One step of every
    chain is a handful of numpy calls: prop = c + sigma z, then one matmul
    of prop**2 against F = [1, E - E0] (each energy repeated for the real
    and the imaginary part) gives |prop|^2 and sum_k (E_k - E0) |prop_k|^2,
    whose ratio is the energy of normalize(prop). The rule
    u < exp(-beta max(dE, 0)) is applied as dE < -log(u) / beta, with the
    thresholds taken per noise block (+inf at beta = 0, where every step is
    accepted). An exactly zero proposal, which has probability zero, gets
    the energy 0/0 = nan and is rejected. Sigma only changes at the tuning
    boundaries of burn-in, so the noise is scaled in place once per tuning
    segment, and acceptances are counted per segment.

    Each chain draws all its randomness from a private generator seeded by
    (seed, chain index), in blocks, so the chain count does not change any
    chain's random stream. (The BLAS kernel behind the matmul depends on
    the chain count, so a chain's states can differ in the last bit
    between runs with different chain counts.)
    """
    if beta < 0:
        raise UsageError(f"beta must be >= 0, got {beta}")
    n = tm.n
    n_chains = cfg.chain_count
    e_shift = tm.energies - tm.energies[0]  # avoids underflow at large beta
    if not np.all(np.isfinite(e_shift)):
        raise ConfigurationError("non-finite energies in truncated model")
    forms = np.column_stack([np.ones(2 * n), np.repeat(e_shift, 2)])
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
            for i in range(n_chains)]

    c = np.stack([rng.standard_normal(2 * n) for rng in rngs])
    norm2_e = (c * c) @ forms
    c /= np.sqrt(norm2_e[:, :1])
    energy = norm2_e[:, 1:] / norm2_e[:, :1]  # (chains, 1), like the buffers below
    sigma = np.full((n_chains, 1, 1), cfg.proposal_scale)

    samples = np.empty((n_chains, cfg.steps_per_chain, 2))
    coeffs = (np.empty((n_chains, cfg.steps_per_chain, n), dtype=np.complex128)
              if cfg.keep_coefficients else None)

    total = cfg.burn_in + cfg.steps_per_chain
    width = min(_NOISE_BLOCK, total)
    noise = np.empty((n_chains, width, 2 * n))
    uniforms = np.empty((n_chains, width))
    kept = np.empty((n_chains, width, 2 * n))  # retained states of the block
    accepts = np.empty((width, n_chains, 1), dtype=bool)
    prop, sq = np.empty((n_chains, 2 * n)), np.empty((n_chains, 2 * n))
    r, e, de = np.empty((n_chains, 2)), np.empty((n_chains, 1)), np.empty((n_chains, 1))
    norm2, e_sum, root = r[:, :1], r[:, 1:], np.empty((n_chains, 1))
    accepted = np.zeros(n_chains, dtype=np.int64)
    window_accepted = np.zeros(n_chains, dtype=np.int64)
    # cuts between tuning segments: every tuning boundary and the end of burn-in
    cuts = [*range(_TUNE_WINDOW, cfg.burn_in + 1, _TUNE_WINDOW), cfg.burn_in]
    for start in range(0, total, _NOISE_BLOCK):
        block = min(_NOISE_BLOCK, total - start)
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=noise[i, :block])
            rng.random(out=uniforms[i, :block])
        with np.errstate(divide="ignore"):  # u = 0 or beta = 0 gives t = +inf
            thresholds = (-np.log(uniforms[:, :block]) / beta).T[:, :, None]
        bounds = sorted({0, block, *(k - start for k in cuts if start < k < start + block)})
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            steps = noise[:, lo:hi]
            steps *= sigma
            keep = start + lo >= cfg.burn_in
            with np.errstate(invalid="ignore", divide="ignore"):
                for j, step, t, acc in zip(range(lo, hi), steps.transpose(1, 0, 2),
                                           thresholds[lo:hi], accepts[lo:hi]):
                    np.add(c, step, out=prop)
                    np.multiply(prop, prop, out=sq)
                    np.matmul(sq, forms, out=r)
                    np.divide(e_sum, norm2, out=e)
                    np.less(np.subtract(e, energy, out=de), t, out=acc)
                    np.divide(prop, np.sqrt(norm2, out=root), out=c, where=acc)
                    np.copyto(energy, e, where=acc)
                    if keep:
                        kept[:, j] = c
            if keep:
                continue
            window_accepted += accepts[lo:hi, :, 0].sum(axis=0)
            if (start + hi) % _TUNE_WINDOW == 0:
                # tune sigma toward acceptance in [0.3, 0.5]; frozen after burn-in
                rate = window_accepted / _TUNE_WINDOW
                tune = (rate < 0.3) | (rate > 0.5)
                sigma[tune, 0, 0] = np.clip(
                    sigma[tune, 0, 0] * np.exp(rate[tune] - 0.4), 1e-4, 10.0)
                window_accepted[:] = 0
        first = max(cfg.burn_in - start, 0)
        if first < block:
            accepted += accepts[first:block, :, 0].sum(axis=0)
            lo, hi = start + first - cfg.burn_in, start + block - cfg.burn_in
            for i in range(n_chains):
                retained = kept[i, first:block]
                samples[i, lo:hi, 0], samples[i, lo:hi, 1] = tm._real_expectations(retained)
                if coeffs is not None:
                    coeffs[i, lo:hi] = retained.view(np.complex128)

    return SampleRun(
        beta=beta,
        chain_count=cfg.chain_count,
        steps_per_chain=cfg.steps_per_chain,
        burn_in=cfg.burn_in,
        seed=cfg.seed,
        samples=samples,
        chain_acceptance=accepted / cfg.steps_per_chain,
        chain_iat=np.array([integrated_autocorrelation(s[:, 0]) for s in samples]),
        proposal_scales=sigma[:, 0, 0],
        coefficients=coeffs,
    )


def _exp_divided_differences(nodes: np.ndarray) -> np.ndarray:
    """f[x_0, ..., x_j], j < n, for f = exp(-x) and each row x of nodes (rows, n).

    Repeated (confluent) nodes are allowed. By Opitz's theorem the results
    are row 0 of exp(-J), J = diag(x) + U with U the ones above the
    diagonal (McCurdy, Ng & Parlett, Math. Comp. 43, 1984). Conjugating by
    diag((-1)^i) turns exp(-J) into e^-c exp(P) with P = c - diag(x) + U
    entrywise nonnegative (c = max x), so after scaling P by 2^-m, a Taylor
    sum and m squarings add only nonnegative terms and every entry keeps its
    relative accuracy. (A Pade expm is accurate only relative to the norm:
    at N = 24, beta = 0 its f[s] is wrong in every digit.)
    """
    rows, n = nodes.shape
    c = nodes.max()
    m = int(np.ceil(np.log2(c - nodes.min() + 1.0))) + 1  # entries of P 2^-m <= 1/2
    scale = 2.0 ** -m
    diag = (c - nodes)[:, :, None] * scale
    eye = np.eye(n)
    # Horner for sum_k (P 2^-m)^k / k!; the terms past k = n + 14 are below
    # 1e-16 of every entry. P 2^-m @ t is a bidiagonal product, O(n^2).
    t = np.broadcast_to(eye, (rows, n, n)).copy()
    for k in range(n + 14, 0, -1):
        pt = diag * t
        pt[:, :-1] += scale * t[:, 1:]
        pt /= k
        pt += eye
        t = pt
    t *= np.exp(-c * scale)
    for _ in range(m):
        t = t @ t
    return t[:, 0] * (-1.0) ** np.arange(n)


def exact_moments(tm: TruncatedModel, beta: float) -> dict:
    """Exact means and variances of (<q>, <p>) under the sampled measure.

    Under exp(-beta E(c)) on the unit sphere the moduli w_k = |c_k|^2 follow
    the flat simplex density tilted by exp(-sum_k s_k w_k), s = beta (E - E_0),
    and the phases are independent and uniform. With f = exp(-x) and its
    confluent divided differences f[...],

        E[w_k] = -f[s, s_k] / f[s],
        E[w_k w_l] = (1 + delta_kl) f[s, s_k, s_l] / f[s].

    Averaging the phases out of <q> = sum_kl Q_kl conj(c_k) c_l gives
    E<q> = sum_k Q_kk E[w_k] and
    E<q>^2 = sum_kl Q_kk Q_ll E[w_k w_l] + sum_{k != l} Q_kl^2 E[w_k w_l];
    <p> is the same with A, which has no diagonal, so E<p> = 0. Any N, any
    potential: Q's diagonal (nonzero in tilted wells) is included.
    """
    if beta < 0:
        raise UsageError(f"beta must be >= 0, got {beta}")
    n = tm.n
    s = beta * (tm.energies - tm.energies[0])
    k, l = np.triu_indices(n)
    # row i holds f[s], f[s, s_k], f[s, s_k, s_l] at columns n-1, n, n+1
    f = _exp_divided_differences(np.column_stack([np.tile(s, (len(k), 1)), s[k], s[l]]))
    z = f[0, n - 1]
    ew = -f[k == l, n] / z
    eww = np.empty((n, n))
    eww[k, l] = eww[l, k] = f[:, n + 1] / z
    eww[np.diag_indices(n)] *= 2.0

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


def unitary_flow_check(run: SampleRun, tm: TruncatedModel, t: float,
                       hbar: float, n_batches: int = 32) -> dict:
    """Compare sample moments before and after the free Schroedinger flow.

    Applies c_k -> exp(-i E_k t / hbar) c_k to every retained coefficient
    vector, recomputes (<q>, <p>), and reports the first four moments of
    both clouds. Invariance of the measure means agreement within Monte
    Carlo error.
    """
    if run.coefficients is None:
        raise UsageError("run did not retain coefficient vectors; "
                         "set keep_coefficients in the chain config")
    phases = np.exp(-1j * tm.energies * t / hbar)
    # one chain at a time: no copy of all retained coefficients at once
    q_new, p_new = np.array([tm.expectations(chain * phases)
                             for chain in run.coefficients]).transpose(1, 0, 2)

    report = {"t": t, "moments": {}}
    for name, before, after in (
        ("q", run.samples[:, :, 0], q_new),
        ("p", run.samples[:, :, 1], p_new),
    ):
        for order in (1, 2, 3, 4):
            b, a = before**order, after**order
            se = max(_batch_se(b, n_batches), _batch_se(a, n_batches))
            report["moments"][f"{name}^{order}"] = {
                "before": float(b.mean()),
                "after": float(a.mean()),
                "diff": float(a.mean() - b.mean()),
                "se": se,
            }
    return report
