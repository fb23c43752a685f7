"""Monte Carlo sampling of the Gibbs measure over normalized wave functions.

On a truncated eigenbasis of size N a state is a complex coefficient
vector c on the unit sphere, with energy E(c) = sum_k |c_k|^2 E_k. A
random-walk Metropolis chain proposes c' = normalize(c + sigma * z) with
isotropic complex Gaussian z; the proposal density depends only on the
angle between c and c', hence is symmetric, and the acceptance rule
min(1, exp(-beta dE)) leaves exp(-beta E(c)) on the sphere invariant.

Each retained step records the expectations (<q>, <p>) as quadratic forms
c^dag Q c and c^dag P c. Chains are independently seeded and bit-for-bit
reproducible from (seed, chain index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .lattice import GridSpec, ModelParams, assemble_hamiltonian, make_grid, trapezoid_weights
from .spectra import lowest_eigenpairs


@dataclass(frozen=True)
class TruncatedModel:
    """Eigenbasis truncation: energies plus position/momentum quadratic forms.

    The momentum matrix is purely imaginary for real eigenfunctions and is
    stored as its real antisymmetric part A with P = i * A.
    """

    energies: np.ndarray
    q_matrix: np.ndarray
    p_matrix_imag: np.ndarray

    @property
    def n(self) -> int:
        return len(self.energies)

    def expectations(self, c: np.ndarray):
        """(<q>, <p>) for unit-norm coefficient vectors stacked on the last axis.

        For c of shape (..., N) both results have shape (...).
        """
        cc = c.conj()
        q = np.real(np.einsum("...k,kl,...l->...", cc, self.q_matrix, c))
        p = np.real(1j * np.einsum("...k,kl,...l->...", cc, self.p_matrix_imag, c))
        return q, p


def build_truncated_model(mp: ModelParams, n_basis: int,
                          grid: GridSpec | None = None) -> TruncatedModel:
    """Project q and p onto the span of the lowest n_basis eigenstates."""
    if n_basis < 2:
        raise UsageError(f"n_basis must be >= 2, got {n_basis}")
    from .constrain import default_grid  # local import avoids a cycle

    grid = grid or default_grid(mp)
    op = assemble_hamiltonian(mp, grid)
    pairs = lowest_eigenpairs(op, n_basis)
    x, dx = make_grid(grid)
    wts = trapezoid_weights(grid)
    phis = np.stack([p.wavefunction for p in pairs])  # (N, n_grid)

    q_matrix = (phis * wts * x) @ phis.T
    q_matrix = 0.5 * (q_matrix + q_matrix.T)

    dphis = np.zeros_like(phis)
    dphis[:, 1:-1] = (phis[:, 2:] - phis[:, :-2]) / (2.0 * dx)
    # <phi_k, p phi_l> = -i hbar <phi_k, phi_l'> = i * A_kl
    a = -mp.hbar * (phis * wts) @ dphis.T
    a = 0.5 * (a - a.T)

    energies = np.array([p.energy for p in pairs])
    return TruncatedModel(energies, q_matrix, a)


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
    acceptance_rate: float
    integrated_autocorrelation_time: float
    proposal_scales: np.ndarray
    coefficients: np.ndarray | None = None  # (chains, steps, N) when retained

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
    var = np.dot(x, x) / n
    if var == 0:
        return 1.0
    # FFT autocorrelation
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n] / (var * n)
    tau = 1.0
    for m in range(1, n):
        tau += 2.0 * acf[m]
        if m >= c * tau:
            break
    return float(max(tau, 1.0))


_TUNE_WINDOW = 200
_NOISE_BLOCK = 4096


def sample_ensemble(tm: TruncatedModel, beta: float, cfg: ChainConfig) -> SampleRun:
    """Run independent Metropolis chains in lockstep and merge their samples.

    Each chain draws all its randomness from a private generator seeded by
    (seed, chain index), in blocks; the vectorization across chains does not
    change any chain's trajectory.
    """
    if beta < 0:
        raise UsageError(f"beta must be >= 0, got {beta}")
    n = tm.n
    n_chains = cfg.chain_count
    e_shift = tm.energies - tm.energies[0]  # avoids underflow at large beta
    if not np.all(np.isfinite(e_shift)):
        raise ConfigurationError("non-finite energies in truncated model")
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
            for i in range(n_chains)]

    c = np.stack([r.standard_normal(2 * n).view(np.complex128) for r in rngs])
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    energy = (np.abs(c) ** 2) @ e_shift
    sigma = np.full(n_chains, cfg.proposal_scale)

    samples = np.empty((n_chains, cfg.steps_per_chain, 2))
    coeffs = (np.empty((n_chains, cfg.steps_per_chain, n), dtype=np.complex128)
              if cfg.keep_coefficients else None)

    accepted = np.zeros(n_chains, dtype=np.int64)
    window_accepted = np.zeros(n_chains, dtype=np.int64)
    total = cfg.burn_in + cfg.steps_per_chain
    # states of the current noise block; (<q>, <p>) are evaluated once per block
    kept = np.empty((n_chains, min(_NOISE_BLOCK, total), n), dtype=np.complex128)
    for start in range(0, total, _NOISE_BLOCK):
        block = min(_NOISE_BLOCK, total - start)
        noise = np.stack([r.standard_normal((block, 2 * n)).view(np.complex128)
                          for r in rngs])
        uniforms = np.stack([r.random(block) for r in rngs])
        for j in range(block):
            prop = c + sigma[:, None] * noise[:, j]
            norms = np.sqrt(np.sum(prop.real**2 + prop.imag**2, axis=1))
            bad = norms <= 1e-12
            if np.any(bad):  # probability ~0; redraw from the owning chain
                for i in np.flatnonzero(bad):
                    while norms[i] <= 1e-12:
                        prop[i] = c[i] + sigma[i] * rngs[i].standard_normal(
                            2 * n).view(np.complex128)
                        norms[i] = np.linalg.norm(prop[i])
            prop /= norms[:, None]
            e_prop = (prop.real**2 + prop.imag**2) @ e_shift
            accept = uniforms[:, j] < np.exp(-beta * np.maximum(e_prop - energy, 0.0))
            c[accept] = prop[accept]
            energy[accept] = e_prop[accept]
            window_accepted += accept
            if start + j < cfg.burn_in:
                # tune sigma toward acceptance in [0.3, 0.5]; frozen afterwards
                if (start + j + 1) % _TUNE_WINDOW == 0:
                    rate = window_accepted / _TUNE_WINDOW
                    tune = (rate < 0.3) | (rate > 0.5)
                    sigma[tune] = np.clip(
                        sigma[tune] * np.exp(rate[tune] - 0.4), 1e-4, 10.0)
                    window_accepted[:] = 0
            else:
                accepted += accept
                kept[:, j] = c
        first = max(cfg.burn_in - start, 0)
        if first < block:
            retained = kept[:, first:block]
            lo, hi = start + first - cfg.burn_in, start + block - cfg.burn_in
            samples[:, lo:hi, 0], samples[:, lo:hi, 1] = tm.expectations(retained)
            if coeffs is not None:
                coeffs[:, lo:hi] = retained

    iat = float(np.mean([integrated_autocorrelation(s[:, 0]) for s in samples]))
    return SampleRun(
        beta=beta,
        chain_count=cfg.chain_count,
        steps_per_chain=cfg.steps_per_chain,
        burn_in=cfg.burn_in,
        seed=cfg.seed,
        samples=samples,
        acceptance_rate=float((accepted / cfg.steps_per_chain).mean()),
        integrated_autocorrelation_time=iat,
        proposal_scales=sigma,
        coefficients=coeffs,
    )


def oracle_two_level(e1: float, e2: float, q_matrix, beta: float,
                     p_matrix_imag=None, n_w: int = 400, n_theta: int = 512) -> dict:
    """Exact moments of (<q>, <p>) for a two-level model, by quadrature.

    The sphere of C^2 is parametrized by the excited-level weight
    w = |c_2|^2 (uniform on [0, 1] under the round measure) and the
    relative phase theta (uniform); the thermal density is
    exp(-beta (e2 - e1) w). Gauss-Legendre in w and a trapezoid rule in
    theta (spectrally accurate for the periodic integrand) give moments
    to ~1e-10.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    if q_matrix.shape != (2, 2):
        raise UsageError("oracle_two_level requires a 2x2 position matrix")
    nodes, wts = np.polynomial.legendre.leggauss(n_w)
    w = 0.5 * (nodes + 1.0)
    ww = 0.5 * wts
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)

    dens = np.exp(-beta * (e2 - e1) * w)
    z = np.sum(dens * ww)

    w2, t2 = np.meshgrid(w, theta, indexing="ij")
    cross = 2.0 * np.sqrt(w2 * (1.0 - w2))
    qv = q_matrix[0, 0] * (1 - w2) + q_matrix[1, 1] * w2 + q_matrix[0, 1] * cross * np.cos(t2)
    if p_matrix_imag is not None:
        a12 = float(np.asarray(p_matrix_imag)[0, 1])
        pv = -a12 * cross * np.sin(t2)
    else:
        pv = np.zeros_like(qv)

    weight = (dens * ww)[:, None] / (z * n_theta)

    def mom(arr, k):
        return float(np.sum(weight * arr**k))

    mean_q, mean_p = mom(qv, 1), mom(pv, 1)
    return {
        "mean_q": mean_q,
        "mean_p": mean_p,
        "var_q": mom(qv, 2) - mean_q**2,
        "var_p": mom(pv, 2) - mean_p**2,
    }


def unitary_flow_check(run: SampleRun, tm: TruncatedModel, t: float,
                       hbar: float = 1.0, n_batches: int = 32) -> dict:
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
    q_new, p_new = tm.expectations(run.coefficients * phases)

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
