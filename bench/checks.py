"""Correctness checks for the outputs of one benchmark op, and the exact
oracles they compare against.

Every check returns a ``Check`` record (name, measured value, limit,
passed). The oracles and estimators here are the benchmark's own copies,
so a change to the library cannot move the yardstick it is measured by.

Exact sampler moments. On an N-level truncation the thermal measure on the
unit sphere makes the moduli w_k = |c_k|^2 a flat simplex density tilted by
exp(-beta <E, w>), with independent uniform phases. For a Hermitian form M
with zero diagonal, <M> has mean 0 and

    Var<M> = sum_{k<l} 2 |M_kl|^2 E[w_k w_l],
    E[w_k w_l] = f[s, s_k, s_l] / f[s],   f = exp(-x),  s = beta (E - E_0),

where f[...] are confluent divided differences. By Opitz's theorem f[x_0..x_n]
is entry [0, n] of f(J), J the upper bidiagonal matrix with the nodes on its
diagonal and ones above it (McCurdy, Ng & Parlett, Math. Comp. 43, 1984).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

REFERENCE = Path(__file__).resolve().parent / "reference.json"

N_SE = 5.0                  # sampler moments: allowed distance in standard errors
DOUBLET_REL_TOL = 5e-4      # doublet against the independent reference values
ENVELOPE_TOL = 1e-6         # secant slope of V outside [-lambda_i, -lambda_i+1]
ROOT_TOL_SCALE = 1e-8       # the library's constraint tolerance, 1e-8 * max(1, |q|)
EIGEN_ABS_TOL = 1e-9        # eigenvalue agreement expected between two solves


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: str
    passed: bool


def load_reference(path=REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- exact oracle -------------------------------------------------------------


def divided_difference_exp_neg(nodes) -> float:
    """f[x_0, ..., x_n] for f(x) = exp(-x); repeated nodes are allowed."""
    nodes = np.asarray(nodes, dtype=float)
    j = np.diag(nodes) + np.diag(np.ones(len(nodes) - 1), 1)
    return float(expm(-j)[0, -1])


def exact_moments(energies, q_matrix, p_matrix_imag, beta: float) -> dict:
    """Exact means and variances of <q> and <p> on the truncated sphere."""
    energies = np.asarray(energies, dtype=float)
    forms = {"q": np.asarray(q_matrix, dtype=float),
             "p": np.asarray(p_matrix_imag, dtype=float)}
    for name, m in forms.items():
        if np.max(np.abs(np.diag(m))) > 1e-9 * max(1.0, np.max(np.abs(m))):
            raise ValueError(f"{name} form has a nonzero diagonal")
    s = beta * (energies - energies[0])
    z = divided_difference_exp_neg(s)
    n = len(s)
    ew = np.zeros((n, n))
    for k in range(n):
        for l in range(k + 1, n):
            ew[k, l] = divided_difference_exp_neg(np.r_[s, s[k], s[l]]) / z
    out = {}
    for name, m in forms.items():
        out[f"mean_{name}"] = 0.0
        out[f"var_{name}"] = float(np.sum(2.0 * m**2 * ew))
    return out


# --- estimators ----------------------------------------------------------------


def integrated_autocorrelation(series, c: float = 6.0) -> float:
    """Integrated autocorrelation time with Sokal's adaptive window."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n] / (var * n)
    taus = 1.0 + 2.0 * np.cumsum(acf[1:])
    stop = np.flatnonzero(np.arange(1, n) >= c * taus)
    tau = taus[stop[0]] if len(stop) else taus[-1]
    return float(max(tau, 1.0))


def batch_se(series: np.ndarray, n_batches: int = 32) -> float:
    """Batch-means standard error of the mean, batches taken within chains."""
    chains, steps = series.shape
    per = max(steps // n_batches, 1)
    n_batches = steps // per
    means = series[:, : per * n_batches].reshape(chains, n_batches, per).mean(axis=2)
    return float(means.std(ddof=1) / np.sqrt(means.size))


def chain_stats(samples: np.ndarray) -> dict:
    """IAT of <q> per chain and the summed effective sample size."""
    taus = [integrated_autocorrelation(chain[:, 0]) for chain in samples]
    steps = samples.shape[1]
    return {"iat_q": taus, "ess_q": float(sum(steps / t for t in taus))}


# --- output readers ------------------------------------------------------------


def read_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#"))


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_samples(out: Path) -> np.ndarray:
    """samples.csv as an array (chains, steps, 2), ordered by (chain, step)."""
    data = read_csv(out / "samples.csv")
    chain, step = data[:, 2].astype(int), data[:, 3].astype(int)
    chains, steps = chain.max() + 1, step.max() + 1
    if len(data) != chains * steps:
        raise ValueError(f"{len(data)} rows for {chains} chains x {steps} steps")
    samples = np.empty((chains, steps, 2))
    samples[chain, step] = data[:, :2]
    return samples


def mass_tag(mass: float) -> str:
    return f"{mass:g}".replace(".", "p")


# --- checks per workload ---------------------------------------------------------


def _upper(name, value, limit) -> Check:
    return Check(name, float(value), f"<= {limit:g}", bool(value <= limit))


def check_veff(out: Path, ref: dict, masses, n_q: int) -> list:
    """Checks on ``wfgibbs veff``, per mass, against exact laws and ``ref``."""
    checks = []
    for mass in masses:
        tag = f"m{mass_tag(mass)}"
        q, v, lam = read_csv(out / f"veff_table_{tag}.csv").T
        meta = read_json(out / f"veff_table_{tag}.json")["meta"]
        rescaled = read_csv(out / f"veff_{tag}.csv")
        doublet = ref["doublet"][str(mass)]
        rel = max(abs(meta[k] - doublet[k]) / abs(doublet[k]) for k in ("e1", "e2", "d"))
        # Envelope law dV/dq = -lambda in its exact discrete form: lambda is
        # monotone, so each secant slope of V lies between -lambda at its ends.
        secant = np.diff(v) / np.diff(q)
        outside = np.maximum(-lam[:-1] - secant, secant + lam[1:])
        half_split = 0.5 * (meta["e2"] - meta["e1"])
        checks += [
            _upper(f"{tag}.doublet_rel_err", rel, DOUBLET_REL_TOL),
            _upper(f"{tag}.failed_points", n_q - len(q) + len(meta["failed_points"]), 0),
            Check(f"{tag}.min_second_difference", float(np.min(np.diff(v, 2))),
                  ">= -1e-9", bool(np.min(np.diff(v, 2)) >= -1e-9)),
            Check(f"{tag}.max_lambda_step", float(np.max(np.diff(lam))),
                  "< 0", bool(np.max(np.diff(lam)) < 0)),
            _upper(f"{tag}.envelope_bracket_violation", np.max(outside), ENVELOPE_TOL),
            _upper(f"{tag}.exact_above_arc", np.max(rescaled[:, 1] - rescaled[:, 2]),
                   EIGEN_ABS_TOL * max(1.0, np.max(np.abs(v))) / half_split),
        ]

        # A root accepted at tolerance tol_q puts lambda within tol_q |dlambda/dq|
        # of the exact multiplier; two such roots differ by at most twice that.
        # V_eff is stationary in lambda (Hellmann-Feynman), so its error is
        # second order and bounded by the eigenvalue precision.
        rq, rv, rl = np.asarray(ref["veff_table"][str(mass)]).T
        if len(rq) != len(q):
            checks.append(Check(f"{tag}.reference_rows", float(len(q)), f"== {len(rq)}", False))
            continue
        tol_q = ROOT_TOL_SCALE * np.maximum(1.0, np.abs(rq))
        lam_bound = 4.0 * tol_q * np.abs(np.gradient(rl, rq)) + 1e-12
        v_bound = tol_q * lam_bound + EIGEN_ABS_TOL * np.maximum(1.0, np.abs(rv))
        checks += [
            _upper(f"{tag}.reference_q_err", np.max(np.abs(q - rq)), 1e-9),
            _upper(f"{tag}.reference_lambda_excess", np.max(np.abs(lam - rl) / lam_bound), 1.0),
            _upper(f"{tag}.reference_v_excess", np.max(np.abs(v - rv) / v_bound), 1.0),
        ]
    return checks


def check_fluct(out: Path, mass: float, n_t: int) -> list:
    """Checks on ``wfgibbs fluct``: delta q / d against T and the two-state law."""
    t, dq, restricted, mean_q = read_csv(out / f"fluct_m{mass_tag(mass)}.csv").T
    universal = read_csv(out / "fluct_two_state.csv")[:, 1]
    d = read_json(out / "fluct.json")[str(mass)]["d"]
    cold = abs(dq[0] - np.sqrt(t[0])) / np.sqrt(t[0])
    return [
        Check("rows", float(len(t)), f"== {n_t}", len(t) == n_t),
        Check("min_rise", float(np.min(np.diff(dq))), "> 0", bool(np.min(np.diff(dq)) > 0)),
        _upper("max_abs_mean_q_over_d", np.max(np.abs(mean_q)) / d, 1e-6),
        _upper("cold_end_rel_err_vs_sqrt_t", cold, 0.05),
        _upper("restricted_vs_two_state", np.max(np.abs(restricted - universal)), 0.02),
    ]


def check_moments(samples: np.ndarray, exact: dict) -> list:
    """Sample means and variances of <q>, <p> within N_SE standard errors."""
    checks = []
    for i, name in enumerate(("q", "p")):
        series = samples[:, :, i]
        mean = float(series.mean())
        centered = (series - mean) ** 2
        for key, est, se in ((f"mean_{name}", mean, batch_se(series)),
                             (f"var_{name}", float(centered.mean()), batch_se(centered))):
            z = abs(est - exact[key]) / max(se, 1e-300)
            checks.append(_upper(f"{key}_z", z, N_SE))
    return checks


def check_sample(out: Path, model: dict, beta: float, chains: int, steps: int,
                 acceptance_range=None, tv_tolerance=None) -> tuple:
    """Checks on ``wfgibbs sample``; also returns the chain statistics."""
    samples = read_samples(out)
    run = read_json(out / "sample_run.json")
    exact = exact_moments(model["energies"], model["q_matrix"], model["p_matrix_imag"], beta)
    checks = [Check("shape", float(samples.shape[0] * samples.shape[1]),
                    f"== {chains} x {steps}", samples.shape[:2] == (chains, steps))]
    checks += check_moments(samples, exact)
    if acceptance_range is not None:
        lo, hi = acceptance_range
        acc = run["acceptance_rate"]
        checks.append(Check("acceptance", acc, f"in [{lo}, {hi}]", bool(lo <= acc <= hi)))
    if tv_tolerance is not None:
        checks.append(_upper("tv_distance", run["validation"]["tv_distance"], tv_tolerance))
    return checks, {**chain_stats(samples), "acceptance": run["acceptance_rate"]}
