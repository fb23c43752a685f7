"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REF = checks.load_reference()
HEADER = "# wfgibbs-csv v1\n# columns: {}\n"


def write_csv(path: Path, columns: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(HEADER.format(columns))
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def failing(found) -> set:
    return {c.name for c in found if not c.passed}


# --- spans -----------------------------------------------------------------------


def span(name, start, end, parent, **info):
    return [name, name.split(".")[0], start, end, parent, info]


SYNTHETIC = [
    span("cli.main", 0.0, 10.0, -1),
    span("constrain.effective_potential", 1.0, 9.0, 0, points=2, failed=0, grid_points=5),
    span("constrain.solve_lambda", 2.0, 4.0, 1),
    span("spectra.lowest_eigenpairs", 2.5, 3.5, 2, k=1),
    span("lattice.tilt_hamiltonian", 2.5, 2.75, 3),
    span("constrain.solve_lambda", 5.0, 8.0, 1),
    span("spectra.lowest_eigenpairs", 5.0, 7.0, 5, k=1),
    span("spectra.lowest_eigenpairs", 9.5, 9.75, 0, k=2),
]
ALL_WRAPPED = sorted({s[0] for s in SYNTHETIC} | {"lattice.make_grid"}
                     | set(spans.SOURCES.values()) - set(spans.LAYERS))


def test_self_times_subtract_direct_children():
    own = spans.self_times(SYNTHETIC)
    assert own == pytest.approx([10 - 8 - 0.25, 8 - 2 - 3, 2 - 1, 1 - 0.25, 0.25, 3 - 2, 2, 0.25])


def test_layer_metrics_on_synthetic_tree():
    m, missing = spans.layer_metrics(SYNTHETIC, ALL_WRAPPED)
    assert missing == []
    assert m["cli.self_s"] == pytest.approx(1.75)
    assert m["constrain.self_s"] == pytest.approx(3.0 + 1.0 + 1.0)
    assert m["spectra.self_s"] == pytest.approx(0.75 + 2.0 + 0.25)
    assert m["lattice.self_s"] == pytest.approx(0.25)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)
    assert (m["spectra.calls_k1"], m["spectra.calls_kN"], m["twostate.doublet_solves"]) == (2, 1, 1)
    assert m["constrain.points"] == 2
    assert m["constrain.eigensolves_per_point"] == pytest.approx(1.0)
    assert m["constrain.point_ms_p50"] == pytest.approx(2500.0)
    assert m["spectra.share"] == pytest.approx(0.3)


def test_deleted_name_is_not_observed():
    wrapped = [n for n in ALL_WRAPPED if n != "constrain.solve_lambda"]
    m, missing = spans.layer_metrics(SYNTHETIC, wrapped)
    assert missing == ["constrain.point_ms_p50", "constrain.point_ms_p90"]
    m, missing = spans.layer_metrics([], [])
    assert set(missing) == set(spans.SOURCES)
    assert m["constrain.points"] == 0 and m["sampling.chain_steps_per_s"] == 0.0


def test_tracer_wraps_public_names_and_restores(tmp_path):
    import wfgibbs
    from wfgibbs import cli

    def bound_functions():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name.startswith("wfgibbs") for attr, value in vars(mod).items()
                if callable(value)}

    before = bound_functions()
    config = tmp_path / "eig.json"
    config.write_text(json.dumps({
        "model": WORKLOADS["veff"].model,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 401}, "eig": {"k": 3}}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert wfgibbs.lowest_eigenpairs is not before[("wfgibbs", "lowest_eigenpairs")]
        assert cli.main(["eig", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        assert tracer.restore()
    assert bound_functions() == before
    assert all(not name.split(".", 1)[1].startswith("_") for name in tracer.wrapped)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][4] == -1
    solves = [s for s in tracer.spans if s[0] == "spectra.lowest_eigenpairs"]
    assert [s[5]["k"] for s in solves] == [3]


# --- workloads -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_config_is_valid_and_never_sets_threads(name, tmp_path):
    from wfgibbs import cli

    w = WORKLOADS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(w.config(7)))
    cfg = cli.load_config(path)
    assert cfg["seed"] == 7
    assert w.config(7) == w.config(7)
    assert "--threads" not in w.argv(path, tmp_path)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "veff"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "bench"]


# --- oracle and estimators -----------------------------------------------------------


def mpmath_variance(energies, off_matrix, beta):
    """Var of c^dag M c by confluent divided differences in 60-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 60

    def dd(nodes):
        xs = sorted(nodes)
        n = len(xs)
        t = [[mp.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            t[i][i] = mp.e ** (-xs[i])
        for width in range(1, n):
            for i in range(n - width):
                j = i + width
                if xs[i] == xs[j]:
                    t[i][j] = (-1) ** width * mp.e ** (-xs[i]) / mp.factorial(width)
                else:
                    t[i][j] = (t[i + 1][j] - t[i][j - 1]) / (xs[j] - xs[i])
        return t[0][n - 1]

    s = [mp.mpf(beta) * mp.mpf(float(e - energies[0])) for e in energies]
    z = dd(s)
    total = mp.mpf(0)
    for k in range(len(s)):
        for l in range(k + 1, len(s)):
            if off_matrix[k][l] != 0.0:
                total += 2 * mp.mpf(float(off_matrix[k][l]) ** 2) * dd(s + [s[k], s[l]]) / z
    return float(total)


@pytest.mark.parametrize("beta", [0.5, 2.0, 20.0])
def test_oracle_matches_mpmath(beta):
    model = REF["truncated_model"]["sample_harmonic"]
    exact = checks.exact_moments(model["energies"], model["q_matrix"],
                                 model["p_matrix_imag"], beta)
    reference = mpmath_variance(model["energies"], model["q_matrix"], beta)
    assert exact["var_q"] == pytest.approx(reference, rel=1e-6)


def test_oracle_at_the_harmonic_workload():
    model = REF["truncated_model"]["sample_harmonic"]
    exact = checks.exact_moments(model["energies"], model["q_matrix"],
                                 model["p_matrix_imag"], 2.0)
    assert exact["var_q"] == pytest.approx(0.27579891381811, abs=1e-12)


def test_iat_matches_the_library_estimator():
    from wfgibbs.sampling import integrated_autocorrelation

    rng = np.random.default_rng(3)
    x = np.zeros(20_000)
    for i in range(1, len(x)):
        x[i] = 0.9 * x[i - 1] + rng.standard_normal()
    assert checks.integrated_autocorrelation(x) == pytest.approx(
        integrated_autocorrelation(x), rel=1e-12)


# --- checks flag corrupted outputs ---------------------------------------------------


def write_veff(out: Path, mass: float, table=None, meta=None, rescaled_shift=0.0):
    tag = checks.mass_tag(mass)
    table = np.array(REF["veff_table"][str(mass)] if table is None else table)
    meta = {**REF["veff_meta"][str(mass)], "failed_points": [], **(meta or {})}
    q, v, lam = table.T
    mean, half = 0.5 * (meta["e1"] + meta["e2"]), 0.5 * (meta["e2"] - meta["e1"])
    u = q / meta["d"]
    write_csv(out / f"veff_table_m{tag}.csv", "q,v_eff,lambda", table)
    (out / f"veff_table_m{tag}.json").write_text(json.dumps({"meta": meta}))
    write_csv(out / f"veff_m{tag}.csv", "q_over_d,rescaled_exact,rescaled_two_state",
              zip(u, (v - mean) / half + rescaled_shift, -np.sqrt(1 - u**2)))


def veff_checks(tmp_path, **corrupt):
    for mass in (0.2, 1.5):
        write_veff(tmp_path, mass, **(corrupt if mass == 0.2 else {}))
    return checks.check_veff(tmp_path, REF, [0.2, 1.5], 81)


def test_veff_checks_pass_on_the_reference(tmp_path):
    assert failing(veff_checks(tmp_path)) == set()


@pytest.mark.parametrize("edit,flagged", [
    (lambda t: t.__setitem__((40, 2), t[40, 2] + 1e-6), "m0p2.reference_lambda_excess"),
    (lambda t: t.__setitem__((40, 1), t[40, 1] + 1e-6), "m0p2.reference_v_excess"),
    (lambda t: t.__setitem__((40, 1), t[40, 1] + 1e-3), "m0p2.min_second_difference"),
    (lambda t: t.__setitem__((40, 2), t[39, 2] + 1e-3), "m0p2.max_lambda_step"),
    (lambda t: t.__setitem__((40, 2), t[39, 2] - 0.1 * (t[39, 2] - t[40, 2])),
     "m0p2.envelope_bracket_violation"),
])
def test_veff_checks_flag_a_corrupted_table(tmp_path, edit, flagged):
    table = np.array(REF["veff_table"]["0.2"])
    edit(table)
    assert flagged in failing(veff_checks(tmp_path, table=table))


def test_veff_checks_flag_doublet_missing_point_and_arc(tmp_path):
    e1 = REF["veff_meta"]["0.2"]["e1"]
    assert "m0p2.doublet_rel_err" in failing(veff_checks(tmp_path, meta={"e1": e1 * 1.001}))
    table = np.array(REF["veff_table"]["0.2"])
    dropped = failing(veff_checks(tmp_path, table=np.delete(table, 40, axis=0)))
    assert {"m0p2.failed_points", "m0p2.reference_rows"} <= dropped
    assert "m0p2.exact_above_arc" in failing(veff_checks(tmp_path, rescaled_shift=1e-3))


def two_state_curve(t):
    """Universal rescaled two-state fluctuation curve on the unit arc."""
    u = np.linspace(-1.0, 1.0, 40_001)
    out = []
    for ti in t:
        w = np.exp((np.sqrt(1 - u**2) - 1) / ti)
        out.append(np.sqrt(np.trapezoid(w * u**2, u) / np.trapezoid(w, u)))
    return np.array(out)


def fluct_checks(tmp_path, dq_scale=1.0, mean_q=0.0, restricted_shift=0.0, swap=False):
    t = np.logspace(-2, 2, 60)
    curve = two_state_curve(t)
    dq = curve * dq_scale
    if swap:
        dq[[30, 31]] = dq[[31, 30]]
    d = 1.158
    write_csv(tmp_path / "fluct_m0p2.csv",
              "rescaled_temperature,delta_q_over_d,delta_q_over_d_restricted,mean_q",
              zip(t, dq, curve + restricted_shift, np.full(60, mean_q)))
    write_csv(tmp_path / "fluct_two_state.csv", "rescaled_temperature,delta_q_over_d",
              zip(t, curve))
    (tmp_path / "fluct.json").write_text(json.dumps({"0.2": {"d": d}}))
    return failing(checks.check_fluct(tmp_path, 0.2, 60))


def test_fluct_checks(tmp_path):
    assert fluct_checks(tmp_path) == set()
    assert fluct_checks(tmp_path, swap=True) == {"min_rise"}
    assert fluct_checks(tmp_path, mean_q=1e-5) == {"max_abs_mean_q_over_d"}
    assert fluct_checks(tmp_path, dq_scale=1.1) == {"cold_end_rel_err_vs_sqrt_t"}
    assert fluct_checks(tmp_path, restricted_shift=0.03) == {"restricted_vs_two_state"}


def exact_draws(model, beta, chains, steps, seed):
    """Independent draws of (<q>, <p>) from the exact tilted-simplex law."""
    rng = np.random.default_rng(seed)
    e = np.asarray(model["energies"])
    q, a = np.asarray(model["q_matrix"]), np.asarray(model["p_matrix_imag"])
    rates = beta * (e[1:] - e[0])
    kept, need = [], chains * steps
    while sum(len(k) for k in kept) < need:
        w = rng.exponential(1.0 / rates, size=(100_000, len(rates)))
        kept.append(w[w.sum(axis=1) <= 1.0])
    w = np.concatenate(kept)[:need]
    w = np.column_stack([1.0 - w.sum(axis=1), w])
    c = np.sqrt(w) * np.exp(2j * np.pi * rng.random(w.shape))
    qv = np.real(np.einsum("sk,kl,sl->s", c.conj(), q, c))
    pv = np.real(1j * np.einsum("sk,kl,sl->s", c.conj(), a, c))
    return np.stack([qv, pv], axis=1).reshape(chains, steps, 2)


def write_sample(out: Path, samples, acceptance=0.4, tv=0.01):
    chains, steps, _ = samples.shape
    chain, step = np.divmod(np.arange(chains * steps), steps)
    write_csv(out / "samples.csv", "q,p,chain,step",
              zip(samples[..., 0].ravel(), samples[..., 1].ravel(), chain, step))
    (out / "sample_run.json").write_text(json.dumps(
        {"acceptance_rate": acceptance, "validation": {"tv_distance": tv}}))


@pytest.mark.parametrize("name", ["sample_harmonic", "sample_dw"])
def test_sample_checks_flag_corrupted_samples(tmp_path, name):
    w = WORKLOADS[name]
    beta = w.section["beta"]
    samples = exact_draws(REF["truncated_model"][name], beta, 4, 4000, seed=5)

    def run(s, **kw):
        write_sample(tmp_path, s, **kw)
        found, stats = checks.check_sample(
            tmp_path, REF["truncated_model"][name], beta, 4, 4000,
            acceptance_range=(0.3, 0.5), tv_tolerance=0.05)
        return failing(found), stats

    assert run(samples)[0] == set()
    assert run(samples)[1]["ess_q"] == pytest.approx(16_000, rel=0.2)
    scaled = samples.copy()
    scaled[..., 0] *= 1.15
    assert run(scaled)[0] == {"var_q_z"}
    shifted = samples.copy()
    shifted[..., 1] += 0.05 * np.sqrt(samples[..., 1].var())
    assert run(shifted)[0] == {"mean_p_z"}
    assert run(samples, acceptance=0.6)[0] == {"acceptance"}
    assert run(samples, tv=0.07)[0] == {"tv_distance"}
    assert run(samples[:, :3000])[0] == {"shape"}
