import ast
import json
import math
import os
import re
import warnings
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wfgibbs import (
    ChainConfig,
    ConfigurationError,
    GridSpec,
    ModelParams,
    QuarticDoubleWell,
    SolverError,
    Tilted,
    TruncatedModel,
    UsageError,
    build_truncated_model,
    exact_moments,
    sample_ensemble,
)
from wfgibbs import sampling
from wfgibbs.cli import load_config
from wfgibbs.sampling import (_PROPOSAL_SCALE, _batch_se, _weight_moments,
                              integrated_autocorrelation)

from conftest import (double_well, exact_sphere_variance, expectations, harmonic,
                      retained_states, unitary_flow_check)
from test_acceptance import two_level_quadrature


@pytest.fixture(scope="module")
def tm8(harmonic_grid):
    return build_truncated_model(harmonic(), 8, harmonic_grid)


def test_truncated_model_harmonic_structure(harmonic_grid):
    tm = build_truncated_model(harmonic(), 6, harmonic_grid)
    assert np.allclose(tm.energies, np.arange(6) + 0.5, atol=1e-3)
    ladder = np.sqrt((np.arange(5) + 1) / 2.0)
    # eigenvector sign conventions leave the ladder signs arbitrary
    assert np.allclose(np.abs(np.diag(tm.q_matrix, 1)), ladder, atol=1e-4)
    off_ladder = tm.q_matrix - np.diag(np.diag(tm.q_matrix, 1), 1) - np.diag(
        np.diag(tm.q_matrix, -1), -1)
    assert np.max(np.abs(off_ladder)) < 1e-4
    assert np.allclose(tm.q_matrix, tm.q_matrix.T)
    assert np.allclose(tm.p_matrix_imag, -tm.p_matrix_imag.T)
    assert np.allclose(np.abs(np.diag(tm.p_matrix_imag, 1)), ladder, atol=1e-3)


@pytest.mark.parametrize("preset, n_basis, low, high", [
    ("harmonic_sample.json", 24, 1e-18, 1e-16),
    ("dw_m0.2.json", 24, 1e-22, 1e-20),
    ("dw_m0.2.json", 96, 1e-4, 1e-2),
])
def test_top_level_wall_weight_order_of_magnitude(preset, n_basis, low, high):
    # the top level's weight within 8 rows of the walls: measured
    # 4.0e-17 (harmonic, N = 24, top level 23.5 below V(+-10) = 50) and
    # 1.8e-21 (double well m = 0.2, N = 24, 241 below V(+-6) = 1139); at
    # N = 96 the double well's top level, 1804, is above the wall: 7.1e-4
    cfg = load_config(Path(__file__).parents[1] / "configs" / preset)
    tm = build_truncated_model(cfg["model"], n_basis, cfg["grid"])
    assert low < tm.top_level_wall_weight < high


@pytest.mark.parametrize("model, n_basis, half", [(harmonic(), 24, 4.0),
                                                  (double_well(0.2), 401, 6.0)],
                         ids=["harmonic", "double_well"])
def test_truncated_levels_are_orthonormal_at_the_walls(model, n_basis, half, monkeypatch):
    # the levels reach the walls (the double well's span the whole lattice),
    # where halved end weights would break orthonormality by up to 5e-3
    grid = GridSpec(-half, half, 401)
    solve, levels = sampling.lowest_eigenpairs, []

    def kept(*args, **kwargs):
        levels[:] = solve(*args, **kwargs)
        return levels

    monkeypatch.setattr(sampling, "lowest_eigenpairs", kept)
    build_truncated_model(model, n_basis, grid)
    phis = np.stack([pair.wavefunction for pair in levels])
    assert len(phis) == n_basis
    assert np.max(np.abs(grid.dx * (phis @ phis.T) - np.eye(n_basis))) <= 1e-13


def test_expectations_of_simple_states(tm8):
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    assert expectations(tm8, e0) == (pytest.approx(0.0, abs=1e-9),) * 2
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[1] = 1 / np.sqrt(2)
    q, p = expectations(tm8, plus)
    assert q == pytest.approx(tm8.q_matrix[0, 1], abs=1e-12)
    assert p == pytest.approx(0.0, abs=1e-12)


def test_chain_config_validation():
    with pytest.raises(ConfigurationError):
        ChainConfig(chain_count=0)
    with pytest.raises(ConfigurationError):
        ChainConfig(burn_in=-1)


def test_one_step_chain_rejected(tm8):
    # one retained sample has no batch-means standard error (numpy's
    # "Degrees of freedom <= 0" and a nan): the two-batch rule of load_config
    with pytest.raises(ConfigurationError, match=re.escape("chain_count * steps_per_chain")):
        ChainConfig(chain_count=1, steps_per_chain=1)
    for chains, steps in ((1, 2), (2, 1)):
        run = sample_ensemble(tm8, 2.0, ChainConfig(chain_count=chains, steps_per_chain=steps,
                                                    burn_in=0))
        assert np.isfinite(list(run.moment_summary().values())).all()


def test_negative_beta_rejected(tm8):
    # nan and inf too: a usage error, not a nan from the contour sum or a
    # chain that accepts nothing
    for beta in (-1.0, np.nan, np.inf):
        with pytest.raises(UsageError, match="beta"):
            sample_ensemble(tm8, beta, ChainConfig(chain_count=1, steps_per_chain=10))
        with pytest.raises(UsageError, match="beta"):
            exact_moments(tm8, beta)


def test_bitwise_reproducibility(tm8):
    cfg = ChainConfig(chain_count=3, steps_per_chain=2000, burn_in=500, seed=11)
    a = sample_ensemble(tm8, 2.0, cfg)
    b = sample_ensemble(tm8, 2.0, cfg)
    assert np.array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate
    c = sample_ensemble(tm8, 2.0, ChainConfig(chain_count=3, steps_per_chain=2000,
                                              burn_in=500, seed=12))
    assert not np.array_equal(a.samples, c.samples)


def test_output_array_and_block_hook_leave_the_run_unchanged(tm8):
    # the samples go into the array given, bit for bit those of a run
    # without it; the hook is called once per noise block that retains a
    # step, with retained steps that tile the chain in order, each block's
    # samples final when it is called
    block = sampling._NOISE_BLOCK
    cfg = ChainConfig(chain_count=2, steps_per_chain=2 * block + 100, burn_in=300, seed=4)
    plain = sample_ensemble(tm8, 2.0, cfg)
    out = np.full((2, cfg.steps_per_chain, 2), np.nan)
    seen = []

    def on_block(lo, hi):
        seen.append((lo, hi, out[:, lo:hi].copy()))

    run = sample_ensemble(tm8, 2.0, cfg, out=out, on_block=on_block)
    assert run.samples is out and np.array_equal(out, plain.samples)
    assert [(lo, hi) for lo, hi, _ in seen] == [
        (0, block - 300), (block - 300, 2 * block - 300), (2 * block - 300, 2 * block + 100)]
    for lo, hi, filled in seen:
        assert np.array_equal(filled, plain.samples[:, lo:hi])
    with pytest.raises(UsageError, match="shape"):
        sample_ensemble(tm8, 2.0, cfg, out=np.empty((2, cfg.steps_per_chain, 3)))


def test_acceptance_rate_tuned(tm8):
    cfg = ChainConfig(chain_count=4, steps_per_chain=5000, burn_in=2000, seed=3)
    run = sample_ensemble(tm8, 2.0, cfg)
    assert 0.2 < run.acceptance_rate < 0.6
    assert run.integrated_autocorrelation_time >= 1.0


def test_chain_states_stay_normalized(tm8):
    # the first 4096-step noise block straddles the end of burn-in
    cfg = ChainConfig(chain_count=2, steps_per_chain=5000, burn_in=4000, seed=7)
    run, states = retained_states(tm8, 2.0, cfg)
    norms = np.linalg.norm(states, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    # every retained sample is the quadratic form of its own retained state
    assert np.array_equal(np.stack(expectations(tm8, states), axis=-1), run.samples)


@pytest.mark.parametrize("seed", [0, 1])
def test_samples_are_the_forms_of_their_states_with_lone_rows(tm8, seed):
    # 1025 retained steps per chain: chunking a chain's rows can leave a
    # lone row, which numpy would hand to gemv, not gemm
    cfg = ChainConfig(chain_count=2, steps_per_chain=1025, burn_in=0, seed=seed)
    run, states = retained_states(tm8, 2.0, cfg)
    assert np.array_equal(np.stack(expectations(tm8, states), axis=-1), run.samples)


def _replay_chain0(tm, beta, cfg, arithmetic):
    """Chain 0 of sample_ensemble, one step at a time with sigma tuning.

    "engine" repeats the engine's arithmetic on the float64 view: the
    energy of normalize(prop) as a ratio of one matmul's two columns and
    the rule dE < -log(u) / beta. "reference" is the earlier step: normalize
    the complex proposal, then take its energy, and accept when
    u < exp(-beta max(dE, 0)). Returns (accept decisions, retained states
    as complex vectors).
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    e_shift = tm.energies - tm.energies[0]
    forms = np.column_stack([np.ones(2 * tm.n), np.repeat(e_shift, 2)])
    x = rng.standard_normal(2 * tm.n)[None]
    if arithmetic == "engine":
        r = (x * x) @ forms
        c, energy = x / np.sqrt(r[:, :1]), r[0, 1] / r[0, 0]
    else:
        c = x.view(np.complex128) / np.linalg.norm(x.view(np.complex128))
        energy = ((np.abs(c) ** 2) @ e_shift)[0]
    sigma, window, accepts, kept = _PROPOSAL_SCALE, 0, [], []
    total = cfg.burn_in + cfg.steps_per_chain
    for start in range(0, total, 4096):
        block = min(4096, total - start)
        noise = rng.standard_normal((block, 2 * tm.n))
        uniforms = rng.random(block)
        thresholds = -np.log(uniforms) / beta
        for j in range(block):
            if arithmetic == "engine":
                prop = c + sigma * noise[j]
                r = (prop * prop) @ forms
                e = r[0, 1] / r[0, 0]
                accept = e - energy < thresholds[j]
                new = prop / np.sqrt(r[:, :1])
            else:
                prop = c + sigma * noise[j].view(np.complex128)
                new = prop / np.sqrt(np.sum(prop.real**2 + prop.imag**2))
                e = ((new.real**2 + new.imag**2) @ e_shift)[0]
                accept = uniforms[j] < np.exp(-beta * max(e - energy, 0.0))
            if accept:
                c, energy = new, e
            accepts.append(bool(accept))
            window += bool(accept)
            done = start + j + 1
            if done <= cfg.burn_in and done % 200 == 0:
                rate = window / 200
                if not 0.3 <= rate <= 0.5:
                    sigma = np.clip(sigma * np.exp(rate - 0.4), 1e-4, 10.0)
                window = 0
            elif done > cfg.burn_in:
                kept.append(c[0])
    kept = np.array(kept)
    return accepts, kept.view(np.complex128) if arithmetic == "engine" else kept


def _reference_stream(cfg, n, beta):
    """Each chain's whole stream, drawn up front in the engine's order: its
    start, then per 4096-step block its normals, then its uniforms. Returns
    the chain-major (starts, noise, thresholds -log(u) / beta)."""
    chains, n2, total = cfg.chain_count, 2 * n, cfg.burn_in + cfg.steps_per_chain
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
            for i in range(chains)]
    starts = np.stack([rng.standard_normal(n2) for rng in rngs])
    noise, uniforms = np.empty((chains, total, n2)), np.empty((chains, total))
    for i, rng in enumerate(rngs):
        for start in range(0, total, 4096):
            stop = min(start + 4096, total)
            noise[i, start:stop] = rng.standard_normal((stop - start, n2))
            uniforms[i, start:stop] = rng.random(stop - start)
    with np.errstate(divide="ignore"):
        return starts, noise, -np.log(uniforms) / beta


def _lockstep_reference(tm, beta, cfg):
    """sample_ensemble written out one lockstep step at a time: every chain
    advances through the same (chains, 2N) @ (2N, 2) product, sigma is tuned
    every 200 burn-in steps, and there are no step blocks or buffers. Each
    chain's stream is drawn up front (_reference_stream). Returns (samples,
    acceptance, tuned sigma, retained coefficients)."""
    chains, n2, total = cfg.chain_count, 2 * tm.n, cfg.burn_in + cfg.steps_per_chain
    e_shift = tm.energies - tm.energies[0]
    forms = np.column_stack([np.ones(n2), np.repeat(e_shift, 2)])
    c, noise, thresholds = _reference_stream(cfg, tm.n, beta)
    r = (c * c) @ forms
    c, energy = c / np.sqrt(r[:, :1]), r[:, 1] / r[:, 0]
    sigma = np.full(chains, _PROPOSAL_SCALE)
    window, accepted, kept = np.zeros(chains), np.zeros(chains), []
    for step in range(total):
        prop = c + sigma[:, None] * noise[:, step]
        r = (prop * prop) @ forms
        with np.errstate(invalid="ignore", divide="ignore"):
            e = r[:, 1] / r[:, 0]
            accept = e - energy < thresholds[:, step]
            c = np.where(accept[:, None], prop / np.sqrt(r[:, :1]), c)
        energy = np.where(accept, e, energy)
        if step < cfg.burn_in:
            window += accept
            if (step + 1) % 200 == 0:
                rate = window / 200
                tune = (rate < 0.3) | (rate > 0.5)
                sigma[tune] = np.clip(sigma[tune] * np.exp(rate[tune] - 0.4), 1e-4, 10.0)
                window[:] = 0
        else:
            accepted += accept
            kept.append(c)
    coefficients = np.stack(kept, axis=1).view(np.complex128)
    samples = np.stack(expectations(tm, coefficients), axis=-1)
    return samples, accepted / cfg.steps_per_chain, sigma, coefficients


@pytest.mark.parametrize("beta", [2.0, 0.0])
def test_engine_matches_lockstep_reference(tm8, beta):
    # burn-in ends inside the second 4096-step noise block
    cfg = ChainConfig(chain_count=3, steps_per_chain=4000, burn_in=5000, seed=21)
    run, states = retained_states(tm8, beta, cfg)
    samples, acceptance, sigma, coefficients = _lockstep_reference(tm8, beta, cfg)
    assert np.array_equal(run.samples, samples)
    assert np.array_equal(run.chain_acceptance, acceptance)
    assert np.array_equal(run.proposal_scales, sigma)
    assert np.array_equal(states, coefficients)
    assert np.all(acceptance == 1.0) if beta == 0 else np.all(acceptance < 0.9)


@pytest.mark.parametrize("beta", [2.0, 0.0])
def test_chain_draws_are_the_reference_stream(beta):
    # burn-in ends inside the second 4096-step block and the last block is
    # short (808 steps): chain_draws yields, bit for bit, the starts, then
    # each block's step-major normals and thresholds of the stream drawn
    # up front
    cfg = ChainConfig(chain_count=3, steps_per_chain=4000, burn_in=5000, seed=21)
    starts, noise, thresholds = _reference_stream(cfg, 8, beta)
    stream = sampling.chain_draws(cfg, 8, beta)
    assert np.array_equal(next(stream), starts)
    blocks = [(normals.copy(), t.copy()) for normals, t in stream]
    assert [len(normals) for normals, _ in blocks] == [4096, 4096, 808]
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), noise.transpose(1, 0, 2))
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), thresholds.T)
    assert np.all(thresholds == np.inf) if beta == 0 else np.all(np.isfinite(thresholds))


def test_explicit_draws_give_the_default_run(tm8):
    # the stream handed in, whether chain_draws itself or its items copied
    # out one by one, gives the default run bit for bit
    cfg = ChainConfig(chain_count=2, steps_per_chain=5000, burn_in=4000, seed=3)
    plain = sample_ensemble(tm8, 2.0, cfg)
    copies = [item.copy() if isinstance(item, np.ndarray) else tuple(a.copy() for a in item)
              for item in sampling.chain_draws(cfg, tm8.n, 2.0)]
    for draws in (sampling.chain_draws(cfg, tm8.n, 2.0), iter(copies)):
        run = sample_ensemble(tm8, 2.0, cfg, draws=draws)
        assert np.array_equal(run.samples, plain.samples)
        assert np.array_equal(run.chain_acceptance, plain.chain_acceptance)
        assert np.array_equal(run.proposal_scales, plain.proposal_scales)


@pytest.mark.parametrize("bad", [
    lambda items: [items[0][:, :-1], *items[1:]],
    lambda items: [items[0].astype(np.float32), *items[1:]],
    lambda items: [items[0], (items[1][0][:-1], items[1][1]), *items[2:]],
    lambda items: [items[0], (items[1][0], items[1][1][:, :1]), *items[2:]],
    lambda items: [*items[:2], (items[2][0], items[2][1].tolist())],
    lambda items: items[:2],
    lambda items: [],
], ids=["start_shape", "start_dtype", "normals_steps", "thresholds_chains", "thresholds_list",
        "ended_early", "empty"])
def test_draws_of_the_wrong_shape_are_usage_errors(tm8, bad):
    # as a wrong out does: a start or block of the wrong shape or type, or
    # a stream that ends before the run does
    cfg = ChainConfig(chain_count=2, steps_per_chain=5000, burn_in=4000, seed=3)
    items = bad(list(sampling.chain_draws(cfg, tm8.n, 2.0)))
    with pytest.raises(UsageError, match="shape"):
        sample_ensemble(tm8, 2.0, cfg, draws=iter(items))


def test_only_chain_draws_seeds_generators():
    # every random number of the package comes from one stream per chain
    seeding = {"default_rng", "SeedSequence"}
    found = []
    for path in sorted(Path(sampling.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "chain_draws"
                  for node in ast.walk(fn)}
        found += [(path.stem, node.lineno, id(node) in inside) for node in ast.walk(tree)
                  if seeding & {getattr(node, "id", None), getattr(node, "attr", None)}]
    assert found and all(stem == "sampling" and inside for stem, _, inside in found), found


def _naive_expectations(tm, c):
    cc = c.conj()
    q = np.real(np.einsum("...k,kl,...l->...", cc, tm.q_matrix, c))
    p = np.real(1j * np.einsum("...k,kl,...l->...", cc, tm.p_matrix_imag, c))
    return q, p


def test_engine_matches_step_by_step_replay(tm8):
    # burn-in ends inside the first noise block and is too short to tune sigma
    cfg = ChainConfig(chain_count=1, steps_per_chain=5000, burn_in=150, seed=9)
    run = sample_ensemble(tm8, 2.0, cfg)
    accepts, kept = _replay_chain0(tm8, 2.0, cfg, "engine")
    assert run.acceptance_rate == sum(accepts[cfg.burn_in:]) / cfg.steps_per_chain
    assert np.array_equal(np.stack(expectations(tm8, kept), axis=-1), run.samples[0])


@pytest.mark.parametrize("seed", [9, 10])
def test_engine_keeps_the_reference_accept_sequence(tm8, seed):
    # the log-threshold rule on the ratio energy against the earlier
    # normalize-then-energy step with the exp rule, through sigma tuning
    cfg = ChainConfig(chain_count=1, steps_per_chain=4000, burn_in=1000, seed=seed)
    run = sample_ensemble(tm8, 2.0, cfg)
    engine_accepts, _ = _replay_chain0(tm8, 2.0, cfg, "engine")
    reference_accepts, kept = _replay_chain0(tm8, 2.0, cfg, "reference")
    assert engine_accepts == reference_accepts
    assert 0 < sum(reference_accepts) < len(reference_accepts)
    reference = np.stack(_naive_expectations(tm8, kept), axis=-1)
    assert np.max(np.abs(reference - run.samples[0])) < 1e-12


def test_every_step_is_accepted_at_infinite_temperature(tm8):
    cfg = ChainConfig(chain_count=3, steps_per_chain=3000, burn_in=1000, seed=5)
    run = sample_ensemble(tm8, 0.0, cfg)
    assert np.array_equal(run.chain_acceptance, np.ones(3))
    # burn-in pushed sigma up by exp(0.6) per tuning window
    assert np.allclose(run.proposal_scales, 0.3 * np.exp(0.6 * 5))


def test_expectations_match_naive_einsum():
    rng = np.random.default_rng(4)
    n = 7
    q = rng.standard_normal((n, n))
    a = rng.standard_normal((n, n))
    tm = TruncatedModel(np.arange(n, dtype=float), 0.5 * (q + q.T), 0.5 * (a - a.T))
    assert np.min(np.abs(np.diag(tm.q_matrix))) > 1e-3
    # 3 x 2000 vectors: more rows than one gemm chunk
    c = rng.standard_normal((3, 2000, 2 * n)).view(np.complex128)
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    got, want = expectations(tm, c), _naive_expectations(tm, c)
    for g, w in zip(got, want):
        assert g.shape == (3, 2000)
        assert np.max(np.abs(g - w)) < 1e-13
    single = expectations(tm, c[1, 7])
    assert np.shape(single[0]) == () and np.shape(single[1]) == ()
    assert np.allclose(single, (want[0][1, 7], want[1][1, 7]), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, rows", [(8, 200), (24, 57), (24, 200)])
def test_each_row_alone_equals_its_row_in_a_batch(n, rows):
    # 57 rows at N = 24 are one full 56-row chunk and a lone row
    rng = np.random.default_rng(n)
    q = rng.standard_normal((n, n))
    a = rng.standard_normal((n, n))
    tm = TruncatedModel(np.arange(n, dtype=float), 0.5 * (q + q.T), 0.5 * (a - a.T))
    c = rng.standard_normal((rows, 2 * n)).view(np.complex128)
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    batch = np.stack(expectations(tm, c), axis=-1)
    alone = np.array([expectations(tm, row) for row in c])
    assert np.array_equal(alone, batch)


@pytest.mark.parametrize("beta", [0.0, 1.0, 10.0])
def test_two_level_matches_quadrature_oracle(beta, harmonic_grid):
    tm = build_truncated_model(harmonic(), 2, harmonic_grid)
    oracle = exact_moments(tm, beta)
    cfg = ChainConfig(chain_count=4, steps_per_chain=20_000, burn_in=3000, seed=21)
    run = sample_ensemble(tm, beta, cfg)
    mom = run.moment_summary()
    for key in ("mean_q", "mean_p", "var_q", "var_p"):
        se = max(mom[f"{key}_se"], 1e-4)
        assert abs(mom[key] - oracle[key]) < 5 * se, (key, mom[key], oracle[key], se)


def test_exact_oracle_agrees_with_quadrature(harmonic_grid, dw_grid):
    # the contour sum against an independent sphere quadrature for
    # N = 2; the tilted well has a nonzero diagonal of Q and a mean of <q>
    tilted = build_truncated_model(
        ModelParams(0.5, 1.0, Tilted(QuarticDoubleWell(1.0, 1.5), 0.05)), 2, dw_grid)
    assert np.min(np.abs(np.diag(tilted.q_matrix))) > 0.1
    for tm in (build_truncated_model(harmonic(), 2, harmonic_grid), tilted):
        for beta in (0.0, 1.0, 4.0, 100.0):
            exact = exact_moments(tm, beta)
            quad = two_level_quadrature(tm, beta)
            for key in ("mean_q", "mean_p", "var_q", "var_p"):
                assert exact[key] == pytest.approx(quad[key], abs=1e-9), (beta, key)


# truncated models and the mpmath variances of <q> and <p> on them, by
# tests/make_mpmath_reference.py (conftest.exact_sphere_variance)
MPMATH_REFERENCE = json.loads((Path(__file__).parent / "mpmath_reference.json").read_text())


def _reference_model(name):
    case = MPMATH_REFERENCE[name]
    tm = TruncatedModel(*(np.array(case[key]) for key in ("energies", "q_matrix",
                                                         "p_matrix_imag")))
    return tm, zip(case["betas"], case["var_q"], case["var_p"])


def test_reference_models_are_current():
    # the committed models are the ones build_truncated_model makes today
    for case in MPMATH_REFERENCE.values():
        tm = build_truncated_model(ModelParams.from_dict(case["model"]), case["levels"],
                                   GridSpec.from_dict(case["grid"]))
        for key in ("energies", "q_matrix", "p_matrix_imag"):
            np.testing.assert_allclose(getattr(tm, key), case[key], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n", [2, 8, 24])
def test_exact_moments_match_mpmath_reference(n):
    # harmonic levels; beta = 0.01 clusters the nodes beta (E - E0), where a
    # Pade expm fails
    tm, reference = _reference_model(f"harmonic_n{n}")
    assert tm.n == n
    for beta, var_q, var_p in reference:
        exact = exact_moments(tm, beta)
        assert exact["var_q"] == pytest.approx(var_q, rel=1e-12, abs=0), beta
        assert exact["var_p"] == pytest.approx(var_p, rel=1e-12, abs=0), beta
        assert abs(exact["mean_q"]) < 1e-9 and exact["mean_p"] == 0.0


def test_exact_moments_at_huge_beta_match_mpmath():
    # N=24 double well: the weights exp(-beta (E - E_0)) are subnormal at
    # beta = 1e12 and zero at 1e15, but the contour's terms are taken
    # relative to the largest, in logarithms, and stay in range
    tm, reference = _reference_model("double_well_m0.5_n24")
    for beta, var_q, var_p in reference:
        exact = exact_moments(tm, beta)
        assert exact["var_q"] == pytest.approx(var_q, rel=1e-12, abs=0), beta
        assert exact["var_p"] == pytest.approx(var_p, rel=1e-12, abs=0), beta


def test_exact_moments_follow_the_cold_law_at_any_beta(tm8):
    # as beta -> oo only w_0 w_k survives, with E[w_0 w_k] -> 1 / (beta (E_k - E_0)),
    # so beta var_q -> 2 sum_k Q_0k^2 / (E_k - E_0), and likewise with A,
    # up to any beta at which beta (E - E_0) is a double
    dw = build_truncated_model(double_well(0.5), 24, GridSpec(-6.0, 6.0, 801))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tm in (tm8, dw):
            gaps = tm.energies[1:] - tm.energies[0]
            cold_q = 2.0 * np.sum(tm.q_matrix[0, 1:] ** 2 / gaps)
            cold_p = 2.0 * np.sum(tm.p_matrix_imag[0, 1:] ** 2 / gaps)
            for beta in (1e15, 1e100, 1e200):
                exact = exact_moments(tm, beta)
                assert beta * exact["var_q"] == pytest.approx(cold_q, rel=1e-12, abs=0), beta
                assert beta * exact["var_p"] == pytest.approx(cold_p, rel=1e-12, abs=0), beta
        # nodes 0, 1e-200 and 1e200: the top level is frozen out and the two
        # others are flat on their simplex, where E[w_0 w_1] = 1/6
        q = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        pathological = TruncatedModel(np.array([0.0, 1e-200, 1e200]), q, np.zeros((3, 3)))
        assert exact_moments(pathological, 1.0)["var_q"] == pytest.approx(1 / 3, rel=1e-12)


def test_exact_moments_names_beta_when_the_sum_rules_fail(tm8, monkeypatch):
    # a contour cut off where |e^z| is only e^-10 of its saddle value misses
    # the sum rules by about 1e-5
    monkeypatch.setattr(sampling, "_CONTOUR_TAIL", 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=re.escape("beta = 2.0: ")):
            exact_moments(tm8, 2.0)


def test_exact_moments_name_an_overflowing_beta(tm8):
    # beta (E_k - E_0) overflows at beta = 1.7e308: a SolverError naming
    # beta, with no warning and no level dropped as frozen out; 1e307 returns
    with pytest.raises(SolverError, match=re.escape("beta = 1.7e+308: ")):
        exact_moments(tm8, 1.7e308)
    assert np.isfinite(list(exact_moments(tm8, 1e307).values())).all()


def test_exact_moments_memory_grows_as_n_squared(dw_grid):
    # one (M, N) array of contour terms and a few (N, N) ones: a peak of
    # 0.22 MiB at N=64
    tm = build_truncated_model(double_well(0.2), 64, dw_grid)
    tracemalloc.start()
    try:
        exact_moments(tm, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_exact_moments_at_the_largest_basis_a_grid_allows():
    # n_basis and k_max may be as large as grid.n_points: all 401 levels of
    # a 401-point grid, in one contour sum
    tm = build_truncated_model(double_well(0.2), 401, GridSpec(-6.0, 6.0, 401))
    ew, eww = _weight_moments(tm.energies - tm.energies.min())
    assert abs(ew.sum() - 1.0) <= 1e-10
    assert np.max(np.abs(eww.sum(axis=1) - ew)) <= 1e-10
    assert np.isfinite(list(exact_moments(tm, 1.0).values())).all()


def _column_moments(run):
    """moment_summary as one column at a time: the reference it keeps to the bit."""
    out = {}
    for name, series in (("q", run.samples[:, :, 0]), ("p", run.samples[:, :, 1])):
        mean = float(series.ravel().mean())
        centered = (series - mean) ** 2
        out.update({f"mean_{name}": mean, f"mean_{name}_se": _batch_se(series),
                    f"var_{name}": float(centered.mean()),
                    f"var_{name}_se": _batch_se(centered)})
    return out


@pytest.mark.parametrize("steps", [20, 1000, 4099])
def test_moment_summary_matches_column_reference(tm8, steps):
    cfg = ChainConfig(chain_count=3, steps_per_chain=steps, burn_in=100, seed=5)
    run = sample_ensemble(tm8, 2.0, cfg)
    assert run.moment_summary() == _column_moments(run)


def test_sampler_matches_exact_variance(tm8):
    beta = 2.0
    exact = exact_sphere_variance(tm8.energies, tm8.q_matrix, beta)
    # anchor computed from the analytic ladder; grid discretization ~1e-5
    assert exact == pytest.approx(0.2582499587, abs=5e-5)
    cfg = ChainConfig(chain_count=4, steps_per_chain=25_000, burn_in=3000, seed=17)
    run = sample_ensemble(tm8, beta, cfg)
    mom = run.moment_summary()
    assert abs(mom["var_q"] - exact) < 5 * mom["var_q_se"]
    assert abs(mom["mean_q"]) < 5 * mom["mean_q_se"] + 1e-4


def test_truncation_converges_from_below(harmonic_grid):
    # Var(<q>) at beta = 2 increases with basis size toward the
    # infinite-basis value (beta w - 1 + exp(-beta w)) / (beta w)^2
    beta, omega = 2.0, 1.0
    exact = {}
    for n in (2, 8, 16, 24):
        tm = build_truncated_model(harmonic(), n, harmonic_grid)
        exact[n] = exact_sphere_variance(tm.energies, tm.q_matrix, beta)
    limit = (beta * omega - 1.0 + math.exp(-beta * omega)) / (beta * omega) ** 2
    assert exact[2] < exact[8] < exact[16] < exact[24] < limit
    assert exact[24] == pytest.approx(0.2758053444, abs=5e-5)
    # N = 16 is already within 2.5% of N = 24
    assert abs(exact[24] - exact[16]) / exact[24] < 0.025


def test_unitary_flow_leaves_moments_invariant(tm8):
    cfg = ChainConfig(chain_count=4, steps_per_chain=8000, burn_in=2000, seed=9)
    run, states = retained_states(tm8, 2.0, cfg)
    report = unitary_flow_check(run, states, tm8, t=0.7, hbar=1.0)
    for key, entry in report["moments"].items():
        assert abs(entry["diff"]) < 6 * entry["se"] + 1e-10, (key, entry)


def test_iat_of_white_noise_is_one():
    rng = np.random.default_rng(0)
    tau = integrated_autocorrelation(rng.standard_normal(20_000))
    assert tau == pytest.approx(1.0, abs=0.15)
    assert integrated_autocorrelation(np.ones(100)) == 1.0


def test_iat_of_correlated_series_is_large():
    rng = np.random.default_rng(1)
    x = np.zeros(20_000)
    for i in range(1, len(x)):  # AR(1), rho = 0.95: tau = (1+rho)/(1-rho) = 39
        x[i] = 0.95 * x[i - 1] + rng.standard_normal()
    tau = integrated_autocorrelation(x)
    assert 25 < tau < 55


def sequential_iat(series, c=6.0):
    """integrated_autocorrelation with Sokal's window found by a Python loop,
    the form it had before the cumulative sum."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    x = x - x.mean()
    var = np.sum(x * x) / n
    if var == 0:
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n] / (var * n)
    tau = 1.0
    for m in range(1, n):
        tau += 2.0 * acf[m]
        if m >= c * tau:
            break
    return float(max(tau, 1.0))


@pytest.mark.parametrize("case", ["white", "ar1", "short", "trend", "two", "anti"])
def test_iat_matches_sequential_window_loop(case):
    # the cumulative sum adds in the loop's order, so the result is bitwise equal,
    # also when no window closes ("trend") and when the sum dips below 1 ("anti")
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(5000)
    series = {"white": noise, "ar1": np.zeros(5000), "short": noise[:3],
              "trend": np.arange(50.0), "two": np.array([0.0, 1.0]),
              "anti": np.tile([1.0, -1.0], 200) + 0.1 * noise[:400]}[case]
    if case == "ar1":
        for i in range(1, len(series)):
            series[i] = 0.9 * series[i - 1] + noise[i]
    assert integrated_autocorrelation(series) == sequential_iat(series)


def test_iat_does_not_depend_on_blas_threads():
    # a threaded ddot changes the variance in its last digit with the thread count
    probe = ("from wfgibbs import (ChainConfig, GridSpec, Harmonic, ModelParams,\n"
             "                     build_truncated_model, sample_ensemble)\n"
             "tm = build_truncated_model(ModelParams(1.0, 1.0, Harmonic(1.0)), 4,\n"
             "                           GridSpec(-10.0, 10.0, 801))\n"
             "cfg = ChainConfig(chain_count=1, steps_per_chain=20_000, burn_in=1000, seed=1)\n"
             "print(repr(sample_ensemble(tm, 2.0, cfg).chain_iat[0]))")
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads}
        out.append(subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                  text=True, check=True, env=env).stdout)
    assert out[0] == out[1]
