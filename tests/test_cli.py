import ast
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wfgibbs
from wfgibbs import GridSpec, ModelParams, fluctuation_curve, sampling, table_for_betas
from wfgibbs import cli
from wfgibbs.cli import main

HARMONIC_MODEL = {
    "mass": 1.0,
    "hbar": 1.0,
    "potential": {"type": "harmonic", "omega": 1.0},
}

DOUBLE_WELL_MODEL = {
    "mass": 0.5,
    "hbar": 1.0,
    "potential": {"type": "quartic_double_well", "w0": 1.0, "x0": 1.5},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    header = []
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append(line.split(","))
    return header, rows


def test_eig_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 1001},
        "eig": {"k": 3},
        "output": str(tmp_path / "out"),
    })
    assert main(["eig", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "eig.csv")
    assert header[0] == "# wfgibbs-csv v1"
    assert header[1].startswith("# columns: k,energy,parity")
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-4)
    assert rows[0][2] == "even" and rows[1][2] == "odd"
    sidecar = json.loads((tmp_path / "out" / "eig.json").read_text())
    assert len(sidecar["energies"]) == 3
    assert "E_1" in capsys.readouterr().out


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 401},
        "output": str(tmp_path / "ignored"),
    })
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "chosen")]) == 0
    assert (tmp_path / "chosen" / "eig.csv").exists()
    assert not (tmp_path / "ignored").exists()


# a small run of each command and the files it returns
COMMAND_RUNS = {
    "eig": (HARMONIC_MODEL, {"k": 2}, {"eig.csv", "eig.json"}),
    "veff": (DOUBLE_WELL_MODEL, {"n_q": 11},
             {"veff_m0p5.csv", "veff_table_m0p5.csv", "veff_table_m0p5.json"}),
    "twostate": (DOUBLE_WELL_MODEL, {"n_q": 21}, {"two_state_m0p5.csv", "two_state.json"}),
    "fluct": (DOUBLE_WELL_MODEL, {"t_min": 0.1, "t_max": 10.0, "n_t": 5, "n_q": 41},
              {"fluct_m0p5.csv", "fluct_two_state.csv", "fluct.json"}),
    "sample": (HARMONIC_MODEL, {"n_basis": 4, "chains": 2, "steps_per_chain": 200,
                                "burn_in": 50}, {"samples.csv", "sample_run.json"}),
    "canonical": (HARMONIC_MODEL, {"beta": 2.0, "k_max": 20},
                  {"canonical_atoms.csv", "canonical.json"}),
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_commands_return_their_files_and_write_none(command, tmp_path, monkeypatch):
    # a command computes and returns (exit code, files); main writes them
    assert set(COMMAND_RUNS) == set(cli.COMMANDS)
    model, section, names = COMMAND_RUNS[command]
    monkeypatch.chdir(tmp_path)
    cfg = cli.load_config(write_config(tmp_path, {
        "model": model, "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        command: section}))
    before = sorted(tmp_path.rglob("*"))
    code, files = cli.COMMANDS[command](cfg)
    assert code == 0 and set(files) == names
    assert sorted(tmp_path.rglob("*")) == before  # no output directory, no file
    for name, content in files.items():
        if name.endswith(".csv"):
            columns, rows = content
            assert isinstance(columns, str) and next(iter(rows), None) is not None
        else:
            assert isinstance(content, dict)
    if command == "sample":  # 1M rows of samples.csv stay lazy until main writes them
        assert not isinstance(files["samples.csv"][1], (list, tuple))


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["eig", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    assert main(["eig", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()  # nothing written on failure


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, "bogus": 1})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, "eig": {"kk": 2}})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()


def test_missing_model_section(tmp_path):
    cfg = write_config(tmp_path, {"grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 11}})
    assert main(["eig", "--config", cfg]) == 2


def test_twostate_command(tmp_path):
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 1201},
        "twostate": {"masses": [0.5, 1.0], "n_q": 21},
    })
    out = tmp_path / "out"
    assert main(["twostate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "two_state_m0p5.csv").exists()
    assert (out / "two_state_m1.csv").exists()
    summary = json.loads((out / "two_state.json").read_text())
    assert summary["0.5"]["e1"] < summary["0.5"]["e2"]
    assert summary["1.0"]["d"] > summary["0.5"]["d"]


def test_twostate_failure_writes_nothing(tmp_path):
    # the second mass is invalid: the run fails before any file is written
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 1201},
        "twostate": {"masses": [0.5, -1.0], "n_q": 21},
    })
    out = tmp_path / "out"
    assert main(["twostate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_veff_command(tmp_path):
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "veff": {"n_q": 11},
    })
    out = tmp_path / "out"
    assert main(["veff", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "veff_m0p5.csv")
    assert "q_over_d,rescaled_exact,rescaled_two_state" in header[1]
    assert len(rows) == 11
    us = [float(r[0]) for r in rows]
    assert min(us) >= -1.0 and max(us) <= 1.0
    # the raw table and its metadata sidecar are written alongside
    assert (out / "veff_table_m0p5.csv").exists()
    assert (out / "veff_table_m0p5.csv").read_text().startswith("# wfgibbs-csv v1")
    assert b"\r" not in (out / "veff_table_m0p5.csv").read_bytes()  # as in every other CSV
    sidecar = json.loads((out / "veff_table_m0p5.json").read_text())
    assert "bounded_support" in sidecar
    meta = sidecar["meta"]
    assert {"e1", "e2", "d"} <= set(meta)
    assert meta["failed_points"] == []
    # how the table converged: k=1 eigensolves, warm starts that fell back,
    # cold solves and dpttrf factorizations
    assert 11 <= meta["eigensolves"]
    assert 0 <= meta["lapack_fallbacks"] <= meta["eigensolves"]
    assert 0 <= meta["cold_solves"] and meta["eigensolves"] <= meta["factorizations"]


def test_fluct_command(tmp_path):
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        "fluct": {"t_min": 0.1, "t_max": 10.0, "n_t": 5, "n_q": 41},
    })
    out = tmp_path / "out"
    assert main(["fluct", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "fluct_m1.csv")
    assert len(rows) == 5
    widths = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(widths, widths[1:]))  # grows with temperature
    _, ref_rows = read_csv(out / "fluct_two_state.csv")
    assert len(ref_rows) == 5
    summary = json.loads((out / "fluct.json").read_text())
    assert "max_full_vs_restricted" in summary["1.0"]
    # how the table was built: its nodes, eigensolves, LAPACK work and widened grid
    record = summary["1.0"]["table"]
    assert set(record) == {"nodes", "eigensolves", "lapack_fallbacks", "cold_solves",
                           "factorizations", "grid"}
    assert 41 <= record["nodes"] and 0 < record["eigensolves"] <= record["nodes"]
    assert 0 <= record["lapack_fallbacks"] <= record["eigensolves"]
    assert set(record["grid"]) == {"x_min", "x_max", "n_points"}
    assert record["grid"]["x_min"] == -record["grid"]["x_max"]


def test_fluct_solves_its_doublet_once(tmp_path, monkeypatch):
    from wfgibbs import constrain, twostate

    doublets = []
    for module in (constrain, twostate):
        def counted(op, k, *args, solve=module.lowest_eigenpairs, **kwargs):
            doublets.extend([op.n] if k == 2 else [])
            return solve(op, k, *args, **kwargs)

        monkeypatch.setattr(module, "lowest_eigenpairs", counted)
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "fluct": {"t_min": 0.1, "t_max": 10.0, "n_t": 5, "n_q": 41},
    })
    out = tmp_path / "out"
    assert main(["fluct", "--config", cfg, "--out", str(out)]) == 0
    assert doublets == [801]  # on the config grid only
    # the rescaled temperatures come back from the same splitting, to one ulp
    _, rows = read_csv(out / "fluct_m0p5.csv")
    t = np.array([float(r[0]) for r in rows])
    assert np.allclose(t, np.logspace(-1.0, 1.0, 5), rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("command", ["veff", "fluct"])
def test_one_cold_solve_per_mass(command, tmp_path, monkeypatch):
    # the doublet solve is the only cold LAPACK solve: the untilted ground
    # state of each table starts warm from the doublet's even state
    from wfgibbs import spectra

    cold = []

    def counted(op, k, solve=spectra._cold_solve):
        cold.append((op.n, k))
        return solve(op, k)

    monkeypatch.setattr(spectra, "_cold_solve", counted)
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "veff": {"masses": [0.5, 1.5], "n_q": 11},
        "fluct": {"masses": [0.5, 1.5], "t_min": 0.1, "t_max": 10.0, "n_t": 5, "n_q": 41},
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert cold == [(801, 2), (801, 2)]
    if command == "veff":
        records = [json.loads((out / f"veff_table_m{tag}.json").read_text())["meta"]
                   for tag in ("0p5", "1p5")]
    else:
        records = [record["table"] for record in
                   json.loads((out / "fluct.json").read_text()).values()]
    for record in records:
        assert record["cold_solves"] == record["lapack_fallbacks"] == 0
        assert record["eigensolves"] <= record["factorizations"]


@pytest.mark.parametrize("command, section", [
    ("veff", {"n_q": 11}),
    ("fluct", {"t_min": 0.1, "t_max": 10.0, "n_t": 5, "n_q": 41}),
    ("sample", {"n_basis": 4, "beta": 5.0, "chains": 2, "steps_per_chain": 2000, "burn_in": 200,
                "validate": "marginal", "tv_tolerance": 1.0}),
    ("canonical", {"beta": 2.0, "k_max": 16}),
], ids=["veff", "fluct", "sample", "canonical"])
def test_one_cold_multi_level_solve(command, section, tmp_path, monkeypatch):
    # a run's only cold solve is its doublet (k=2) or its truncated model
    # (k=N), whose two lowest levels are the doublet: every V_eff table
    # starts warm from the doublet's even state
    from wfgibbs import spectra

    cold = []

    def counted(op, k, solve=spectra._cold_solve):
        cold.append((op.n, k))
        return solve(op, k)

    monkeypatch.setattr(spectra, "_cold_solve", counted)
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        command: section,
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    levels = section.get("n_basis", section.get("k_max", 2))
    assert cold == [(801, levels)]


def test_unsolvable_veff_node_fails_the_run(tmp_path, capsys, monkeypatch):
    # a V_eff table with a hole is not V_eff: the first node that cannot be
    # solved ends the run with exit 3, naming its q, before any file is written
    from wfgibbs import constrain, twostate

    monkeypatch.setattr(constrain, "MAX_NEWTON_STEPS", 1)
    grid = {"x_min": -6.0, "x_max": 6.0, "n_points": 801}
    cfg = write_config(tmp_path, {"model": DOUBLE_WELL_MODEL, "grid": grid, "veff": {"n_q": 11}})
    out = tmp_path / "out"
    assert main(["veff", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    mp = ModelParams.from_dict(DOUBLE_WELL_MODEL)
    ts = twostate.build_two_state(mp, GridSpec.from_dict(grid))
    first = np.linspace(-0.995 * ts.d, 0.995 * ts.d, 11)[6]  # the first node out from q = 0
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and f"{first}" in err


@pytest.mark.parametrize("command", ["veff", "twostate", "fluct"])
def test_asymmetric_potential_is_a_config_error(command, tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {**DOUBLE_WELL_MODEL, "potential": {
            "type": "tilted", "strength": 0.05, "base": DOUBLE_WELL_MODEL["potential"]}},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "symmetric potential" in capsys.readouterr().err
    assert not out.exists()


def test_sample_command_deterministic(tmp_path):
    payload = {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        "seed": 4,
        "sample": {"n_basis": 4, "beta": 2.0, "chains": 2,
                   "steps_per_chain": 500, "burn_in": 100},
    }
    cfg = write_config(tmp_path, payload)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
    # overriding the seed changes the stream
    c = tmp_path / "c"
    assert main(["sample", "--config", cfg, "--out", str(c), "--seed", "5"]) == 0
    assert (a / "samples.csv").read_bytes() != (c / "samples.csv").read_bytes()
    run = json.loads((a / "sample_run.json").read_text())
    assert run["seed"] == 4 and run["chains"] == 2
    per_chain = run["per_chain"]
    assert len(per_chain) == 2
    for record in per_chain:
        assert set(record) == {"acceptance", "proposal_scale", "iat_q", "ess_q"}
        assert record["ess_q"] == pytest.approx(500 / record["iat_q"])
    assert np.mean([r["acceptance"] for r in per_chain]) == pytest.approx(run["acceptance_rate"])
    assert (np.mean([r["iat_q"] for r in per_chain])
            == pytest.approx(run["integrated_autocorrelation_time"]))
    rows = np.loadtxt(a / "samples.csv", delimiter=",")
    assert np.array_equal(rows[:, 2], np.repeat([0, 1], 500))
    assert np.array_equal(rows[:, 3], np.tile(np.arange(500), 2))


def test_sample_run_record_matches_sequential_iat(tmp_path, monkeypatch):
    # the IAT window by cumulative sum leaves every byte of a seeded run as
    # the sequential loop gave it
    from test_sampling import sequential_iat

    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "seed": 3,
        "sample": {"n_basis": 6, "beta": 4.0, "chains": 3,
                   "steps_per_chain": 4000, "burn_in": 500},
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(a)]) == 0
    monkeypatch.setattr(sampling, "integrated_autocorrelation", sequential_iat)
    assert main(["sample", "--config", cfg, "--out", str(b)]) == 0
    for name in ("sample_run.json", "samples.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sample_validation_failure_exits_1(tmp_path, capsys):
    # an absurdly tight total-variation tolerance cannot be met
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        "sample": {"n_basis": 4, "beta": 2.0, "chains": 2,
                   "steps_per_chain": 2000, "burn_in": 500,
                   "validate": "marginal", "tv_tolerance": 1e-9},
    })
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_sample_unknown_validation_mode(tmp_path, monkeypatch, capsys):
    # rejected while the config is read: nothing is sampled or written
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_ensemble ran")

    monkeypatch.setattr(sampling, "sample_ensemble", no_sampling)
    for mode in ("bogus", "harmonic", "two_level"):
        cfg = write_config(tmp_path, {
            "model": HARMONIC_MODEL,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
            "sample": {"n_basis": 2, "beta": 1.0, "chains": 1,
                       "steps_per_chain": 50, "burn_in": 10, "validate": mode},
        })
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2, mode
        assert "unknown validation mode" in capsys.readouterr().err
        assert not out.exists()


def test_sample_exact_validation_on_tilted_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"mass": 0.5, "hbar": 1.0,
                  "potential": {"type": "tilted", "strength": 0.05,
                                "base": DOUBLE_WELL_MODEL["potential"]}},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "seed": 3,
        "sample": {"n_basis": 4, "beta": 1.0, "chains": 4,
                   "steps_per_chain": 20_000, "burn_in": 2000, "validate": "exact"},
    })
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("PASS") == 4
    report = json.loads((out / "sample_run.json").read_text())["validation"]
    assert report["mode"] == "exact"
    checks = report["checks"]
    assert set(checks) == {"mean_q", "mean_p", "var_q", "var_p"}
    assert all(c["pass"] and c["z"] <= 3.0 for c in checks.values())
    assert abs(checks["mean_q"]["expected"]) > 0.01  # the tilt moves <q>


def test_canonical_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        "canonical": {"beta": 2.0, "k_max": 20},
    })
    out = tmp_path / "out"
    assert main(["canonical", "--config", cfg, "--out", str(out)]) == 0
    blob = json.loads((out / "canonical.json").read_text())
    # canonical atoms of a symmetric well all sit at q = 0, in contrast to
    # the spread of the wave-function ensemble
    assert blob["canonical_delta_q"] < 1e-6
    assert blob["ensemble_delta_q"] == pytest.approx(2.0**-0.5, rel=1e-3)
    # the contrast line is the fluct path at one beta, bit for bit, with the
    # doublet of the truncated model behind the atoms
    mp, grid = ModelParams.from_dict(HARMONIC_MODEL), GridSpec(-10.0, 10.0, 801)
    tm = sampling.build_truncated_model(mp, 20, grid)
    table = table_for_betas(tm.doublet, [2.0], n_q=81, grid=grid)
    assert blob["ensemble_delta_q"] == fluctuation_curve(table, [2.0]).delta_q[0]
    header, rows = read_csv(out / "canonical_atoms.csv")
    assert len(rows) == 20


def test_canonical_truncation_too_small(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
        "canonical": {"beta": 0.05, "k_max": 4},
    })
    assert main(["canonical", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "k_max" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [
    ("fluct", {"t_min": 0.0}),
    ("fluct", {"t_min": -0.5}),
    ("fluct", {"t_max": 0.0}),
    ("fluct", {"t_max": float("inf")}),
    ("fluct", {"n_t": 0}),
    ("fluct", {"n_q": 1}),
    ("sample", {"beta": -1.0}),
    ("sample", {"beta": 0.0, "validate": "marginal"}),
    ("canonical", {"beta": 0.0}),
    ("canonical", {"beta": -2.0}),
    ("fluct", {"t_min": "abc"}),
    ("eig", {"k": 0}),
    ("eig", {"tol": 0.0}),
    ("eig", {"tol": float("nan")}),
    ("eig", {"tol": float("inf")}),
    ("veff", {"n_q": 0}),
    ("veff", {"frac": 0.0}),
    ("veff", {"frac": 1.2}),
    ("twostate", {"n_q": 0}),
    ("sample", {"n_basis": 1}),
    ("sample", {"tolerance_se": 0.0}),
    ("sample", {"tolerance_se": float("nan")}),
    ("sample", {"tv_tolerance": float("nan"), "validate": "marginal"}),
    ("sample", {"tv_tolerance": float("inf")}),
    ("canonical", {"k_max": 0}),
    ("canonical", {"k_max": 1}),
    # every mass is checked before the first one is solved
    ("veff", {"masses": [0.5, -1.0]}),
    ("twostate", {"masses": [0.5, -1.0]}),
    ("fluct", {"masses": [float("nan")]}),
    ("veff", {"masses": [float("inf")]}),
    ("twostate", {"masses": [0.5, 0.0]}),
    # the chain values are checked before the truncated model is built
    ("sample", {"chains": 0}),
    ("sample", {"steps_per_chain": 0}),
    ("sample", {"burn_in": -1}),
    ("sample", {"proposal_scale": 0.0}),
    ("sample", {"proposal_scale": float("inf")}),
    ("sample", {"proposal_scale": float("nan")}),
    # no grid of 401 points has more than 401 levels
    ("eig", {"k": 402}),
    ("sample", {"n_basis": 402}),
    ("canonical", {"k_max": 402}),
])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, monkeypatch, command, section):
    # rejected while the config is read: exit 2, before any work, and
    # nothing written
    from wfgibbs import twostate

    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    for module, name in ((twostate, "build_two_state"), (sampling, "build_truncated_model"),
                         (cli, "assemble_hamiltonian")):
        monkeypatch.setattr(module, name, no_work)
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
        command: section,
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"model": {"hbar": 1.0, "potential": HARMONIC_MODEL["potential"]}},
    {"model": {**HARMONIC_MODEL, "potential": {"type": "harmonic"}}},
    {"model": {**HARMONIC_MODEL, "mass": "x"}},
    {"seed": "abc"},
    {"seed": 1e400},
    {"grid": {"x_min": -10.0, "n_points": 401}},
    {"model": [1, 2]},
    {"model": {**HARMONIC_MODEL, "potential": {"type": "polynomial", "coefficients": 5}}},
    {"eig": {"k": "x"}},
    {"veff": {"masses": 3}},
    {"fluct": {"n_t": 1e400}},
    {"output": 5},
    {"model": {**HARMONIC_MODEL, "mass": float("inf")}},
    {"model": {**HARMONIC_MODEL, "mass": float("nan")}},
    {"model": {**HARMONIC_MODEL, "hbar": float("nan")}},
    {"model": {**HARMONIC_MODEL, "potential": {"type": "harmonic", "omega": float("nan")}}},
    {"model": {**DOUBLE_WELL_MODEL, "potential": {"type": "quartic_double_well",
                                                  "w0": float("nan"), "x0": 1.5}}},
    {"model": {**DOUBLE_WELL_MODEL, "potential": {"type": "quartic_double_well",
                                                  "w0": 1.0, "x0": float("nan")}}},
    {"model": {**DOUBLE_WELL_MODEL, "potential": {
        "type": "tilted", "strength": float("nan"), "base": DOUBLE_WELL_MODEL["potential"]}}},
    {"model": {**HARMONIC_MODEL, "potential": {"type": "polynomial",
                                               "coefficients": [0.0, 0.0, float("inf")]}}},
    {"grid": {"x_min": float("-inf"), "x_max": 10.0, "n_points": 401}},
    {"grid": {"x_min": -10.0, "x_max": float("inf"), "n_points": 401}},
], ids=["no_mass", "no_omega", "mass_str", "seed_str", "seed_inf", "no_x_max", "model_list",
        "coefficients_int", "eig_k_str", "masses_int", "n_t_inf", "output_int", "mass_inf",
        "mass_nan", "hbar_nan", "omega_nan", "w0_nan", "x0_nan", "strength_nan",
        "coefficient_inf", "x_min_inf", "x_max_inf"])
def test_malformed_inputs_are_config_errors(tmp_path, capsys, config):
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, **config})
    out = tmp_path / "out"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_only_cli_touches_files():
    # reading the config and writing outputs belong to cli; the numerics
    # modules take their inputs as arguments
    for path in sorted(Path(wfgibbs.__file__).parent.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            assert not {"json", "pathlib"} & {name.split(".")[0] for name in imported}, path.name
            assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "open"), f"{path.name}:{node.lineno}"


def test_only_main_writes_files():
    # every command returns its files: in cli, only main creates the output
    # directory and writes, beside load_config's read of the config and the
    # open in write_csv, the CSV writer main calls
    allowed = {"open": {"main", "load_config", "write_csv"}, "mkdir": {"main"},
               "write_csv": {"main"}}
    seen = set()
    for statement in ast.parse(Path(cli.__file__).read_text()).body:
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in allowed:
                    assert owner in allowed[name], f"{owner} calls {name} (line {node.lineno})"
                    seen.add((owner, name))
    assert {("main", name) for name in allowed} <= seen


def test_only_cli_catches_library_errors():
    # one failure policy: a library error raises through the numerics
    # modules, and only cli maps it to an exit code
    from wfgibbs import errors

    names = {name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, errors.WfGibbsError)}
    for path in sorted(Path(wfgibbs.__file__).parent.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                assert not names & caught, f"{path.name}:{node.lineno}"


def _identifiers(path: Path) -> set:
    """Every name, attribute, imported module part and string constant in a file."""
    words = set()
    for node in ast.walk(ast.parse(path.read_text())):
        for field in ("id", "attr", "name", "module", "value"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                words.update(value.split("."))
    return words


def test_only_spectra_references_lapack():
    # spectra loads scipy's LAPACK extension and makes every call into it
    lapack = {"_lapack", "_flapack"}
    for path in sorted(Path(wfgibbs.__file__).parent.glob("*.py")):
        found = lapack & _identifiers(path)
        assert found == (lapack if path.stem == "spectra" else set()), path.name


def test_preset_configs_parse():
    from wfgibbs.cli import load_config

    for preset in sorted(Path("configs").glob("*.json")):
        cfg = load_config(preset)
        assert cfg["model"].mass > 0
        assert cfg["sample"]["validate"] in {"none", "exact", "marginal"}


def test_cli_import_leaves_out_scipy_optimize():
    # importing scipy.optimize adds about 20 MB of peak RSS and 0.2 s to every run
    probe = "import sys, wfgibbs.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_out_scipy_linalg():
    # the scipy.linalg package __init__ imports numpy.testing and numpy.f2py,
    # about 0.3 s of every run; spectra loads the LAPACK extension directly
    probe = ("import sys, wfgibbs.cli; "
             "print(sorted({'scipy.linalg', 'numpy.testing', 'numpy.f2py'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


def _per_float_rows(samples):
    # the samples.csv rows as cmd_sample built them before runs of repeated
    # states were formatted once: every q and p a float formatted by write_csv
    return itertools.chain.from_iterable(
        zip(qp[:, 0].tolist(), qp[:, 1].tolist(), itertools.repeat(chain), range(len(qp)))
        for chain, qp in enumerate(samples))


def _hand_built_samples():
    # q repeats while p changes, p repeats while q changes, signed zeros
    # (equal as floats, different as text) and a run of exact repeats
    q = np.array([0.5, 0.5, 0.5, -0.0, 0.0, 0.0, 1e-300, 1e-300, 2.0, 2.0])
    p = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, -1.0, 1.0, 0.1 + 0.2, 0.30000000000000004])
    chain = np.stack([q, p], axis=1)
    return np.stack([chain, chain[::-1]])


@pytest.mark.parametrize("case", ["seeded", "beta_zero", "hand_built"])
def test_sample_rows_match_per_float_formatting(case, tmp_path, harmonic_grid):
    if case == "hand_built":
        samples = _hand_built_samples()
    else:
        tm = sampling.build_truncated_model(ModelParams.from_dict(HARMONIC_MODEL), 6,
                                            harmonic_grid)
        beta = 2.0 if case == "seeded" else 0.0
        run = sampling.sample_ensemble(tm, beta, sampling.ChainConfig(
            chain_count=3, steps_per_chain=2000, burn_in=200, seed=13))
        samples = run.samples
        repeats = np.mean(np.all(samples[:, 1:] == samples[:, :-1], axis=2))
        # rejected steps repeat their state; at beta = 0 none is rejected
        assert repeats > 0.3 if case == "seeded" else repeats == 0.0
    cli.write_csv(tmp_path / "per_float.csv", "q,p,chain,step", _per_float_rows(samples))
    cli.write_csv(tmp_path / "runs.csv", "q,p,chain,step", cli._sample_rows(samples))
    expected = (tmp_path / "per_float.csv").read_bytes()
    assert (tmp_path / "runs.csv").read_bytes() == expected
    assert expected.count(b"\n") == 2 + samples.shape[0] * samples.shape[1]
