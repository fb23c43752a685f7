import ast
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wfgibbs
from wfgibbs import (GridSpec, ModelParams, SolverError, UsageError, build_two_state, sampling,
                     thermal)
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
        rows = files["samples.csv"][1]
        assert not isinstance(rows, (list, tuple))
        rows.close()  # and closing them reaps the process that formats them
        _no_child_left()


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["eig", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    assert main(["eig", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()  # nothing written on failure


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, "bogus": 1})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, "eig": {"kk": 2}})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()
    capsys.readouterr()
    # retired settings: the residual bound, the z threshold and the first
    # Metropolis step are constants, so any value of theirs is unknown
    for command, section in [
            ("eig", {"tol": 0.0}), ("eig", {"tol": float("nan")}),
            ("eig", {"tol": float("inf")}),
            ("sample", {"tolerance_se": 0.0}), ("sample", {"tolerance_se": float("nan")}),
            ("sample", {"proposal_scale": 0.0}), ("sample", {"proposal_scale": float("inf")}),
            ("sample", {"proposal_scale": float("nan")})]:
        cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, command: section})
        out = tmp_path / "o3"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"unknown keys in section '{command}': {list(section)}" in capsys.readouterr().err
        assert not out.exists()


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
    assert set(sidecar) == {"meta"}
    meta = sidecar["meta"]
    assert {"e1", "e2", "d"} <= set(meta)
    assert meta["failed_points"] == []
    # how the table converged: k=1 eigensolves, warm starts that fell back
    # and dptsv factorizations
    assert 11 <= meta["eigensolves"]
    assert 0 <= meta["lapack_fallbacks"] <= meta["eigensolves"]
    assert meta["eigensolves"] <= meta["factorizations"]


def test_veff_table_record_contract(tmp_path):
    # cli assembles each table's record, and the benchmark reads it in this
    # key order: the doublet of build_two_state, bit for bit, then the
    # table's own work record
    grid = {"x_min": -6.0, "x_max": 6.0, "n_points": 801}
    cfg = write_config(tmp_path, {"model": DOUBLE_WELL_MODEL, "grid": grid,
                                  "veff": {"masses": [0.5, 1.5], "n_q": 11}})
    out = tmp_path / "out"
    assert main(["veff", "--config", cfg, "--out", str(out)]) == 0
    for mass, tag in ((0.5, "0p5"), (1.5, "1p5")):
        meta = json.loads((out / f"veff_table_m{tag}.json").read_text())["meta"]
        assert list(meta) == ["e1", "e2", "d", "model", "grid", "root_tol_scale",
                              "failed_points", "eigensolves", "lapack_fallbacks",
                              "factorizations", "factorized_rows"]
        ts = build_two_state(ModelParams.from_dict({**DOUBLE_WELL_MODEL, "mass": mass}),
                             GridSpec.from_dict(grid))
        assert (meta["e1"], meta["e2"], meta["d"]) == (ts.e1, ts.e2, ts.d)
        assert meta["model"] == ts.model.to_dict() and meta["grid"] == grid


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
    assert set(record) == {"nodes", "eigensolves", "lapack_fallbacks", "factorizations",
                           "factorized_rows", "grid"}
    assert 41 <= record["nodes"] and 0 < record["eigensolves"] <= record["nodes"]
    assert 0 <= record["lapack_fallbacks"] <= record["eigensolves"]
    # each factorization covers at most the whole widened grid
    n_points = record["grid"]["n_points"]
    assert record["factorizations"] <= record["factorized_rows"]
    assert record["factorized_rows"] <= record["factorizations"] * n_points
    assert set(record["grid"]) == {"x_min", "x_max", "n_points"}
    assert record["grid"]["x_min"] == -record["grid"]["x_max"]


@pytest.mark.parametrize("preset, masses, evaluations", [
    ("dw_all_masses.json", ["0.2", "0.5", "1.0", "1.5"], 2),
    ("harmonic_sample.json", ["1.0"], 5),
])
def test_fluct_records_its_quadrature(preset, masses, evaluations, tmp_path):
    # measured: every dw_all_masses curve agrees with its halving at the
    # second rule, the harmonic walk's two at the fifth (2592 intervals),
    # and the two-state arc, written once, at the second
    out = tmp_path / "out"
    config = Path(__file__).parents[1] / "configs" / preset
    assert main(["fluct", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "fluct.json").read_text())
    records = [summary[mass]["quadrature"][curve]
               for mass in masses for curve in ("full", "restricted")]
    assert [r["evaluations"] for r in records] == [evaluations] * len(records)
    two_state = summary["two_state_quadrature"]
    assert two_state["evaluations"] == 2
    assert set(summary) == {*masses, "two_state_quadrature"}
    for record in [*records, two_state]:
        assert set(record) == {"evaluations", "agreement"}
        assert 0 <= record["agreement"] <= thermal.CURVE_RTOL


def test_fluct_restricted_curve_of_a_table_inside_d(tmp_path):
    # cold enough that the table's range, about 5 sqrt(T), stops short of
    # d = 0.707: the restricted curve is cut at the table's own ends
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 801},
        "fluct": {"t_min": 0.001, "t_max": 0.01, "n_t": 3, "n_q": 41},
    })
    out = tmp_path / "out"
    assert main(["fluct", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "fluct_m1.csv")
    assert [r[1] for r in rows] == [r[2] for r in rows]


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
    # both curves are written on the temperature grid itself, bit for bit
    _, rows = read_csv(out / "fluct_m0p5.csv")
    _, two_state = read_csv(out / "fluct_two_state.csv")
    assert [r[0] for r in rows] == [r[0] for r in two_state]
    assert np.array_equal([float(r[0]) for r in rows], np.logspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("command", ["veff", "fluct"])
def test_one_cold_solve_per_mass(command, tmp_path, monkeypatch):
    # the doublet solve is the only cold LAPACK solve: the untilted ground
    # state of each table starts warm from the doublet's even state. One
    # worker, so that both masses' solves run where they are counted
    from wfgibbs import spectra

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
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
        summary = json.loads((out / "fluct.json").read_text())
        records = [summary[mass]["table"] for mass in ("0.5", "1.5")]
    for record in records:
        assert record["lapack_fallbacks"] == 0 and "cold_solves" not in record
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


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts in this process."""
    pids = []

    def fork(real=os.fork):
        pid = real()
        pids.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("command", ["veff", "fluct"])
@pytest.mark.parametrize("masses", [[0.5], [0.5, 1.5], [0.5, 1.0, 1.5]], ids=["1", "2", "3"])
def test_forked_and_one_worker_runs_write_the_same_files(command, masses, tmp_path,
                                                          monkeypatch, capsys, forks):
    # two workers take the masses in turn (three masses: this process solves
    # the first and the third); one worker, or one mass, starts no process
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "veff": {"masses": masses, "n_q": 11},
        "fluct": {"masses": masses, "t_min": 0.1, "t_max": 10.0, "n_t": 5, "n_q": 41},
    })
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        runs.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr().out))
        assert len(forks) == (len(masses) > 1)
    assert runs[0] == runs[1]
    assert [line.split(":")[0] for line in runs[0][1].splitlines()] == [
        f"m={m}" for m in masses]
    _no_child_left()


@pytest.mark.parametrize("failing", [0.5, 1.5], ids=["this_process", "child"])
def test_failed_mass_fails_the_run_in_mass_order(failing, tmp_path, capsys, monkeypatch, forks):
    # the first node out from q = 0 of the failing mass cannot be solved:
    # exit 3 naming its q, the lines of the masses before it printed, no
    # output directory and no child left, whichever process solved it
    from wfgibbs import constrain, twostate

    parent = os.getpid()

    def solve(ts, q_grid, grid, real=constrain.effective_potential):
        if ts.model.mass == failing:
            assert (os.getpid() == parent) == (failing == 0.5)
            monkeypatch.setattr(constrain, "MAX_NEWTON_STEPS", 1)
        return real(ts, q_grid, grid)

    monkeypatch.setattr(constrain, "effective_potential", solve)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    grid = {"x_min": -6.0, "x_max": 6.0, "n_points": 801}
    cfg = write_config(tmp_path, {"model": DOUBLE_WELL_MODEL, "grid": grid,
                                  "veff": {"masses": [0.5, 1.5], "n_q": 11}})
    out = tmp_path / "out"
    assert main(["veff", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists() and len(forks) == 1
    mp = ModelParams.from_dict({**DOUBLE_WELL_MODEL, "mass": failing})
    ts = twostate.build_two_state(mp, GridSpec.from_dict(grid))
    first = np.linspace(-0.995 * ts.d, 0.995 * ts.d, 11)[6]
    captured = capsys.readouterr()
    assert captured.err.startswith("solver error:") and f"{first}" in captured.err
    assert [line.split(":")[0] for line in captured.out.splitlines()] == (
        ["m=0.5"] if failing == 1.5 else [])
    _no_child_left()


@pytest.mark.parametrize("command", ["veff", "fluct"])
def test_failed_doublet_in_child_fails_the_run_in_mass_order(command, tmp_path, capsys,
                                                              monkeypatch, forks):
    # each worker solves its own masses' doublets: the child's fails, exit 3
    # at its mass's turn, the mass before it printed, no output directory
    # and no child left
    from wfgibbs import twostate

    parent = os.getpid()

    def build(mp, grid, real=twostate.build_two_state):
        if mp.mass == 1.5:
            assert os.getpid() != parent
            raise SolverError("no doublet for mass 1.5")
        return real(mp, grid)

    monkeypatch.setattr(twostate, "build_two_state", build)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "veff": {"masses": [0.5, 1.5], "n_q": 11},
        "fluct": {"masses": [0.5, 1.5], "t_min": 0.1, "t_max": 10.0, "n_t": 5, "n_q": 41},
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists() and len(forks) == 1
    captured = capsys.readouterr()
    assert captured.err == "solver error: no doublet for mass 1.5\n"
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["m=0.5"]
    _no_child_left()


def test_killed_worker_fails_the_run(tmp_path, capsys, monkeypatch, forks):
    # a child killed before it sends its table, as by the OOM killer: exit 3
    # naming its mass, the mass before it printed, no output directory and
    # no child left
    from wfgibbs import constrain

    parent = os.getpid()

    def solve(ts, q_grid, grid, real=constrain.effective_potential):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(ts, q_grid, grid)

    monkeypatch.setattr(constrain, "effective_potential", solve)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, {"model": DOUBLE_WELL_MODEL,
                                  "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
                                  "veff": {"masses": [0.5, 1.5], "n_q": 11}})
    out = tmp_path / "out"
    assert main(["veff", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists() and len(forks) == 1
    captured = capsys.readouterr()
    assert captured.err == "solver error: the process solving mass 1.5 ended without a result\n"
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["m=0.5"]
    _no_child_left()


def test_interrupt_reaps_every_child(tmp_path, monkeypatch, forks):
    from wfgibbs import constrain

    def interrupted(ts, q_grid, grid):
        raise KeyboardInterrupt

    monkeypatch.setattr(constrain, "effective_potential", interrupted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, {"model": DOUBLE_WELL_MODEL,
                                  "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
                                  "veff": {"masses": [0.5, 1.5], "n_q": 11}})
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["veff", "--config", cfg, "--out", str(out)])
    assert not out.exists() and len(forks) == 1
    _no_child_left()


def _sample_config(tmp_path, **section):
    # 2 chains whose 9000 retained steps span three noise blocks, the first
    # cut by a burn-in that ends inside it
    assert 2 * sampling._NOISE_BLOCK < 9000 and 0 < 1000 < sampling._NOISE_BLOCK
    return write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "sample": {"n_basis": 4, "beta": 5.0, "chains": 2, "steps_per_chain": 9000,
                   "burn_in": 1000, "validate": "marginal", "tv_tolerance": 1.0, **section},
    })


def test_forked_and_in_process_formatting_write_the_same_files(tmp_path, monkeypatch, capsys,
                                                                forks):
    # with two CPUs a forked child formats samples.csv while the chains
    # run; with one, this process formats it after them: the same bytes
    cfg = _sample_config(tmp_path)
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        runs.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr()))
        assert len(forks) == 1
    assert runs[0] == runs[1]
    assert sorted(runs[0][0]) == ["sample_run.json", "samples.csv"]
    assert runs[0][0]["samples.csv"].count(b"\n") == 2 + 2 * 9000
    _no_child_left()


@pytest.mark.parametrize("raised", [SolverError, KeyboardInterrupt])
def test_failed_engine_reaps_the_formatter(raised, tmp_path, capsys, monkeypatch, forks):
    # the engine fails in its second block, after the formatter has been
    # handed the first: exit 3, or the interrupt, no output directory and
    # no child left
    calls = []

    def expectations(tm, x, real=sampling.TruncatedModel._real_expectations):
        calls.append(len(x))
        if len(calls) == 3:
            raise raised("engine stopped")
        return real(tm, x)

    monkeypatch.setattr(sampling.TruncatedModel, "_real_expectations", expectations)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    argv = ["sample", "--config", _sample_config(tmp_path), "--out", str(out)]
    if raised is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt) as interrupt:
            main(argv)
        # the run reaps it, not the collection of the traceback, which holds
        # every frame of the run
        assert interrupt.tb is not None
        _no_child_left()
    else:
        assert main(argv) == 3
        assert capsys.readouterr().err == "solver error: engine stopped\n"
    assert not out.exists() and len(forks) == 1 and len(calls) == 3
    _no_child_left()


def test_interrupted_write_reaps_the_formatter(tmp_path, monkeypatch, forks):
    # main closes the rows it was given on every path: an interrupt before
    # samples.csv is read reaps the formatter that holds its text
    def interrupted(path, columns, rows):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_csv", interrupted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    argv = ["sample", "--config", _sample_config(tmp_path), "--out", str(out)]
    with pytest.raises(KeyboardInterrupt) as interrupt:
        main(argv)
    assert interrupt.tb is not None and len(forks) == 1
    assert not out.exists() and _staged(tmp_path) == []
    _no_child_left()


def _staged(tmp_path):
    """The hidden staging directories main left in tmp_path, the nearest
    existing directory of an output directory inside it."""
    return [p for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_formatter_killed_while_it_sends_the_text_leaves_no_output(tmp_path, capsys,
                                                                  monkeypatch, forks):
    # the child dies once write_csv has read the first chunk of its text:
    # exit 3 naming it, and neither the output directory nor a file cut
    # short in it
    def write(path, columns, rows, real=cli.write_csv):
        rows = iter(rows)
        first = next(rows)
        os.kill(forks[0], signal.SIGKILL)
        return real(path, columns, itertools.chain([first], rows))

    monkeypatch.setattr(cli, "write_csv", write)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main(["sample", "--config", _sample_config(tmp_path), "--out", str(out)]) == 3
    assert not out.exists() and _staged(tmp_path) == [] and len(forks) == 1
    assert capsys.readouterr().err == ("solver error: the process formatting samples.csv "
                                       "ended before it sent the text\n")
    _no_child_left()


def test_failed_write_leaves_no_output(tmp_path, monkeypatch, forks):
    # a full disk while the second file is written: the error propagates,
    # the first file written is not left behind, nor is the staging
    # directory
    def write(path, *args, real=open, **kwargs):
        if Path(path).name == "sample_run.json":
            raise OSError(28, "No space left on device")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", write, raising=False)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="No space left"):
        main(["sample", "--config", _sample_config(tmp_path), "--out", str(out)])
    assert not out.exists() and _staged(tmp_path) == [] and len(forks) == 1
    _no_child_left()


def test_files_are_moved_into_an_existing_output_directory(tmp_path, capsys):
    # a file of another run stays; the run's own files replace theirs
    out = tmp_path / "out"
    out.mkdir()
    (out / "other.txt").write_text("kept")
    (out / "eig.csv").write_text("stale")
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, "eig": {"k": 2},
                                  "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 201}})
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["eig.csv", "eig.json", "other.txt"]
    assert (out / "other.txt").read_text() == "kept"
    assert (out / "eig.csv").read_text().startswith(cli.CSV_SCHEMA_HEADER)
    assert _staged(tmp_path) == []


def test_child_killed_while_drawing_fails_the_run(tmp_path, capsys, monkeypatch, forks):
    # the child dies drawing the third and last block, as by the OOM
    # killer: exit 3 naming it and the block, no output directory and no
    # child left
    parent = os.getpid()

    def draws(cfg, n, beta, real=sampling.chain_draws):
        for index, item in enumerate(real(cfg, n, beta)):
            if index == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            yield item

    monkeypatch.setattr(sampling, "chain_draws", draws)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main(["sample", "--config", _sample_config(tmp_path), "--out", str(out)]) == 3
    assert not out.exists() and _staged(tmp_path) == [] and len(forks) == 1
    captured = capsys.readouterr()
    assert captured.err == ("solver error: the process drawing the chains' random numbers "
                            "ended before it drew block 2\n")
    assert captured.out == ""
    _no_child_left()


def test_child_ending_before_it_draws_is_an_error_not_a_hang(tmp_path, capsys, monkeypatch,
                                                              forks):
    # a child that exits before its first draw sends nothing: the engine
    # reads the end of its pipe, exit 3, within the alarm
    parent = os.getpid()

    def draws(cfg, n, beta):
        if os.getpid() != parent:
            os._exit(0)
        yield

    def hung(signum, frame):
        raise TimeoutError("the engine waited for a child that had ended")

    monkeypatch.setattr(sampling, "chain_draws", draws)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        out = tmp_path / "out"
        assert main(["sample", "--config", _sample_config(tmp_path), "--out", str(out)]) == 3
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not out.exists() and _staged(tmp_path) == [] and len(forks) == 1
    assert capsys.readouterr().err == ("solver error: the process drawing the chains' random "
                                       "numbers ended before it drew the start vectors\n")
    _no_child_left()


def test_killed_formatter_fails_the_run(tmp_path, capsys, monkeypatch, forks):
    # a formatter killed before it sends the text, as by the OOM killer:
    # exit 3 naming it, no output directory and no child left
    parent = os.getpid()

    def lines(samples, chain, lo, hi, real=cli._sample_lines):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(samples, chain, lo, hi)

    monkeypatch.setattr(cli, "_sample_lines", lines)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main(["sample", "--config", _sample_config(tmp_path), "--out", str(out)]) == 3
    assert not out.exists() and len(forks) == 1
    captured = capsys.readouterr()
    assert captured.err == ("solver error: the process formatting samples.csv ended "
                            "before it sent the text\n")
    assert captured.out.startswith("PASS total-variation")
    _no_child_left()


@pytest.mark.parametrize("raised", [UsageError, ValueError])
def test_error_in_the_sample_child_is_raised_as_itself(raised, tmp_path, capsys, monkeypatch,
                                                       forks):
    # the child's error, not the end of its pipe: a library error ends in
    # its exit code and any other propagates, as a worker's does in
    # _per_mass; no output directory and no child left either way
    parent = os.getpid()

    def lines(samples, chain, lo, hi, real=cli._sample_lines):
        if os.getpid() != parent:
            raise raised("boom")
        return real(samples, chain, lo, hi)

    monkeypatch.setattr(cli, "_sample_lines", lines)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    argv = ["sample", "--config", _sample_config(tmp_path), "--out", str(out)]
    if raised is ValueError:
        with pytest.raises(ValueError, match="^boom$"):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists() and _staged(tmp_path) == [] and len(forks) == 1
    _no_child_left()


def test_failed_validation_still_writes_both_files(tmp_path, capsys, monkeypatch, forks):
    # validate: marginal fails (exit 1) and the run is written as it is,
    # formatted by the child
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    cfg = _sample_config(tmp_path, tv_tolerance=1e-9)
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["sample_run.json", "samples.csv"]
    assert (out / "samples.csv").read_bytes().count(b"\n") == 2 + 2 * 9000
    assert capsys.readouterr().out.startswith("FAIL total-variation")
    assert len(forks) == 1
    _no_child_left()


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


@pytest.mark.parametrize("base, strength, code", [
    ({"type": "polynomial", "coefficients": [0.0, -0.25, 1.0]}, 0.25, 0),
    (DOUBLE_WELL_MODEL["potential"], 0.1, 2),
], ids=["even_series", "tilted_well"])
def test_veff_takes_the_symmetry_of_the_power_series(base, strength, code, tmp_path):
    # x^2 - x/4 tilted by x/4 is x^2: its power series is even, so veff
    # accepts it; a tilted double well stays asymmetric
    cfg = write_config(tmp_path, {
        "model": {**HARMONIC_MODEL, "potential": {"type": "tilted", "strength": strength,
                                                  "base": base}},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
        "veff": {"masses": [1.0], "n_q": 11},
    })
    out = tmp_path / "out"
    assert main(["veff", "--config", cfg, "--out", str(out)]) == code
    assert (out / "veff_table_m1.csv").exists() == (code == 0)


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
    assert 0.0 <= run["top_level_wall_weight"] < 1e-3
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


def test_exact_validation_at_huge_beta(tmp_path, capsys):
    # at beta = 1e15 the N=24 weights exp(-beta (E - E_0)) underflow, but
    # the contour sum's terms do not: the expected moments are finite and
    # are those of exact_moments
    grid = {"x_min": -6.0, "x_max": 6.0, "n_points": 801}
    cfg = write_config(tmp_path, {
        "model": DOUBLE_WELL_MODEL,
        "grid": grid,
        "sample": {"n_basis": 24, "beta": 1e15, "chains": 1, "steps_per_chain": 200,
                   "burn_in": 0, "validate": "exact"},
    })
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) in (0, 1)
    assert "solver error" not in capsys.readouterr().err
    checks = json.loads((out / "sample_run.json").read_text())["validation"]["checks"]
    tm = sampling.build_truncated_model(ModelParams.from_dict(DOUBLE_WELL_MODEL), 24,
                                        GridSpec.from_dict(grid))
    assert {key: c["expected"] for key, c in checks.items()} == sampling.exact_moments(tm, 1e15)
    assert all(np.isfinite(c["expected"]) for c in checks.values())


@pytest.mark.parametrize("command, section", [
    ("sample", {"n_basis": 4, "beta": 1e-300, "chains": 2, "steps_per_chain": 10,
                "burn_in": 0, "validate": "marginal"}),
    ("fluct", {"t_max": 1e300}),
    # 25/beta overflows before any grid is sized
    ("sample", {"n_basis": 4, "beta": 1e-308, "chains": 2, "steps_per_chain": 10,
                "burn_in": 0, "validate": "marginal"}),
], ids=["sample-beta=1e-300", "fluct-t_max=1e300", "sample-beta=1e-308"])
def test_uncoverable_temperature_is_a_coverage_error(command, section, tmp_path, capsys):
    # no V_eff table of at most MAX_GRID_POINTS grid points covers such a
    # small beta: exit 1 naming it, before the grid is allocated, and nothing
    # written
    cfg = write_config(tmp_path, {
        "model": {**DOUBLE_WELL_MODEL, "mass": 0.2},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 401},
        command: section,
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert re.fullmatch(r"error: [^\n]*beta=\d[^\n]*\n", capsys.readouterr().err)
    assert not out.exists()


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
    # the contrast line is the exact law of the N-level measure, bit for
    # bit, on the truncated model behind the atoms (the exp(-beta V_eff)
    # asymptote reads 2^-1/2 here)
    mp, grid = ModelParams.from_dict(HARMONIC_MODEL), GridSpec(-10.0, 10.0, 801)
    tm = sampling.build_truncated_model(mp, 20, grid)
    assert blob["ensemble_delta_q"] == float(np.sqrt(sampling.exact_moments(tm, 2.0)["var_q"]))
    assert blob["ensemble_delta_q"] == pytest.approx(0.52346, abs=1e-5)
    assert blob["top_level_wall_weight"] == tm.top_level_wall_weight
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


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a run starts: its doublet, truncated model or
    Hamiltonian is never built."""
    from wfgibbs import twostate

    def started(*args, **kwargs):
        raise AssertionError("the run started")

    for module, name in ((twostate, "build_two_state"), (sampling, "build_truncated_model"),
                         (cli, "assemble_hamiltonian")):
        monkeypatch.setattr(module, name, started)


# each case under a fixed id, so that a case can be added or removed
# without renaming the others
OUT_OF_RANGE = {
    "fluct-section0": ("fluct", {"t_min": 0.0}),
    "fluct-section1": ("fluct", {"t_min": -0.5}),
    "fluct-section2": ("fluct", {"t_max": 0.0}),
    "fluct-section3": ("fluct", {"t_max": float("inf")}),
    "fluct-section4": ("fluct", {"n_t": 0}),
    "fluct-section5": ("fluct", {"n_q": 1}),
    "sample-section6": ("sample", {"beta": -1.0}),
    "sample-section7": ("sample", {"beta": 0.0, "validate": "marginal"}),
    "canonical-section8": ("canonical", {"beta": 0.0}),
    "canonical-section9": ("canonical", {"beta": -2.0}),
    "fluct-section10": ("fluct", {"t_min": "abc"}),
    "eig-section11": ("eig", {"k": 0}),
    "veff-section15": ("veff", {"n_q": 0}),
    "veff-section16": ("veff", {"frac": 0.0}),
    "veff-section17": ("veff", {"frac": 1.2}),
    "twostate-section18": ("twostate", {"n_q": 0}),
    "sample-section19": ("sample", {"n_basis": 1}),
    "sample-section20": ("sample", {"tv_tolerance": 0.0}),
    "sample-section21": ("sample", {"tv_tolerance": -1.0, "validate": "marginal"}),
    "sample-section22": ("sample", {"tv_tolerance": float("nan"), "validate": "marginal"}),
    "sample-section23": ("sample", {"tv_tolerance": float("inf")}),
    "canonical-section24": ("canonical", {"k_max": 0}),
    "canonical-section25": ("canonical", {"k_max": 1}),
    # every mass is checked before the first one is solved
    "veff-section26": ("veff", {"masses": [0.5, -1.0]}),
    "twostate-section27": ("twostate", {"masses": [0.5, -1.0]}),
    "fluct-section28": ("fluct", {"masses": [float("nan")]}),
    "veff-section29": ("veff", {"masses": [float("inf")]}),
    "twostate-section30": ("twostate", {"masses": [0.5, 0.0]}),
    # the chain values are checked before the truncated model is built
    "sample-section31": ("sample", {"chains": 0}),
    "sample-section32": ("sample", {"steps_per_chain": 0}),
    "sample-section33": ("sample", {"burn_in": -1}),
    # a batch-means standard error needs two batches, whatever the oracle
    "sample-section34": ("sample", {"chains": 1, "steps_per_chain": 1, "burn_in": 0}),
    "sample-section35": ("sample", {"chains": 1, "steps_per_chain": 1, "validate": "exact"}),
    "sample-section36": ("sample", {"chains": 1, "steps_per_chain": 1, "validate": "marginal"}),
    # no grid of 401 points has more than 401 levels
    "eig-section37": ("eig", {"k": 402}),
    "sample-section38": ("sample", {"n_basis": 402}),
    "canonical-section39": ("canonical", {"k_max": 402}),
    "fluct-section40": ("fluct", {"t_min": float("inf")}),
    "canonical-section41": ("canonical", {"beta": float("inf")}),
    "sample-section42": ("sample", {"beta": float("inf")}),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_values_are_config_errors(tmp_path, capsys, no_work, case):
    # rejected while the config is read: exit 2, before any work, and
    # nothing written
    command, section = OUT_OF_RANGE[case]
    cfg = write_config(tmp_path, {
        "model": HARMONIC_MODEL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
        command: section,
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_level_counts_bind_only_their_own_commands(tmp_path, capsys):
    # the default sample.n_basis (24) and canonical.k_max (16) exceed an
    # 11-point grid: eig, which reads neither, runs; sample exits 2 naming
    # its own count, and a caller that names no command keeps both rules
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, "eig": {"k": 3},
                                  "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 11}})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "eig")]) == 0
    out = tmp_path / "sample"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sample.n_basis" in err and "canonical.k_max" not in err
    assert not out.exists()
    with pytest.raises(wfgibbs.ConfigurationError, match="sample.n_basis .* canonical.k_max"):
        cli.load_config(cfg)


# values whose conversion would not write back as the JSON they were read
# from, each with the part of the message that names its key path
MISREAD = {
    "model_extra_key": ({"model": {**HARMONIC_MODEL, "omega": 1.0}},
                        "model: unknown or missing keys ['omega']"),
    "potential_extra_key": ({"model": {**DOUBLE_WELL_MODEL, "potential": {
        **DOUBLE_WELL_MODEL["potential"], "omega": 1.0}}},
        "model.potential: unknown or missing keys ['omega']"),
    "tilted_base_extra_key": ({"model": {**HARMONIC_MODEL, "potential": {
        "type": "tilted", "strength": 0.1,
        "base": {"type": "harmonic", "omega": 1.0, "w0": 1.0}}}},
        "model.potential.base: unknown or missing keys ['w0']"),
    "grid_extra_key": ({"grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401, "dx": 0.05}},
                       "grid: unknown or missing keys ['dx']"),
    "mass_bool": ({"model": {**HARMONIC_MODEL, "mass": True}}, "model.mass: True"),
    "hbar_str": ({"model": {**HARMONIC_MODEL, "hbar": "1.0"}}, "model.hbar: '1.0'"),
    "omega_str": ({"model": {**HARMONIC_MODEL, "potential": {"type": "harmonic", "omega": "1"}}},
                  "model.potential.omega: '1'"),
    "coefficients_str": ({"model": {**HARMONIC_MODEL, "potential": {
        "type": "polynomial", "coefficients": "123"}}}, "model.potential.coefficients: '123'"),
    "coefficients_bool": ({"model": {**HARMONIC_MODEL, "potential": {
        "type": "polynomial", "coefficients": [0, True, 1]}}},
        "model.potential.coefficients[1]: True"),
    "x_max_bool": ({"grid": {"x_min": -10.0, "x_max": True, "n_points": 401}}, "grid.x_max: True"),
    "beta_bool": ({"sample": {"beta": True}}, "sample.beta: True"),
    "t_min_str": ({"fluct": {"t_min": "0.01"}}, "fluct.t_min: '0.01'"),
    "frac_bool": ({"veff": {"frac": False}}, "veff.frac: False"),
    "validate_int": ({"sample": {"validate": 5}}, "sample.validate: 5"),
    "seed_negative": ({"seed": -1}, "requires seed >= 0"),
}


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
    # an integer key takes an integral number, never truncated, and no bool
    {"fluct": {"n_t": 59.99}},
    {"sample": {"chains": 2.7}},
    {"seed": 1.9},
    {"grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 4001.5}},
    {"eig": {"k": True}},
    {"seed": False},
    {"sample": {"steps_per_chain": "100"}},
    # masses: absent, null or a non-empty list of numbers
    {"veff": {"masses": 0}},
    {"twostate": {"masses": []}},
    {"fluct": {"masses": [0.5, True]}},
    {"veff": {"masses": ["0.5"]}},
    {"veff": {"masses": 0.5}},
    # every value reads back as given (MISREAD)
    *(config for config, _ in MISREAD.values()),
], ids=["no_mass", "no_omega", "mass_str", "seed_str", "seed_inf", "no_x_max", "model_list",
        "coefficients_int", "eig_k_str", "masses_int", "n_t_inf", "output_int", "mass_inf",
        "mass_nan", "hbar_nan", "omega_nan", "w0_nan", "x0_nan", "strength_nan",
        "coefficient_inf", "x_min_inf", "x_max_inf", "n_t_fraction", "chains_fraction",
        "seed_fraction", "n_points_fraction", "k_bool", "seed_bool", "steps_str",
        "masses_zero", "masses_empty", "masses_bool", "masses_str", "masses_float", *MISREAD])
def test_malformed_inputs_are_config_errors(tmp_path, capsys, no_work, config):
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, **config})
    out = tmp_path / "out"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", MISREAD.values(), ids=MISREAD)
def test_misread_values_name_their_key_path(tmp_path, capsys, no_work, config, message):
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, **config})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_negative_seed_flag_is_config_error(tmp_path, capsys, no_work):
    # --seed meets the rules of the config's seed before any work
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL, "seed": 3,
                                  "sample": {"n_basis": 4, "steps_per_chain": 100}})
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "configuration error: value out of range; requires seed >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["veff", "twostate", "fluct"])
@pytest.mark.parametrize("masses", [[1.0000001, 1.0000004], [0.5, 0.5]], ids=["near", "equal"])
def test_colliding_mass_tags_are_config_errors(tmp_path, capsys, no_work, command, masses):
    # two masses with one file tag would write one mass's files over the other's
    cfg = write_config(tmp_path, {"model": DOUBLE_WELL_MODEL, command: {"masses": masses}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and f"{command}.masses {masses}" in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, no_work, out):
    # an output directory that cannot be made is refused before the run
    afile = tmp_path / "afile"
    afile.write_text("kept")
    cfg = write_config(tmp_path, {"model": HARMONIC_MODEL})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert afile.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


def test_readme_example_config_is_valid(tmp_path):
    # the README's example names every key and loads as a config
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    example = json.loads(re.sub(r"//.*", "", block))
    assert set(example) == cli._TOP_KEYS
    for name, defaults in cli._SECTION_DEFAULTS.items():
        assert set(example[name]) == set(defaults), name
    cli.load_config(write_config(tmp_path, example))


def test_integral_numbers_are_integers(tmp_path):
    # an integral float is the integer it names; null masses are the model's
    cfg = cli.load_config(write_config(tmp_path, {
        "model": HARMONIC_MODEL, "seed": 7.0,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401.0},
        "fluct": {"n_t": 60.0, "masses": None}, "veff": {"masses": [2, 0.5]}}))
    integers = (cfg["seed"], cfg["grid"].n_points, cfg["fluct"]["n_t"])
    assert integers == (7, 401, 60) and all(type(n) is int for n in integers)
    assert cfg["fluct"]["masses"] == [HARMONIC_MODEL["mass"]]
    assert cfg["veff"]["masses"] == [2.0, 0.5]


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


def test_package_imports_are_unconditional_and_acyclic():
    # every module imports what it uses at import time, none under
    # TYPE_CHECKING, and the graph of its `from .x import` edges has no cycle
    edges = {}
    for path in sorted(Path(wfgibbs.__file__).parent.glob("*.py")):
        edges[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.If):
                assert "TYPE_CHECKING" not in ast.unparse(node.test), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ImportFrom) and node.level:
                edges[path.stem] |= ({node.module} if node.module
                                     else {alias.name for alias in node.names})
    # peel off the modules that import none of those left: a cycle is never peeled
    while edges:
        leaves = {name for name, imported in edges.items() if not imported & edges.keys()}
        assert leaves, f"import cycle among {sorted(edges)}"
        edges = {name: imported for name, imported in edges.items() if name not in leaves}


def test_every_library_raise_is_a_leaf():
    # one base and four leaves, each mapped to an exit code by cli.main, so
    # no failed run ends in a traceback: every raise in the package builds a
    # leaf or re-raises a caught error by name (a worker's, in _per_mass)
    import builtins
    import importlib

    from wfgibbs import errors

    leaves = {"ConfigurationError", "SolverError", "UsageError", "CoverageError"}
    assert errors.WfGibbsError.__bases__ == (Exception,)
    assert {leaf.__name__ for leaf in errors.WfGibbsError.__subclasses__()} == leaves
    stray = [sub.__name__ for leaf in errors.WfGibbsError.__subclasses__()
             for sub in leaf.__subclasses__()]
    for path in sorted(Path(wfgibbs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"wfgibbs.{path.stem}")
        if path.stem != "errors":
            stray += [node.name for node in tree.body if isinstance(node, ast.ClassDef)
                      and issubclass(getattr(module, node.name), BaseException)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc
                built = isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in leaves
                reraised = isinstance(exc, ast.Name) and not (
                    hasattr(builtins, exc.id) or hasattr(errors, exc.id))
                stray += [] if built or reraised else [f"{path.name}:{node.lineno}"]
    assert not stray


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


def test_only_cli_starts_processes():
    # cli forks the per-mass workers and the sample child, each through
    # _fork, its one os.fork() and os._exit call; the numerics modules start
    # no process, as they do no I/O
    fork = {"fork", "pipe", "_exit"}
    process = fork | {"multiprocessing", "concurrent", "subprocess"}
    for path in sorted(Path(wfgibbs.__file__).parent.glob("*.py")):
        found = process & _identifiers(path)
        assert found == (fork if path.stem == "cli" else set()), path.name
    calls = [(statement.name, node.func.attr)
             for statement in ast.parse(Path(cli.__file__).read_text()).body
             for node in ast.walk(statement)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) == "os"
             and node.func.attr in {"fork", "_exit"}]
    assert calls == [("_fork", "fork"), ("_fork", "_exit")]


def test_only_constrain_builds_tables():
    # every EffectivePotentialTable is a solved table of constrain's
    # builders, whose nodes hold finite exact slopes, so interpolate is
    # cubic Hermite on every table
    for path in sorted(Path(wfgibbs.__file__).parent.glob("*.py")):
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)]
        built = [node.lineno for node in calls if "EffectivePotentialTable" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        assert bool(built) == (path.stem == "constrain"), (path.name, built)


def test_every_library_name_has_a_package_caller():
    # each top-level function and class of the package is referenced, as a
    # name, an attribute or an import, by package code outside its own
    # definition: code that only tests call lives in the tests
    package = sorted(Path(wfgibbs.__file__).parent.glob("*.py"))
    statements = [(path.stem, node) for path in package
                  for node in ast.parse(path.read_text()).body]
    referenced = [{getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
                  for _, node in statements]
    uncalled = [f"{stem}.{node.name}" for i, (stem, node) in enumerate(statements)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not any(node.name in names for j, names in enumerate(referenced) if j != i)]
    assert uncalled == []


def test_cmd_sample_sets_every_chain_setting():
    # every ChainConfig field is a setting that a sample run passes on
    # from its config, so no knob of the sampler is left to tests alone
    tree = ast.parse(Path(sampling.__file__).read_text())
    config = next(node for node in tree.body if getattr(node, "name", None) == "ChainConfig")
    fields = {node.target.id for node in config.body if isinstance(node, ast.AnnAssign)}
    command = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                   if getattr(node, "name", None) == "cmd_sample")
    call = next(node for node in ast.walk(command) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "ChainConfig")
    assert {keyword.arg for keyword in call.keywords} == fields
    assert not call.args


def test_thermal_and_twostate_never_read_meta():
    # a table's doublet is its TwoStateModel field; meta is the table's work
    # record, which only cli serializes
    for stem in ("thermal", "twostate"):
        path = Path(wfgibbs.__file__).parent / f"{stem}.py"
        assert "meta" not in _identifiers(path), path.name


def test_canonical_reads_only_the_n_level_model():
    # canonical's ensemble side is the exact law of the N-level measure:
    # cmd_canonical builds no V_eff table and calls no package module but
    # sampling, and thermal, the module of the V_eff law, imports nothing
    # from sampling
    package = {path.stem for path in Path(wfgibbs.__file__).parent.glob("*.py")}
    command = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                   if getattr(node, "name", None) == "cmd_canonical")
    calls = [node.func for node in ast.walk(command) if isinstance(node, ast.Call)]
    called = {getattr(f, "id", getattr(f, "attr", None)) for f in calls}
    assert not called & {"table_for_betas", "lambda_walk_table", "effective_potential",
                         "fluctuation_curve"}
    modules = {f.value.id for f in calls
               if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)}
    assert modules & package == {"sampling"}
    thermal = ast.parse((Path(wfgibbs.__file__).parent / "thermal.py").read_text())
    imported = {name for node in ast.walk(thermal) if isinstance(node, ast.ImportFrom)
                for name in (node.module or "", *(alias.name for alias in node.names))}
    assert "sampling" not in imported


def test_preset_configs_parse():
    from wfgibbs.cli import load_config

    presets = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert len(presets) == 7
    for preset in presets:
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


def test_veff_run_leaves_out_numpy_polynomial(tmp_path):
    # importing numpy.polynomial takes milliseconds of a fresh process, and
    # the potentials evaluate their power series by np.polyval
    cfg = write_config(tmp_path, {"model": DOUBLE_WELL_MODEL,
                                  "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 801},
                                  "veff": {"n_q": 11}})
    probe = (f"import sys, wfgibbs.cli; "
             f"code = wfgibbs.cli.main(['veff', '--config', {str(cfg)!r}, "
             f"'--out', {str(tmp_path / 'out')!r}]); "
             f"print(code, 'numpy.polynomial' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.splitlines()[-1] == "0 False"


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


def _block_boundary_samples():
    # 2 * _NOISE_BLOCK + 3 distinct rows, but across each block boundary
    # the first chain repeats a row four times and the second has q = -0.0
    # then 0.0 (equal as floats, different as text)
    block = sampling._NOISE_BLOCK
    samples = np.random.default_rng(3).standard_normal((2, 2 * block + 3, 2))
    for edge in (block, 2 * block):
        samples[0, edge - 2:edge + 2] = samples[0, edge - 2]
        samples[1, edge - 1:edge + 1] = [[-0.0, 0.5], [0.0, 0.5]]
    return samples


@pytest.mark.parametrize("case", ["seeded", "beta_zero", "hand_built", "block_boundaries"])
def test_sample_rows_match_per_float_formatting(case, tmp_path, harmonic_grid):
    if case == "hand_built":
        samples = _hand_built_samples()
    elif case == "block_boundaries":
        samples = _block_boundary_samples()
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
    cli.write_csv(tmp_path / "runs.csv", "q,p,chain,step", cli._sample_text(samples))
    expected = (tmp_path / "per_float.csv").read_bytes()
    assert (tmp_path / "runs.csv").read_bytes() == expected
    assert expected.count(b"\n") == 2 + samples.shape[0] * samples.shape[1]


def test_sampler_and_csv_writer_memory_stay_bounded(tmp_path, harmonic_grid):
    # numpy reports its buffers to tracemalloc. The bound is the samples
    # array, five step-major block buffers (the stream's normals and
    # thresholds, the engine's proposals, norms and accept flags) and 4 MiB,
    # which holds the stream's (block, 2N) scratch of one chain, one chain's
    # retained states of a block and the IAT's FFT temporaries (about 2
    # MiB), but not one more noise-sized buffer: a chain-major scratch of
    # every chain's normals would not fit
    tm = sampling.build_truncated_model(ModelParams.from_dict(HARMONIC_MODEL), 8,
                                        harmonic_grid)
    cfg = sampling.ChainConfig(chain_count=8, steps_per_chain=20_000, burn_in=1000, seed=5)
    width, n2 = sampling._NOISE_BLOCK, 2 * tm.n
    block_buffers = width * cfg.chain_count * (2 * n2 * 8 + 8 + 8 + 1)
    tracemalloc.start()
    try:
        run = sampling.sample_ensemble(tm, 2.0, cfg)
        engine_peak = tracemalloc.get_traced_memory()[1]
        writer_peaks = []
        # 1x and 2x the rows by doubling the chains: the writer formats one
        # chain at a time, so its peak must not grow with the row count
        for copies in (1, 2):
            samples = np.concatenate([run.samples[:, :2500]] * copies)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cli.write_csv(tmp_path / "samples.csv", "q,p,chain,step", cli._sample_text(samples))
            writer_peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    bound = run.samples.nbytes + block_buffers + 4 * 2**20
    assert engine_peak < bound
    assert max(writer_peaks) < bound
    assert writer_peaks[1] < 1.1 * writer_peaks[0]
