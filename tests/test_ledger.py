import json

import pytest

from make_ledger import LEDGER, record, runs, versions

LEDGER_DATA = json.loads(LEDGER.read_text())


def _moves(recorded: dict, now: dict) -> list:
    """Each changed file's largest relative change of a column's min, max
    or sum, per column, as lines of text."""
    lines = []
    for name in sorted(set(recorded) | set(now)):
        if name not in recorded or name not in now:
            lines.append(f"{name}: {'written' if name in now else 'missing'}")
            continue
        if recorded[name]["sha256"] == now[name]["sha256"]:
            continue
        lines.append(f"{name}: changed")
        for column, old in recorded[name].get("columns", {}).items():
            new = now[name]["columns"].get(column, {})
            if new.get("rows") != old["rows"]:
                lines.append(f"  {column}: {old['rows']} -> {new.get('rows')} rows")
                continue
            change = max(abs(new[key] - old[key]) / max(abs(old[key]), 1e-300)
                         for key in ("min", "max", "sum"))
            lines.append(f"  {column}: largest relative change {change:.3g}")
    return lines


def test_ledger_lists_every_run():
    assert list(LEDGER_DATA["runs"]) == [f"{preset} {command}" for preset, command in runs()]


@pytest.mark.parametrize("preset,command", runs(), ids=[f"{p}-{c}" for p, c in runs()])
def test_outputs_match_the_ledger(preset, command):
    """Every output byte, the exit code, stdout and stderr of each ledger
    run are as recorded. Bit-identity holds on the build the ledger was
    made with, so on other Python, numpy or scipy versions this test skips,
    naming both sets: a column compared at a tolerance chosen there would
    pass or fail on that build's last digits, not on this program. Rerun
    tests/make_ledger.py on such a build to check it."""
    if versions() != LEDGER_DATA["versions"]:
        pytest.skip(f"the ledger was made with {LEDGER_DATA['versions']}, this is {versions()}")
    recorded, now = LEDGER_DATA["runs"][f"{preset} {command}"], record(preset, command)
    assert now["exit"] == recorded["exit"]
    assert now["stdout"] == recorded["stdout"] and now["stderr"] == recorded["stderr"]
    assert now["files"] == recorded["files"], "\n".join(_moves(recorded["files"], now["files"]))
