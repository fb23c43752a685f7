"""Regenerate ``mpmath_reference.json``, the mpmath values that the exact
moment oracle is tested against, with the truncated models they belong to.

    python3 tests/make_mpmath_reference.py

Each case records a truncated model (energies, q and p forms, as
``build_truncated_model`` makes them) and, at each beta, the variances of
<q> and <p> that ``conftest.exact_sphere_variance`` computes for it from
confluent divided differences in mpmath. That takes seconds per case, and
the oracle under test under a millisecond per beta. Run it again when the
truncated models change: ``test_reference_models_are_current`` fails then.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from conftest import double_well, exact_sphere_variance, harmonic  # noqa: E402
from wfgibbs import GridSpec, build_truncated_model  # noqa: E402

REFERENCE = TESTS / "mpmath_reference.json"

# name: (model, levels, grid, betas); beta = 0.01 clusters the nodes
# beta (E - E0), where a Pade expm fails, and the double well's weights
# exp(-beta (E - E_0)) are subnormal at beta = 1e12 and zero at 1e15
CASES = {
    **{f"harmonic_n{n}": (harmonic(), n, GridSpec(-10.0, 10.0, 4001),
                          [0.0, 0.01, 1.0, 2.0, 10.0]) for n in (2, 8, 24)},
    "double_well_m0.5_n24": (double_well(0.5), 24, GridSpec(-6.0, 6.0, 801),
                             [1e11, 1e12, 1e15, 1e19]),
}


def reference_case(model, levels, grid, betas) -> dict:
    tm = build_truncated_model(model, levels, grid)
    return {
        "model": model.to_dict(), "levels": levels, "grid": grid.to_dict(),
        "energies": tm.energies.tolist(), "q_matrix": tm.q_matrix.tolist(),
        "p_matrix_imag": tm.p_matrix_imag.tolist(), "betas": betas,
        "var_q": [exact_sphere_variance(tm.energies, tm.q_matrix, b) for b in betas],
        "var_p": [exact_sphere_variance(tm.energies, abs(tm.p_matrix_imag), b) for b in betas],
    }


def main() -> None:
    cases = {name: reference_case(*case) for name, case in CASES.items()}
    REFERENCE.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {REFERENCE} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
