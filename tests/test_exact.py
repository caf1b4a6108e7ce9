"""Accuracy against exact arithmetic: the moment summary, the tight bound, the
gauges and the registry sides of fixed sample states, each held to its worst
error in ULP of max(1, |value|) against `_oracles.exact_summary`, which takes
the exact moments of the stored float64 amplitudes or density entries.

Each bound sits a little above the error the package shows today.  A change
that loses bits fails here; one that gains them tightens the bound it beats.
"""

import functools
import math
from decimal import Decimal

import numpy as np
import pytest

from fockgauge import (
    DensityMatrix,
    cat,
    coherent,
    crescent,
    ellipse,
    full_report,
    number_state,
    random_state,
    squeezed_coherent,
    summarize,
)
from _oracles import EXACT_ROWS, exact_summary, ulp_error

# Small fixed samples of each family.  The cats are even and odd ones, the
# extremal states of G2, whose <a> is zero so that the tight rows do not
# apply, and cats of |alpha| below 2 at other phases, whose <a> is not
# small: beyond that <a> shrinks as exp(-2 |alpha|^2) and G1 grows past 1e20.
SAMPLES = {
    "coherent": lambda: [
        coherent(a) for a in (0.6 - 0.2j, 1.3 + 0.9j, -2.2 + 1.4j, 3.1 - 2.5j, -4.8 + 0.7j, -6.5 + 3.9j)
    ],
    "crescent": lambda: [
        crescent(a, added)
        for a, added in (
            (0.7 + 0.3j, 1), (1.5 - 1.1j, 2), (-2.6 + 0.4j, 3), (3.4 + 2.0j, 1), (-1.2 - 4.1j, 2), (5.5 - 5.2j, 2)
        )
    ],
    "cat": lambda: [
        cat(a, beta)
        for a, beta in (
            (2.0 + 0.5j, 0.0), (-3.1 + 1.2j, math.pi), (0.4 + 4.2j, 0.0), (5.9 - 2.2j, math.pi),
            (0.8 - 0.3j, 1.1), (-1.3 + 0.9j, 2.4), (1.7 + 0.2j, 0.6),
        )
    ],
    "displaced_squeezed": lambda: [
        squeezed_coherent(a, r, phi)
        for a, r, phi in (
            (0.5 + 0.2j, 0.3, 0.4), (1.4 - 0.8j, 0.6, -1.2), (-2.1 + 1.5j, 0.9, 2.5),
            (2.8 + 0.3j, 1.0, 0.0), (0.2 - 3.0j, 0.5, -2.9), (4.6 + 2.1j, 0.8, 1.0),
        )
    ],
    "haar_pure": lambda: [random_state(32, "pure", seed=[11, i]) for i in range(10)],
    "haar_mixed": lambda: [random_state(16, "mixed", rank=1 + i % 4, seed=[12, i]) for i in range(8)],
}
_SUMMARY_GROUPS = {
    **dict.fromkeys(
        ("mean_a.re", "mean_a.im", "mean_a2.re", "mean_a2.im", "mean_n", "mean_n2", "mean_a2da2"), "moments"
    ),
    "var_n": "var_n",
    "cov_ada": "cov_ada",
    "var_a.re": "var_a",
    "var_a.im": "var_a",
    "cov_a2": "cov_a2",
    "bound": "bound",
    "g1": "gauges",
    "g2": "gauges",
}
GROUPS = ("moments", "var_n", "cov_ada", "var_a", "cov_a2", "bound", "gauges", "sides", "slacks")
# Worst error of each group over each family, in ULP of max(1, |value|); the
# columns follow GROUPS.  "sides" is every lhs and rhs of EXACT_ROWS, "slacks"
# every slack: a slack near 0 has the absolute error of its larger side.  Each
# bound is the worst error measured when it was set, times 1.25 and at least
# plus 1, rounded up to two digits; CHANGES.md lists the measured values.
ULP_BOUNDS = {
    "coherent": (3, 93, 62, 47, 31, 48, 74, 400, 4200),
    "crescent": (3, 110, 99, 92, 38, 51, 69, 570, 4000),
    "cat": (3, 44, 2, 3, 24, 2, 230, 55, 1600),
    "displaced_squeezed": (3, 22, 28, 25, 15, 790, 410, 790, 26000),
    "haar_pure": (4, 10, 3, 5, 2, 2, 8, 13, 13),
    "haar_mixed": (3, 23, 3, 3, 3, 2, 23, 24, 24),
}


def _group(key: str) -> str:
    return _SUMMARY_GROUPS.get(key) or ("slacks" if key.endswith(".slack") else "sides")


def package_values(state) -> dict:
    """The package's float for each key of `exact_summary` that applies to the state."""
    summary = summarize(state)
    report = full_report(summary, ellipse(summary))
    values = {}
    for name, value in summary.to_dict().items():
        if isinstance(value, dict):
            values[f"{name}.re"], values[f"{name}.im"] = value["re"], value["im"]
        elif not isinstance(value, bool):
            values[name] = value
    if report.tight.applicable:
        values["bound"], values["g1"] = report.tight.bound_scan, report.g1
    values["g2"] = report.g2
    for name in EXACT_ROWS:
        record = report.records.get(name)  # a row that needs <a> is absent when <a> is zero
        if record is not None:
            values.update({f"{name}.lhs": record.lhs, f"{name}.rhs": record.rhs, f"{name}.slack": record.slack})
    return values


@functools.cache
def worst_errors(family: str) -> dict:
    worst = dict.fromkeys(GROUPS, 0.0)
    for state in SAMPLES[family]():
        exact = exact_summary(state)
        for key, value in package_values(state).items():
            group = _group(key)
            worst[group] = max(worst[group], ulp_error(value, exact[key]))
    return worst


@pytest.mark.parametrize("family", SAMPLES)
def test_each_field_stays_within_its_ulp_bound_of_the_exact_value(family):
    worst = worst_errors(family)
    over = {
        group: (round(worst[group], 1), bound)
        for group, bound in zip(GROUPS, ULP_BOUNDS[family])
        if worst[group] > bound
    }
    assert not over, f"{family}: worst ULP error above its bound (worst, bound): {over}"


def test_exact_values_of_number_states_are_the_textbook_ones():
    for n in range(5):
        exact = exact_summary(number_state(n))
        assert exact["mean_n"] == n and exact["mean_n2"] == n * n and exact["var_n"] == 0
        assert exact["mean_a.re"] == exact["mean_a.im"] == exact["var_a.re"] == exact["var_a.im"] == 0
        assert exact["cov_ada"] == n + Decimal("0.5")
        assert exact["cov_a2"] == n * n + n + 1
        assert float(exact["g2"]) == (n * n + n + 1) / (2 * n + 1)


def test_exact_g1_is_one_on_a_coherent_state():
    # a coherent state saturates the tight bound: G1 = 1 up to its truncated tail
    exact = exact_summary(coherent(1.3 + 0.9j))
    assert abs(exact["g1"] - 1) < Decimal("1e-11")
    assert exact["bound"] == exact["tight_scan.rhs"] == exact["hierarchy.lhs"]


def test_density_entries_and_amplitudes_give_the_same_exact_values():
    # rho = c c^dag rounds each entry once, so the two exact routes differ by rounding only
    state = crescent(1.1 - 0.6j, 2)
    rho = DensityMatrix(state.amplitudes.reshape(-1, 1))
    pure, mixed = exact_summary(state), exact_summary(rho)
    assert pure.keys() == mixed.keys()
    assert max(ulp_error(float(mixed[key]), pure[key]) for key in pure) < 64


def test_ulp_error_counts_units_of_the_last_place():
    assert ulp_error(1.0, Decimal(1)) == 0.0
    assert ulp_error(1.0 + 2 * np.finfo(float).eps, Decimal(1)) == 2.0
    assert ulp_error(1e-30, Decimal(0)) == pytest.approx(1e-30 / math.ulp(1.0))
    assert ulp_error(1024.0 + 3 * math.ulp(1024.0), Decimal(1024)) == 3.0
