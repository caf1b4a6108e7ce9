"""Acceptance suite: one pass/fail line per criterion (run with pytest -s)."""

import math
import time

import pytest

from fockgauge import (
    SweepConfig,
    calibrate,
    cat,
    coherent,
    crescent,
    ellipse,
    figure_rows,
    full_report,
    number_state,
    photon_added,
    summarize,
    sweep,
    tight_bound,
)
from fockgauge.cli import dumps
from _oracles import crescent_eigen_residual, fidelity

TIGHT_EPS = 1e-24  # tail tolerance used where eigenvector residuals are checked


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


@pytest.fixture(scope="module")
def ensemble_sweeps():
    start = time.perf_counter()
    pure = sweep(SweepConfig(n_pure=10_000, n_mixed=0, cutoff=32, seed=1))
    mixed = sweep(SweepConfig(n_pure=0, n_mixed=1_000, cutoff=16, rank=8, seed=2))
    return pure, mixed, time.perf_counter() - start


def test_criterion_01_coherent_tight_saturation():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.0j, 1.0 + 2.0j):
        s = summarize(coherent(alpha))
        report = tight_bound(s, ellipse(s))
        worst = max(worst, abs(s.var_n - report.bound_scan) / max(1.0, s.var_n))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "coherent saturation of the scanned tight bound",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst rel dev {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_crescent_saturation_and_eigenvector():
    start = time.perf_counter()
    worst_g1 = 0.0
    worst_res = 0.0
    for mag in (0.3, 1.0, 2.0):
        for phase in (0.0, math.pi / 3):
            alpha = mag * complex(math.cos(phase), math.sin(phase))
            for added in (1, 2, 3):
                state = crescent(alpha, added, eps_tail=TIGHT_EPS)
                s = summarize(state)
                report = full_report(s, ellipse(s))
                worst_g1 = max(worst_g1, abs(report.g1 - 1.0))
                residual, _ = crescent_eigen_residual(state, alpha)
                worst_res = max(worst_res, residual)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "extremal-state gauge and eigenvector residual",
        worst_g1 <= 1e-6 and worst_res <= 1e-8 and elapsed < 5.0,
        f"worst |G1-1| {worst_g1:.2e}, worst residual {worst_res:.2e}, {elapsed:.2f} s",
    )


def test_criterion_03_construction_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for mag in (0.5, 1.25, 2.0):
        for phase in (0.0, math.pi / 5, math.pi / 2, 2.7):
            alpha = mag * complex(math.cos(phase), math.sin(phase))
            for added in range(6):
                deficit = 1.0 - fidelity(
                    crescent(alpha, added, method="operator"),
                    crescent(alpha, added, method="laguerre"),
                )
                worst = max(worst, deficit)
    elapsed = time.perf_counter() - start
    _report(
        3,
        "operator and closed-form constructions agree",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst 1-F {worst:.2e}, {elapsed:.2f} s",
    )


CRITERION_4_INEQUALITIES = (
    "tight_scan",
    "canonical_pair_x",
    "canonical_pair_p",
    "covariance_floor",
    "uncertainty_area",
    "second_order_floor",
    "relaxed_lambda_plus",
    "relaxed_trace",
)


def test_criterion_04_random_ensemble_sweep(ensemble_sweeps):
    pure, mixed, elapsed = ensemble_sweeps
    violations = sum(
        report.tallies[name].violations
        for report in (pure, mixed)
        for name in CRITERION_4_INEQUALITIES
    )
    checked_ok = (
        pure.tallies["tight_scan"].checked == 10_000
        and mixed.tallies["covariance_floor"].checked == 1_000
        and pure.skipped == 0
        and mixed.skipped == 0
    )
    _report(
        4,
        "random-ensemble inequality sweep",
        violations == 0 and checked_ok and elapsed < 60.0,
        f"violations {violations}, {elapsed:.1f} s for 10k pure + 1k mixed, "
        f"min trace-bound ratio {pure.min_trace_ratio:.4f} (reported, stays > 1)",
    )


def test_criterion_05_closed_form_agreement(ensemble_sweeps):
    pure, mixed, _ = ensemble_sweeps
    violations = sum(r.tallies["closed_form_agreement"].violations for r in (pure, mixed))
    worst = min(r.tallies["closed_form_agreement"].worst_slack for r in (pure, mixed))
    _report(
        5,
        "closed form matches the scan across the ensemble",
        violations == 0,
        f"worst rel deviation {-worst:.2e}",
    )


def test_criterion_06_pair_covariance_gauge_saturation():
    start = time.perf_counter()
    worst_cat = 0.0
    for mag in (0.5, 1.0, 2.0):
        for beta in (0.0, math.pi):
            s = summarize(cat(mag, beta))
            g2 = full_report(s, ellipse(s)).g2
            worst_cat = max(worst_cat, abs(g2 - 1.0))
    worst_fock = max(
        abs(full_report(s, ellipse(s)).g2 - 1.0) for s in (summarize(number_state(n)) for n in (0, 1))
    )
    elapsed = time.perf_counter() - start
    _report(
        6,
        "square-amplitude eigenstates saturate the pair gauge",
        worst_cat <= 1e-8 and worst_fock <= 1e-12 and elapsed < 1.0,
        f"worst cat {worst_cat:.2e}, worst number-state {worst_fock:.2e}, {elapsed:.2f} s",
    )


def test_criterion_07_squeezed_area_saturation():
    from fockgauge import squeezed_coherent

    worst = 0.0
    all_squeezed = True
    for r in (0.2, 0.5, 1.0, 1.5):
        s = summarize(squeezed_coherent(0.0, r))
        e = ellipse(s)
        worst = max(worst, abs(abs(s.var_a) ** 2 - (s.cov_ada**2 - 0.25)))
        squeezed = full_report(s, e).squeezed
        all_squeezed = all_squeezed and squeezed and e.lambda_minus_sq < 0.5
    _report(
        7,
        "squeezed vacua saturate the area constraint and classify squeezed",
        worst <= 1e-10 and all_squeezed,
        f"worst area residual {worst:.2e}",
    )


def test_criterion_08_weak_field_limit():
    ok = True
    details = []
    for added in (1, 2, 3):
        fids = [
            fidelity(crescent(a, added), photon_added(a, added))
            for a in (0.2, 0.1, 0.05, 0.01)
        ]
        ok = ok and fids[2] >= 0.999
        ok = ok and all(f2 > f1 for f1, f2 in zip(fids, fids[1:]))
        details.append(f"M={added}: F(0.05)={fids[2]:.6f}")
    _report(8, "photon-added limit at weak fields", ok, "; ".join(details))


def test_criterion_09_figure_datasets(ensemble_sweeps):
    pure, mixed, _ = ensemble_sweeps
    _, fig3 = figure_rows("fig3", 17)
    vertex = [row for row in fig3 if row[0] == 0.0 and row[1] == 0.0]
    vertex_ok = len(vertex) == 1 and vertex[0][2] == 0.5 and vertex[0][3] == 0.5
    hyper_violations = sum(
        r.tallies["hyperboloid_surface"].violations for r in (pure, mixed)
    )
    _, fig4 = figure_rows("fig4", 32)
    fig4_ok = all(var_n - bound >= 0.0 for _, _, _, var_n, bound, _ in fig4)
    gaps = [rel_gap for *_, rel_gap in fig4]
    gaps_ok = all(math.isfinite(g) and g >= 0.0 for g in gaps)
    _report(
        9,
        "figure datasets: vertex, hyperboloid validity, bound validity",
        vertex_ok and hyper_violations == 0 and fig4_ok and gaps_ok,
        f"median rel gap {sorted(gaps)[len(gaps) // 2]:.3f}",
    )


def test_criterion_10_calibration_audit():
    report = calibrate()
    estimates = [a["c_estimate"] for a in report.anchors]
    anchor_ok = max(estimates) - min(estimates) <= 1e-8
    slack_ok = all(abs(a["closed_slack"]) <= 1e-10 for a in report.anchors)
    tags = [row["tag"] for row in report.printed_vs_derived]
    table_ok = tags == ["tight_closed_form", "relaxed_lambda_plus", "relaxed_trace"]
    constants_ok = (
        abs(report.c_tight - 0.5) <= 1e-10 and report.c1 == report.c_tight and report.c2 == 0.25
    )
    deterministic = dumps(calibrate().to_dict()) == dumps(report.to_dict())
    config = SweepConfig(n_pure=50, n_mixed=10, cutoff=12, rank=3, seed=9)
    deterministic = deterministic and dumps(sweep(config).to_dict()) == dumps(
        sweep(config).to_dict()
    )
    _report(
        10,
        "calibration audit and byte determinism",
        anchor_ok and slack_ok and table_ok and constants_ok and deterministic,
        f"c_tight={report.c_tight!r}, c1={report.c1!r}, c2={report.c2!r}",
    )
