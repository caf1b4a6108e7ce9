import math

import numpy as np
import pytest

from fockgauge import (
    cat,
    coherent,
    crescent,
    ellipse,
    fock,
    full_report,
    random_state,
    squeezed_coherent,
    summarize,
    tight_bound,
)
from fockgauge.gauges import C_LAMBDA_PLUS, C_TIGHT, C_TRACE, scan_bound


def _se(state):
    s = summarize(state)
    return s, ellipse(s)


RELAXED = ("relaxed_lambda_plus", "relaxed_trace", "canonical_pair_x", "canonical_pair_p")


def _relaxed(state):
    records = full_report(*_se(state)).records
    return [records[name] for name in RELAXED]


# ------------------------------------------------------------- tight bound

def test_tight_bound_coherent_two():
    s, e = _se(coherent(2.0))
    report = tight_bound(s, e)
    assert report.applicable
    assert report.bound_scan == pytest.approx(4.0, abs=1e-8)
    assert report.slack == pytest.approx(0.0, abs=1e-8)
    assert report.theta_star == pytest.approx(math.pi / 2, abs=1e-6)


def test_tight_bound_inapplicable_on_number_state():
    s, e = _se(fock(5))
    report = tight_bound(s, e)
    assert not report.applicable
    assert report.bound_scan == 0.0


def test_tight_bound_crescent_saturates():
    s, e = _se(crescent(1.0, 2, eps_tail=1e-24))
    report = tight_bound(s, e)
    assert report.slack <= 1e-8 * s.var_n


def test_closed_form_matches_scan():
    for seed in range(6):
        s, e = _se(random_state(24, "pure", seed=seed))
        report = tight_bound(s, e)
        assert abs(report.bound_closed - report.bound_scan) <= 1e-9 * (1 + report.bound_scan)


def test_scan_dominates_every_angle():
    s, e = _se(squeezed_coherent(1.0 + 0.5j, 0.7, 0.3))
    bound, theta_star = scan_bound(s)
    for theta in np.linspace(0, math.pi, 257):
        p = math.sqrt(2) * (s.mean_a * np.exp(1j * theta)).imag
        var_x = s.cov_ada + (s.var_a * np.exp(2j * theta)).real
        assert p * p / (4 * var_x) <= bound + 1e-12


# ------------------------------------------------------------- relaxed bounds

def test_relaxed_bounds_coherent():
    for record in _relaxed(coherent(1.0)):
        assert record.slack >= -1e-9


def test_canonical_pair_saturates_for_imaginary_amplitude():
    pair_x = full_report(*_se(coherent(1.5j))).records["canonical_pair_x"]
    assert pair_x.saturated  # Var n Var x = |<p>|^2 / 4 when <x> = 0
    assert pair_x.lhs == pytest.approx(1.5**2 / 2.0, abs=1e-8)


def test_relaxed_bounds_vacuum_trivial():
    for record in _relaxed(fock(0)):
        assert record.rhs == pytest.approx(0.0, abs=1e-13)
        assert record.slack >= -1e-13


def test_relaxed_bounds_random_states():
    for seed in range(5):
        for record in _relaxed(random_state(32, "pure", seed=100 + seed)):
            assert record.slack >= -1e-9


# ------------------------------------------------------------- constraints

def test_constraints_coherent_saturates_covariance_floor():
    report = full_report(*_se(coherent(1.3)))
    assert report.records["covariance_floor"].saturated
    assert not report.squeezed


def test_constraints_squeezed_saturates_area():
    report = full_report(*_se(squeezed_coherent(0.0, 1.0)))
    assert report.records["uncertainty_area"].saturated
    assert report.squeezed


def test_constraints_number_state():
    s, e = _se(fock(2))
    report = full_report(s, e)
    assert not report.squeezed
    assert e.lambda_minus_sq == pytest.approx(2.5)
    assert report.records["second_order_floor"].slack == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------------------------- gauges

def test_g1_coherent_is_one():
    for alpha in (0.5, 1.0, 2.0, 1.0 + 1.0j):
        assert full_report(*_se(coherent(alpha))).g1 == pytest.approx(1.0, abs=1e-8)


def test_g1_crescent_is_one():
    assert full_report(*_se(crescent(0.8, 3, eps_tail=1e-24))).g1 == pytest.approx(1.0, abs=1e-6)


def test_g1_not_applicable_for_zero_amplitude():
    assert full_report(*_se(fock(1))).g1 is None


def test_g2_vacuum():
    report = full_report(*_se(fock(0)))
    assert report.g2 == pytest.approx(1.0, abs=1e-14)
    assert report.g2_alt is None
    assert not report.g2_amplitude_warning


def test_g2_cat():
    assert full_report(*_se(cat(1.0, 0.0))).g2 == pytest.approx(1.0, abs=1e-8)


def test_g2_single_photon_and_printed_alternative():
    report = full_report(*_se(fock(1)))
    assert report.g2 == pytest.approx(1.0, abs=1e-14)
    # the alternative printed expression disagrees here; reported, not asserted
    assert report.g2_alt == pytest.approx(8.0, abs=1e-12)


def test_g2_amplitude_warning():
    assert full_report(*_se(coherent(1.0))).g2_amplitude_warning
    assert not full_report(*_se(cat(1.0, 0.0))).g2_amplitude_warning


def test_g2_floor_on_random_states():
    for seed in range(5):
        report = full_report(*_se(random_state(20, "pure", seed=50 + seed)))
        assert report.g2 >= 1.0 - 1e-9


# ------------------------------------------------------------- hierarchy

@pytest.mark.parametrize(
    "state",
    [
        coherent(1.0),
        squeezed_coherent(1.0, 0.5, 0.0),
        random_state(16, "mixed", rank=4, seed=3),
    ],
)
def test_hierarchy(state):
    report = full_report(*_se(state))
    assert report.tight.applicable
    assert report.to_dict()["hierarchy_ok"] is True
    assert not report.records["hierarchy"].violated


def test_full_report_shape():
    s, e = _se(coherent(1.0 + 0.5j))
    report = full_report(s, e)
    assert report.g1 == pytest.approx(1.0, abs=1e-8)
    data = report.to_dict()
    assert data["hierarchy_ok"] is True
    assert data["constraints"] == {
        "covariance_floor": report.records["covariance_floor"].to_dict(),
        "uncertainty_area": report.records["uncertainty_area"].to_dict(),
        "squeezing": report.squeezing.to_dict(),
        "second_order_floor": report.records["second_order_floor"].to_dict(),
    }
    assert data["tight"]["applicable"] is True
    assert len(data["canonical_pair"]) == 2


def test_constants_are_the_calibrated_values():
    assert C_TIGHT == 0.5
    assert C_LAMBDA_PLUS == 0.5
    assert C_TRACE == 0.25
