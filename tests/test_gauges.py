import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fockgauge import (
    cat,
    coherent,
    crescent,
    ellipse,
    full_report,
    number_state,
    random_state,
    squeezed_coherent,
    summarize,
    tight_bound,
)
from fockgauge.gauges import (
    AMPLITUDE_FLAG_TOL, C_LAMBDA_PLUS, C_TIGHT, C_TRACE, INEQUALITIES, SATURATION_TOL, SQUEEZING_TOL,
    InequalityRecord, _record, closed_bound, scan_bound,
)
from fockgauge import gauges
from fockgauge.errors import NonphysicalMomentError
from fockgauge.moments import FLAG_TOL, MomentSummary
from _parents import reference_scan


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
    s, e = _se(number_state(5))
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


# The scan reads the moments into locals and builds its grid in place; every
# operation and its order are the reference scan's, so (bound, theta) must
# agree bit for bit, not merely to a tolerance.
SCAN_FAMILIES = {
    "haar": lambda: (random_state(32, "pure", seed=[21, i]) for i in range(2000)),
    "ginibre": lambda: (
        random_state(16, "mixed", rank=1 + i % 8, seed=[22, i]) for i in range(500)
    ),
    "coherent_and_cat": lambda: [
        *(coherent(alpha) for alpha in (0.05, 1.0, -0.7 + 1.3j, 3.0j, 4.5 - 2.0j)),
        *(cat(alpha, beta) for alpha in (0.4 + 0.1j, 1.5 - 0.8j, 2.2) for beta in (0.0, 0.9, math.pi)),
    ],
    "squeezed_coherent": lambda: [
        squeezed_coherent(alpha, r, phi_s)
        for alpha in (0.3 + 0.2j, -0.05 + 0.4j)
        for r in (0.0, 0.4, 1.1, 1.9, 2.5, 2.8)
        for phi_s in (0.0, 1.3)
    ],
}


@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_scan_is_bit_identical_to_the_reference_scan(family):
    for state in SCAN_FAMILIES[family]():
        s = summarize(state)
        got, want = scan_bound(s), reference_scan(s)
        assert [x.hex() for x in got] == [float(x).hex() for x in want], (family, got, want)


def _scan_table(mean_a: complex, cov_ada: float, var_a: complex) -> MomentSummary:
    # the scan and `ellipse` read mean_a, cov_ada and var_a; the other fields are placeholders
    return MomentSummary(mean_a, 0j, 1.0, 1.0, 0.0, 1.0, var_a, cov_ada, 3.0, False)


@st.composite
def scan_tables(draw):
    """Tables with |<a>| from 1e-11 to 2^499, lambda_-^2 from 1e-11 to 1e12, kappa from 1 to 1e12,
    and any of the four real parts replaced by a zero of either sign."""
    amplitude = 2.0 ** draw(st.floats(math.log2(1e-11), 499.0))
    stick = draw(st.floats(-math.pi, math.pi))
    lam_minus = 10.0 ** draw(st.floats(-11.0, 12.0))
    lam_plus = lam_minus * 10.0 ** draw(st.floats(0.0, 12.0))
    major = draw(st.floats(-math.pi, math.pi))
    spread = (lam_plus - lam_minus) / 2.0
    parts = [
        amplitude * math.cos(stick), amplitude * math.sin(stick),
        spread * math.cos(2.0 * major), spread * math.sin(2.0 * major),
    ]
    zeros = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=4, max_size=4))
    ar, ai, vr, vi = (part if zero is None else zero for part, zero in zip(parts, zeros))
    return _scan_table(complex(ar, ai), (lam_plus + lam_minus) / 2.0, complex(vr, vi))


# The scan evaluates a window of its grid in Python floats, certified to hold
# numpy's argmax, so on any table `ellipse` accepts it must give the reference
# scan's bits.  The examples: CI's bound-overflow table (bound inf), and two
# tables whose window falls back to the whole grid (the ill-conditioned `gauge
# --moments` pin, kappa near 1e11, and a bound near the float range).
ILL_CONDITIONED = _scan_table(
    0.46968635642368944 + 0.17144890372772567j,
    110603.34800392535,
    -84594.10660658094 - 71252.63305037815j,
)


@given(scan_tables())
@example(_scan_table(3.27e150 + 3.27e150j, 1e-9, 0j))
@example(ILL_CONDITIONED)
@example(_scan_table(complex(2.0**499, -0.0), 2.0**-30, 1e-10 + 1e-12j))
@settings(max_examples=400)
def test_scan_matches_the_reference_scan_on_synthetic_tables(table):
    try:
        applicable = not ellipse(table).zero_stick_flag
    except NonphysicalMomentError:
        applicable = False
    assume(applicable)  # the scan's precondition
    with np.errstate(over="ignore"):
        want = reference_scan(table)
    assert [x.hex() for x in scan_bound(table)] == [float(x).hex() for x in want]


def test_an_uncertified_window_falls_back_to_one_pass_over_the_grid(monkeypatch):
    points = []

    def counted(ar, ai, cov, vr, vi, s, c, s2, c2):
        points.append(np.size(s))
        return grid_values(ar, ai, cov, vr, vi, s, c, s2, c2)

    grid_values = gauges._grid_values
    monkeypatch.setattr(gauges, "_grid_values", counted)
    scan_bound(ILL_CONDITIONED)
    assert sum(points) <= 3 + 1024


# The window evaluates the grid expression on Python floats, the fallback on
# float64 columns; both must give every grid value's bits, overflow included.
@given(scan_tables())
@example(_scan_table(3.27e150 + 3.27e150j, 1e-9, 0j))
@example(ILL_CONDITIONED)
@example(_scan_table(complex(2.0**499, -0.0), 2.0**-30, 1e-10 + 1e-12j))
@settings(max_examples=200)
def test_the_grid_expression_gives_the_same_bits_on_floats_and_on_columns(table):
    moments = (table.mean_a.real, table.mean_a.imag, table.cov_ada, table.var_a.real, table.var_a.imag)
    with np.errstate(over="ignore"):
        columns = gauges._grid_values(*moments, *gauges._COLUMNS)
    floats = [gauges._grid_values(*moments, *trig) for trig in gauges._TRIG]
    assert [x.hex() for x in floats] == [x.hex() for x in columns.tolist()]


# ------------------------------------------------------------- relaxed bounds

def test_relaxed_bounds_coherent():
    for record in _relaxed(coherent(1.0)):
        assert record.slack >= -1e-9


def test_canonical_pair_saturates_for_imaginary_amplitude():
    pair_x = full_report(*_se(coherent(1.5j))).records["canonical_pair_x"]
    assert pair_x.saturated  # Var n Var x = |<p>|^2 / 4 when <x> = 0
    assert pair_x.lhs == pytest.approx(1.5**2 / 2.0, abs=1e-8)


def test_relaxed_bounds_vacuum_trivial():
    for record in _relaxed(number_state(0)):
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
    s, e = _se(number_state(2))
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
    assert full_report(*_se(number_state(1))).g1 is None


def test_g2_vacuum():
    report = full_report(*_se(number_state(0)))
    assert report.g2 == pytest.approx(1.0, abs=1e-14)
    assert report.g2_alt is None
    assert not report.g2_amplitude_warning


def test_g2_cat():
    assert full_report(*_se(cat(1.0, 0.0))).g2 == pytest.approx(1.0, abs=1e-8)


def test_g2_single_photon_and_printed_alternative():
    report = full_report(*_se(number_state(1)))
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


def _bits(record):
    # float.hex tells -0.0 from +0.0
    return type(record), [float(x).hex() for x in record[:3]], record[3:]


@pytest.mark.parametrize(
    "state", [coherent(1.0 + 0.5j), squeezed_coherent(0.6, 0.8, 1.1), number_state(2), squeezed_coherent(0.0, 0.5)],
    ids=["coherent", "squeezed", "number", "squeezed-vacuum"],
)
def test_every_record_is_built_from_its_registry_row(state):
    s, e = _se(state)
    report = full_report(s, e)
    expected = {
        row.name: _record(*row.sides(s, e, report.tight), row.tolerance)
        for row in INEQUALITIES
        if report.tight.applicable or not row.needs_amplitude
    }
    assert len(expected) == (11 if abs(s.mean_a) > 0.1 else 8)
    assert list(report.records) == list(expected)
    for name, record in report.records.items():
        assert _bits(record) == _bits(expected[name]), name
    squeezing = _record(e.lambda_minus_sq, 0.5, SQUEEZING_TOL)
    assert _bits(report.squeezing) == _bits(squeezing)
    assert report.squeezed is squeezing.violated
    # the closed-form row's lhs is -0.0, so its slack keeps the sign of -deviation
    if report.tight.applicable:
        assert report.records["closed_form_agreement"].lhs.hex() == "-0x0.0p+0"


@pytest.mark.parametrize("lhs, rhs, tolerance", [(1.0, 0.5, 1e-9), (-0.0, 0.0, 1e-9), (0.5, 0.5 + 2e-9, 1e-9),
                                                 (0.0, -0.0, 1e-10), (1e-300, 3.0, 0.0)])
def test_record_holds_the_fields_in_declaration_order(lhs, rhs, tolerance):
    slack = lhs - rhs
    built = InequalityRecord(lhs, rhs, slack, abs(slack) <= SATURATION_TOL, slack < -tolerance)
    assert _bits(_record(lhs, rhs, tolerance)) == _bits(built)


@pytest.mark.parametrize("state", [coherent(0.9 - 0.6j), number_state(1)], ids=["coherent", "zero-amplitude"])
def test_records_hold_each_field_under_its_name(state):
    # the package builds the four records with tuple.__new__, which takes the
    # fields by position; each field, read by name, must relate to the others
    # as the formula that made it says
    s = summarize(state)
    e = ellipse(s)
    report = full_report(s, e)
    tight, floor, scan = report.tight, report.records["second_order_floor"], report.records.get("tight_scan")
    assert s.mean_n2 == s.mean_a2da2 + s.mean_n
    assert s.var_n == s.mean_n2 - s.mean_n**2
    assert s.var_a == s.mean_a2 - s.mean_a**2
    assert s.cov_ada == s.mean_n + 0.5 - abs(s.mean_a) ** 2
    assert s.cov_a2 == s.mean_a2da2 + 2.0 * s.mean_n + 1.0 - abs(s.mean_a2) ** 2
    assert s.truncation_warning is False
    assert e.lambda_plus_sq == s.cov_ada + abs(s.var_a)
    assert e.lambda_minus_sq == s.cov_ada - abs(s.var_a)
    assert e.zero_stick_flag is (abs(s.mean_a) < FLAG_TOL)
    assert e.stick_angle == (0.0 if e.zero_stick_flag else math.atan2(s.mean_a.imag, s.mean_a.real))
    assert e.major_axis_angle == (0.0 if abs(s.var_a) < FLAG_TOL else math.atan2(s.var_a.imag, s.var_a.real) / 2.0)
    assert tight.applicable == (not e.zero_stick_flag)
    assert tight.slack == s.var_n - tight.bound_scan
    assert (tight.bound_scan, tight.theta_star) == (scan_bound(s) if tight.applicable else (0.0, 0.0))
    assert tight.bound_closed == (closed_bound(s, e) if tight.applicable else 0.0)
    assert report.g1 == (scan.lhs / scan.rhs if tight.applicable else None)
    assert report.g2 == floor.lhs / floor.rhs
    assert report.g2_alt == (s.var_n + 4.0 * (e.lambda_plus_sq - 0.5) * (e.lambda_minus_sq + 0.5)) / s.mean_n
    assert report.g2_amplitude_warning is (abs(s.mean_a) > AMPLITUDE_FLAG_TOL)
    assert report.squeezing == _record(e.lambda_minus_sq, 0.5, SQUEEZING_TOL)
    assert report.squeezed is report.squeezing.violated
    assert list(report.records) == [row.name for row in INEQUALITIES if tight.applicable or not row.needs_amplitude]
    for record in (s, e, tight, report):
        assert type(record)(**record._asdict()) == record


def test_constants_are_the_calibrated_values():
    assert C_TIGHT == 0.5
    assert C_LAMBDA_PLUS == 0.5
    assert C_TRACE == 0.25
