"""Property-based checks of the structural invariants over random states."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockgauge import (
    DensityMatrix,
    FockVector,
    ellipse,
    full_report,
    normally_ordered_moment,
    summarize,
    tight_bound,
)
from _oracles import fidelity, lowered, quadrature_var_direct, raised

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def fock_vectors(draw, max_dim=20):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    res = draw(st.lists(finite, min_size=dim, max_size=dim))
    ims = draw(st.lists(finite, min_size=dim, max_size=dim))
    amps = np.asarray(res, dtype=float) + 1j * np.asarray(ims, dtype=float)
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return FockVector(np.pad(amps / norm, (0, 4)))


@given(fock_vectors())
def test_commutator_is_one(psi):
    up, down = raised(psi.amplitudes), lowered(psi.amplitudes)
    assert np.vdot(up, up).real - np.vdot(down, down).real == pytest.approx(1.0, abs=1e-10)


@given(fock_vectors(), st.integers(0, 2), st.integers(0, 2))
def test_moment_hermiticity(psi, j, k):
    assert normally_ordered_moment(psi, j, k) == pytest.approx(
        np.conj(normally_ordered_moment(psi, k, j)), abs=1e-12
    )


@given(fock_vectors(max_dim=12))
@settings(max_examples=40)
def test_pure_equals_rank_one_density(psi):
    rho = DensityMatrix(psi.amplitudes[:, None])
    for j, k in ((0, 1), (1, 1), (0, 2), (2, 2)):
        assert normally_ordered_moment(psi, j, k) == pytest.approx(
            normally_ordered_moment(rho, j, k), abs=1e-12
        )
    assert fidelity(psi, rho) == pytest.approx(1.0, abs=1e-10)


@given(fock_vectors(max_dim=14), st.floats(0.0, 2 * math.pi, allow_nan=False))
@settings(max_examples=60)
def test_quadrature_decomposition(psi, theta):
    s = summarize(psi)
    var_formula = s.cov_ada + (s.var_a * np.exp(2j * theta)).real
    assert var_formula == pytest.approx(quadrature_var_direct(psi, theta), abs=1e-10)


@given(fock_vectors())
def test_area_law_and_covariance_floor(psi):
    s = summarize(psi)
    e = ellipse(s)
    assert s.cov_ada >= 0.5 - 1e-10
    assert e.lambda_plus_sq * e.lambda_minus_sq >= 0.25 - 1e-10


@given(fock_vectors())
def test_pair_covariance_floor(psi):
    s = summarize(psi)
    assert full_report(s, ellipse(s)).g2 >= 1.0 - 1e-9


@given(fock_vectors(max_dim=16))
@settings(max_examples=60)
def test_scanned_bound_is_valid(psi):
    s = summarize(psi)
    report = tight_bound(s, ellipse(s))
    if report.applicable:
        assert report.slack >= -1e-9
        assert abs(report.bound_closed - report.bound_scan) <= 1e-9 * (1 + report.bound_scan)

