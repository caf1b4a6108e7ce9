import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockgauge import (
    CutoffExplosionError,
    SchemaError,
    SweepConfig,
    ZeroNormError,
    approx_strong_field,
    cat,
    coherent,
    crescent,
    ellipse,
    full_report,
    normally_ordered_moment,
    number_state,
    photon_added,
    random_state,
    squeezed_coherent,
    state_from_spec,
    summarize,
)
from fockgauge import states
from fockgauge.fock import BOUNDARY_PAD, FockVector
from _oracles import (
    crescent_eigen_residual,
    fidelity,
    laguerre_series,
    square_annihilate_residual,
    strong_field_norm_inverse,
)
from _parents import (
    reference_coherent_amps,
    reference_laguerre_amps,
    reference_random_state,
    reference_squeezed_coherent,
    reference_strong_field,
)


# ---------------------------------------------------------------- coherent

def test_coherent_vacuum_limit():
    v = coherent(0.0)
    assert v.amplitudes[0] == pytest.approx(1.0)
    assert np.allclose(v.amplitudes[1:], 0.0)


def test_coherent_ground_amplitude():
    assert abs(coherent(1.0).amplitudes[0]) == pytest.approx(math.exp(-0.5), abs=1e-13)


def test_coherent_poisson_statistics():
    s = summarize(coherent(1.0))
    assert s.mean_n == pytest.approx(1.0, abs=1e-12)
    assert s.var_n == pytest.approx(1.0, abs=1e-12)


def test_coherent_eps_validation():
    with pytest.raises(ValueError):
        coherent(1.0, eps_tail=1e-3)
    with pytest.raises(ValueError):
        coherent(1.0, eps_tail=0.0)


def test_coherent_beyond_float_range_of_unscaled_amplitudes():
    # the Poisson peak e^{|alpha|^2} / sqrt(2 pi |alpha|^2) exceeds the largest
    # double from |alpha| of about 26.7 on
    for alpha in (27.0, 40.0, 59.0):
        s = summarize(coherent(alpha))
        assert abs(s.mean_n / alpha**2 - 1.0) < 1e-13
        assert abs(full_report(s, ellipse(s)).g1 - 1.0) < 1e-10


def test_coherent_cutoff_ceiling(monkeypatch):
    monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", "16")
    with pytest.raises(CutoffExplosionError):
        coherent(4.0)


@pytest.mark.parametrize(
    "ceiling,build",
    [
        # the recurrence may not grow past the ceiling before its tail test passes
        ("100", lambda: squeezed_coherent(0.0, 0.5)),
        ("4096", lambda: squeezed_coherent(0.0, 2.81)),
        # M added photons on top of a coherent state already at the ceiling
        ("16", lambda: photon_added(1.0, 16)),
        ("16", lambda: crescent(1.0, 16)),
        ("16", lambda: crescent(1.0, 16, method="laguerre")),
        ("16", lambda: approx_strong_field(1.0, 0.5)),
    ],
    ids=["squeezed-chunk", "squeezed-r", "photon_added", "crescent", "laguerre", "strong_field"],
)
def test_grown_cutoffs_respect_the_ceiling(monkeypatch, ceiling, build):
    monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", ceiling)
    with pytest.raises(CutoffExplosionError):
        build()


def test_cutoff_ceiling_is_inclusive_and_spares_random_states(monkeypatch):
    # at the default ceiling of 4096 a squeezed vacuum builds up to |r| of about 2.805
    assert squeezed_coherent(0.0, 2.75).cutoff - BOUNDARY_PAD == 3713
    assert squeezed_coherent(0.0, -2.805).cutoff - BOUNDARY_PAD == 4096
    monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", "16")
    assert coherent(1.0).cutoff - BOUNDARY_PAD == 16
    assert random_state(32, "pure", seed=1).cutoff - BOUNDARY_PAD == 32


# ---------------------------------------------------------------- fock

def test_fock_examples():
    s = summarize(number_state(2))
    assert s.mean_n == pytest.approx(2.0)
    assert s.var_n == pytest.approx(0.0, abs=1e-14)
    assert summarize(number_state(1)).mean_a == pytest.approx(0.0 + 0.0j)


def test_fock_bounds():
    with pytest.raises(ValueError):
        number_state(-1)


# ---------------------------------------------------------------- squeezed

def test_squeezed_r0_is_coherent():
    assert fidelity(squeezed_coherent(1.1 - 0.6j, 0.0), coherent(1.1 - 0.6j)) >= 1 - 1e-12


def test_squeezed_vacuum_semiaxes():
    s = summarize(squeezed_coherent(0.0, 0.5))
    lam_plus = s.cov_ada + abs(s.var_a)
    lam_minus = s.cov_ada - abs(s.var_a)
    assert lam_plus == pytest.approx(math.e / 2.0, abs=1e-12)
    assert lam_minus == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)


def test_squeezed_saturates_area_constraint():
    s = summarize(squeezed_coherent(0.0, 0.5))
    assert abs(s.var_a) ** 2 == pytest.approx(s.cov_ada**2 - 0.25, abs=1e-10)


def test_squeezed_displacement_moves_stick_only():
    plain = summarize(squeezed_coherent(0.0, 0.8, 0.3))
    moved = summarize(squeezed_coherent(1.0 + 0.5j, 0.8, 0.3))
    assert moved.mean_a == pytest.approx(1.0 + 0.5j, abs=1e-10)
    assert moved.var_a == pytest.approx(plain.var_a, abs=1e-10)
    assert moved.cov_ada == pytest.approx(plain.cov_ada, abs=1e-10)


def _assert_analytic_squeezed_moments(alpha, r, state):
    s = summarize(state)
    mean_n = abs(alpha) ** 2 + math.sinh(r) ** 2
    assert abs(s.mean_n - mean_n) <= 1e-12 * max(1.0, mean_n), (alpha, r, s.mean_n, mean_n)
    assert abs(s.mean_a - alpha) <= 1e-12 * max(1.0, abs(alpha)), (alpha, r, s.mean_a)
    assert not s.truncation_warning


@pytest.mark.filterwarnings("error")
def test_squeezed_beyond_float_range_of_unscaled_amplitudes():
    # the unscaled recurrence leaves the float range from |alpha| of about 27 at r = 0
    for alpha, r, phi_s in [(27.0, 0.0, 0.0), (21.0, 1.0, 3.14159), (40.0, 0.3, 0.0)]:
        _assert_analytic_squeezed_moments(alpha, r, squeezed_coherent(alpha, r, phi_s))
    with pytest.raises(CutoffExplosionError):
        squeezed_coherent(1e300, 0.3)


@settings(derandomize=True, database=None, deadline=None)
@given(
    st.floats(0.0, 64.0),
    st.floats(-math.pi, math.pi),
    st.floats(-3.0, 3.0),
    st.floats(-10.0, 10.0),
)
def test_squeezed_builds_with_analytic_moments_or_meets_the_ceiling(size, phase, r, phi_s):
    alpha = size * complex(math.cos(phase), math.sin(phase))
    try:
        state = squeezed_coherent(alpha, r, phi_s)
    except CutoffExplosionError:
        return
    _assert_analytic_squeezed_moments(alpha, r, state)


def test_squeezed_reaches_the_ceiling_like_coherent():
    # the recurrence's last round stops at the ceiling instead of passing it
    for alpha, cutoff in [(58.0, 3845), (59.0, 3973), (60.0, 4096 + BOUNDARY_PAD)]:
        state = squeezed_coherent(alpha, 0.0)
        assert state.cutoff == cutoff
        assert coherent(alpha).cutoff <= cutoff
        _assert_analytic_squeezed_moments(alpha, 0.0, state)
    with pytest.raises(CutoffExplosionError):
        squeezed_coherent(61.0, 0.0)


def test_squeezed_range_follows_a_raised_ceiling(monkeypatch):
    monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", "8192")
    _assert_analytic_squeezed_moments(80.0, 0.5, squeezed_coherent(80.0, 0.5, 1.0))


def test_squeezed_memory_follows_the_levels_built_not_the_ceiling(monkeypatch):
    monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", "1000000")
    tracemalloc.start()
    try:
        state = squeezed_coherent(1.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # cutoff 133 (about 16 kB at peak); one complex array of the ceiling's size alone takes 16 MB
    assert state.cutoff < 300 and peak < 2**20


# Every kind built on the coherent run has its tail and photon order checked
# there, with one message each; crescent at alpha 0 as well, on either method.
ON_THE_COHERENT_RUN = [
    pytest.param(lambda eps_tail, m: coherent(1.2, eps_tail), False, id="coherent"),
    pytest.param(lambda eps_tail, m: cat(1.2, 0.0, eps_tail), False, id="cat"),
    pytest.param(lambda eps_tail, m: approx_strong_field(1.2, 0.5, eps_tail), False, id="strong_field"),
    pytest.param(lambda eps_tail, m: approx_strong_field(1.2, [0.5, 2.0], eps_tail), False, id="strong_field-block"),
    pytest.param(lambda eps_tail, m: photon_added(1.2, m, eps_tail), True, id="photon_added"),
    *(
        pytest.param(
            lambda eps_tail, m, alpha=alpha, method=method: crescent(alpha, m, method, eps_tail),
            True,
            id=f"crescent-{method}-{alpha}",
        )
        for method in ("operator", "laguerre")
        for alpha in (0.0, 1.2)
    ),
]


@pytest.mark.parametrize("build,takes_order", ON_THE_COHERENT_RUN)
def test_the_coherent_run_checks_tail_and_photon_order(build, takes_order):
    assert build(states.DEFAULT_EPS_TAIL, 2).cutoff > 0
    for eps_tail in (0.0, 1e-5):
        with pytest.raises(ValueError, match=r"^eps_tail must lie in \(0, 1e-06\]"):
            build(eps_tail, 2)
    for m in (-1, 17) if takes_order else ():
        with pytest.raises(ValueError, match=r"^photon addition order must lie in \[0, 16\]$"):
            build(states.DEFAULT_EPS_TAIL, m)


# random_state and SweepConfig share one shape rule, for either kind
@pytest.mark.parametrize(
    "cutoff,rank,field", [(257, 1, "cutoff"), (8, 0, "rank"), (8, 10, "rank")], ids=["cutoff", "rank-0", "rank-high"]
)
def test_random_shape_is_one_rule(cutoff, rank, field):
    message = rf'^field "{field}" must lie in \[.*\], got {cutoff if field == "cutoff" else rank}$'
    for kind in ("pure", "mixed"):
        with pytest.raises(ValueError, match=message):
            random_state(cutoff, kind, rank=rank)
    with pytest.raises(ValueError, match=message):
        SweepConfig(n_pure=1, n_mixed=1, cutoff=cutoff, rank=rank)
    with pytest.raises(SchemaError, match=f'random_mixed": field "{field}"'):
        state_from_spec({"kind": "random_mixed", "cutoff": cutoff, "rank": rank, "seed": 0})


def test_squeezed_r_limit():
    with pytest.raises(ValueError):
        squeezed_coherent(0.0, 3.5)


# ---------------------------------------------------------------- crescent

def test_crescent_vacuum_gives_number_states():
    for m in (1, 3):
        built = crescent(0.0, m)
        assert fidelity(built, number_state(m)) == pytest.approx(1.0, abs=1e-13)
        built = crescent(0.0, m, method="laguerre")
        assert fidelity(built, number_state(m)) == pytest.approx(1.0, abs=1e-13)


def test_crescent_construction_equivalence():
    f = fidelity(crescent(1.0, 2), crescent(1.0, 2, method="laguerre"))
    assert f >= 1 - 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("size", [1e-200, 1e-160])
def test_crescent_laguerre_at_tiny_amplitude(size, m):
    # |alpha|^2 underflows to 0 (1e-200) or is subnormal (1e-160)
    laguerre = crescent(size, m, method="laguerre")
    assert fidelity(laguerre, crescent(size, m)) == pytest.approx(1.0, abs=1e-12)


def test_crescent_eigenvector_property():
    for alpha in (0.4, 1.2 * np.exp(0.9j)):
        for m in (1, 4):
            state = crescent(alpha, m, eps_tail=1e-24)
            residual, omega = crescent_eigen_residual(state, alpha)
            assert residual <= 1e-8
            assert omega.real == pytest.approx(m + abs(alpha) ** 2, abs=1e-9)
            assert omega.imag == pytest.approx(0.0, abs=1e-9)


def test_crescent_order_limit():
    with pytest.raises(ValueError):
        crescent(1.0, 17)
    with pytest.raises(ValueError):
        crescent(1.0, 2, method="newton")


# ---------------------------------------------------------------- photon added

def test_photon_added_vacuum():
    assert fidelity(photon_added(0.0, 1), number_state(1)) == pytest.approx(1.0, abs=1e-13)


def test_photon_added_mean_occupation():
    # <n> of a^dag|alpha> is (|a|^4 + 3|a|^2 + 1)/(|a|^2 + 1); equals 5/2 at alpha=1
    s = summarize(photon_added(1.0, 1))
    assert s.mean_n == pytest.approx(2.5, abs=1e-12)


def test_photon_added_weak_field_limit():
    # convergence is monotone as the field weakens; the deficit per added
    # photon is |alpha|^2 to leading order, so 0.999 is reached by 0.01
    fids = [fidelity(photon_added(a, 2), crescent(a, 2)) for a in (0.2, 0.1, 0.05, 0.01)]
    assert all(f2 > f1 for f1, f2 in zip(fids, fids[1:]))
    assert fids[-1] >= 0.999


def test_photon_added_single_addition_overlap_closed_form():
    # |<pa|crescent>|^2 = (1+2u)^2 / ((1+u)(1+4u)) with u = |alpha|^2, from a
    # hand expansion of both unnormalized vectors
    for a in (0.05, 0.1, 0.4):
        u = a * a
        expected = (1 + 2 * u) ** 2 / ((1 + u) * (1 + 4 * u))
        assert fidelity(photon_added(a, 1), crescent(a, 1)) == pytest.approx(
            expected, abs=1e-10
        )


# ---------------------------------------------------------------- strong field

def test_strong_field_gamma_zero():
    assert fidelity(approx_strong_field(1.4, 0.0), coherent(1.4)) >= 1 - 1e-12


def test_strong_field_matches_crescent():
    assert fidelity(approx_strong_field(3.0, 1.0 / 3.0), crescent(3.0, 1)) >= 0.99


def test_strong_field_mean_amplitude_analytic():
    alpha, gamma = 2.0 + 0.0j, 0.5 + 0.0j
    inv = strong_field_norm_inverse(alpha, gamma)
    expected = alpha + (gamma + abs(gamma) ** 2 * alpha) / inv
    s = summarize(approx_strong_field(alpha, gamma))
    assert s.mean_a == pytest.approx(expected, abs=1e-10)


def test_strong_field_mean_occupation_analytic():
    alpha, gamma = 1.3 + 0.4j, 0.2 - 0.6j
    inv = strong_field_norm_inverse(alpha, gamma)
    expected = 1 + abs(alpha) ** 2 + (abs(gamma) ** 2 * abs(alpha) ** 2 - 1) / inv
    s = summarize(approx_strong_field(alpha, gamma))
    assert s.mean_n == pytest.approx(expected, abs=1e-10)


def test_strong_field_large_admixture_tends_to_photon_added():
    assert fidelity(approx_strong_field(0.5, 1e6), photon_added(0.5, 1)) >= 1 - 1e-9


def _bits(amplitudes):
    return amplitudes.view(np.uint64)


def test_strong_field_batch_matches_scalar_calls():
    gammas = [0, 1 / 3, 0.5j, -1 + 1j, 2**500, 1e6]
    for alpha in (3.0, 1.3 + 0.4j):
        block = approx_strong_field(alpha, gammas)
        assert block.amplitudes.shape == (len(gammas), block.cutoff + 1)
        for gamma, row in zip(gammas, block.amplitudes):
            assert np.array_equal(_bits(row), _bits(approx_strong_field(alpha, gamma).amplitudes))
    empty = approx_strong_field(3.0, [])
    assert empty.amplitudes.shape == (0, approx_strong_field(3.0, 0.5).cutoff + 1)
    assert all(column.shape == (0,) for column in summarize(empty))
    for gammas in ([], [0.5, 1.0]):
        with pytest.raises(ValueError, match="eps_tail"):
            approx_strong_field(3.0, gammas, eps_tail=0.0)


def test_strong_field_gamma_shapes():
    scalar = approx_strong_field(2.0, 0.5 - 0.25j).amplitudes
    for zero_d in (np.array(0.5 - 0.25j), np.complex128(0.5 - 0.25j)):
        assert np.array_equal(_bits(approx_strong_field(2.0, zero_d).amplitudes), _bits(scalar))
    assert np.array_equal(_bits(approx_strong_field(2.0, np.array([0.5 - 0.25j])).amplitudes[0]), _bits(scalar))
    for bad in (np.ones((2, 2)), [[0.5], [1.0]]):
        with pytest.raises(ValueError, match="gamma"):
            approx_strong_field(2.0, bad)


def _fig4_phases():
    return [np.linspace(0.0, 1.0, 2048) * complex(math.cos(p), math.sin(p)) for p in (0.0, math.pi / 4, math.pi / 2)]


# Zero parts of either sign, a non-binary fraction, gammas from 2^500 on (whose
# rows are built with gamma divided out; Python's and numpy's complex division
# differ on 0.9 * 2^500 - 2^500 i), a gamma whose product with the ladder run
# overflows, and blocks mixing both regimes.
STRONG_FIELD_GAMMAS = [
    0.5 - 0.25j,
    np.array(0.5 - 0.25j),
    np.complex128(-1.0 + 1.0j),
    0.0,
    -0.0,
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    1 / 3,
    2.0**500,
    1e300,
    complex(1.7e308, -1.7e308),
    complex(0.9 * 2.0**500, -(2.0**500)),
    [complex(-0.0, 0.0)],
    [1 / 3],
    [2.0**500],
    [1e300],
    [complex(1.7e308, -1.7e308)],
    [0.0, complex(0.9 * 2.0**500, -(2.0**500)), 1 / 3, complex(-3e250, 7e249), -0.0, 1e-300,
     complex(1.7e308, -1.7e308), -(2.0**499), complex(0.0, 2.0**500), 2.0**500 * (1 - 2.0**-53)],
    *_fig4_phases(),
    np.concatenate(_fig4_phases()),  # fig4's one block
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [3.0, 1.3 + 0.4j, 1e-3])
def test_strong_field_is_bit_identical_to_the_per_gamma_oracle(alpha):
    for gamma in STRONG_FIELD_GAMMAS:
        got = approx_strong_field(alpha, gamma).amplitudes
        want = reference_strong_field(alpha, gamma)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), gamma


@pytest.mark.filterwarnings("error")
def test_strong_field_refuses_the_first_nan_of_a_block_as_the_oracle_does():
    for gammas in ([complex(2.0**501, 0.0), NAN, NAN_J], [0.5, 2.0**500, NAN_J, NAN]):
        with pytest.raises(ValueError) as want:
            reference_strong_field(1.0, gammas)
        with pytest.raises(ValueError) as got:
            approx_strong_field(1.0, gammas)
        assert str(got.value) == str(want.value)


def _row_norms(block):
    """Each row's norm through the vector path, or None where the row cancelled."""
    norms = []
    for row in block:
        try:
            norms.append(states._norm(row))
        except ZeroNormError:
            norms.append(None)
    return norms


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 37, 133])
def test_block_norms_are_bit_identical_to_the_vector_norms(width):
    rng = np.random.default_rng(width)
    scales = 2.0 ** np.arange(-400, 401, 25)
    block = (rng.standard_normal((scales.size, width)) + 1j * rng.standard_normal((scales.size, width)))
    block *= scales[:, None]
    norms = _row_norms(block)
    kept = [i for i, norm in enumerate(norms) if norm is not None]
    got = states._norm(block[kept])
    assert got.shape == (len(kept), 1)
    assert np.array_equal(got[:, 0].view(np.int64), np.array([norms[i] for i in kept]).view(np.int64))
    # a row the vector path refuses makes the whole block refuse
    with pytest.raises(ZeroNormError):
        states._norm(block)
    assert states._norm(block[:0]).shape == (0, 1)


def test_block_refuses_an_unnormalized_row():
    with pytest.raises(ValueError, match="row 1"):
        FockVector(np.array([[1.0, 0.0], [1.0, 1.0]]))
    for bad in ([[[1.0]]], np.zeros((2, 0))):
        with pytest.raises(ValueError):
            FockVector(bad)
    with pytest.raises(ZeroNormError):
        states._finalize(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.complex128))
    # a row that cancels between normal rows is refused too
    rows = np.array([[1.0, 1.0j, 0.5], [1e-14, 0.0, -1e-14j], [0.0, 3.0, 4.0]], dtype=np.complex128)
    with pytest.raises(ZeroNormError):
        states._finalize(rows)
    assert states._finalize(rows[::2]).amplitudes.shape == (2, 3 + BOUNDARY_PAD)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [1e154, 1e200j, complex(1.7e308, -1.7e308)])
def test_strong_field_beyond_the_float_range_of_its_norm(gamma):
    # gamma a^dag |alpha> alone outgrows the float range; the ray is still built
    assert fidelity(approx_strong_field(2.0, gamma), photon_added(2.0, 1)) >= 1 - 1e-12
    assert strong_field_norm_inverse(2.0, gamma) == math.inf


@pytest.mark.filterwarnings("error")
def test_strong_field_norm_beyond_the_float_range_of_its_parts():
    assert strong_field_norm_inverse(1e300, 1.0) == math.inf
    assert strong_field_norm_inverse(1e154, 1e154) == math.inf
    # with no admixture the norm stays 1, however large alpha is
    assert strong_field_norm_inverse(1e300, 0.0) == 1.0


def test_strong_field_norm_never_cancels():
    # the squared norm is bounded below by 1/(1 + |alpha|^2), so the
    # zero-norm guard cannot fire for finite parameters
    for alpha in (0.0, 1.0, 2.0 + 1.0j):
        worst = min(
            strong_field_norm_inverse(alpha, t * -alpha / (1 + abs(alpha) ** 2))
            for t in np.linspace(0.0, 4.0, 41)
        )
        assert worst >= 1.0 / (1.0 + abs(alpha) ** 2) - 1e-12


# ---------------------------------------------------------------- cat

def test_cat_zero_mean_amplitude():
    s = summarize(cat(1.0, 0.0))
    assert abs(s.mean_a) <= 1e-13


def test_cat_square_eigenstate():
    # residual scales with the truncated tail amplitude, so build tightly
    for beta in (0.0, math.pi, 1.1):
        state = cat(1.0, beta, eps_tail=1e-24)
        assert square_annihilate_residual(state, 1.0) <= 1e-10


def test_cat_odd_parity_support():
    amps = cat(0.5, math.pi).amplitudes
    assert np.allclose(amps[::2], 0.0, atol=1e-14)
    assert np.max(np.abs(amps[1::2])) > 0.1


def test_cat_cancellation():
    with pytest.raises(ZeroNormError):
        cat(0.0, math.pi)


# ---------------------------------------------------------------- random

def test_random_determinism():
    a = random_state(32, "pure", seed=7)
    b = random_state(32, "pure", seed=7)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = random_state(16, "mixed", rank=4, seed=11)
    d = random_state(16, "mixed", rank=4, seed=11)
    assert np.array_equal(c.entries, d.entries)


def test_random_pure_normalized():
    assert abs(np.add.reduce(random_state(32, "pure", seed=7).probabilities) - 1.0) <= 1e-12


def test_random_mixed_is_physical():
    rho = random_state(16, "mixed", rank=4, seed=11)
    evals = np.linalg.eigvalsh(rho.entries)
    assert evals[0] >= -1e-12
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("cutoff", [0, 32, 256])
def test_random_state_is_bit_identical_to_the_two_draw_oracle(cutoff, kind):
    for i in range(40):
        rank = 1 + (37 * i) % (cutoff + 1) if kind == "mixed" else 1
        got = random_state(cutoff, kind, rank=rank, seed=[5, i])
        want = reference_random_state(cutoff, kind, rank, [5, i])
        if kind == "pure":
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes(), i
        else:
            assert got.entries.tobytes() == want.entries.tobytes(), i


def test_random_bounds():
    with pytest.raises(ValueError):
        random_state(300, "pure")
    with pytest.raises(ValueError):
        random_state(8, "mixed", rank=0)
    with pytest.raises(ValueError):
        random_state(8, "thermal")


# ---------------------------------------------------------------- laguerre

def test_laguerre_base_cases():
    # the series oracle at its base cases L_0 = 1 and L_1 = 1 + a - x
    assert laguerre_series(0, 5, 2.3) == pytest.approx(1.0)
    assert laguerre_series(1, -2, 0.5) == pytest.approx(-1.5)


def test_laguerre_quadratic_negative_index():
    # L_2^a(x) = (a+1)(a+2)/2 - (a+2) x + x^2/2 evaluated at a=-1, x=1
    a, x = -1, 1.0
    expected = (a + 1) * (a + 2) / 2 - (a + 2) * x + x * x / 2
    assert expected == pytest.approx(-0.5)
    assert laguerre_series(2, -1, 1.0) == pytest.approx(expected, abs=1e-14)


def test_laguerre_matches_series_oracle():
    # crescent amplitudes are proportional to
    # sqrt(n!) (alpha^*)^{M-n} L_n^{(M-n)}(-|alpha|^2)
    for alpha in (0.3, 1.0 * np.exp(0.7j), 1.6 - 0.9j):
        for m in (1, 2, 3):
            amps = crescent(alpha, m, method="laguerre").amplitudes[:-BOUNDARY_PAD]
            expected = np.array(
                [
                    math.sqrt(math.factorial(n))
                    * np.conj(alpha) ** (m - n)
                    * laguerre_series(n, m - n, -abs(alpha) ** 2)
                    for n in range(amps.size)
                ]
            )
            expected /= np.linalg.norm(expected)
            assert np.allclose(amps, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", range(17))
def test_laguerre_amps_are_bit_identical_to_the_reference(m):
    # |alpha|^2 underflows to 0 (1e-200), is subnormal (1e-160, 1e-155) or is
    # just inside the normal range (2e-154); no bit may move anywhere
    for size in (1e-200, 1e-160, 1e-155, 2e-154, 1e-8, 0.05, 0.3, 1.0, 1.7, 3.2, 5.0):
        for phase in (0.0, 0.7, -2.4, math.pi):
            alpha = size * complex(math.cos(phase), math.sin(phase))
            for eps_tail in (states.DEFAULT_EPS_TAIL, 1e-24):
                top = states._coherent_amps(alpha, eps_tail, m).size - 1 + m
                got = states._crescent_laguerre_amps(alpha, m, top)
                want = reference_laguerre_amps(alpha, m, eps_tail)
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (size, phase, m)


# The grid on which the package's three amplitude loops replay the parent's:
# alpha from 0 to past the 2^500 rescale (|alpha|^2 of about 693), r of either
# sign (a zero of either sign too), and phi_s = 0, whose real nu gives exact
# zero parts with their signs
REPLAY_ALPHAS = (0, 1e-3, 0.3, -1.2 + 0.7j, 3j, 5 - 2j, 20, 40 + 10j, 60)
REPLAY_RS = (0.0, -0.0, 0.2, -0.9, 1.5, 2.2, 2.8)
REPLAY_PHIS = (0.0, 1.1, -2.5, math.pi)


@pytest.fixture(params=[None, "100"], ids=["default-ceiling", "ceiling-100"])
def ceiling(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("FOCKGAUGE_MAX_CUTOFF", raising=False)
    else:
        monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", request.param)


def _outcome(build, *args):
    """The amplitude bytes of a build, or the type and message of its refusal."""
    try:
        built = build(*args)
    except (CutoffExplosionError, ZeroNormError, ValueError) as exc:
        return type(exc), str(exc)
    return getattr(built, "amplitudes", built).tobytes()


def _laguerre_amps(alpha, added, eps_tail):
    # the closed form on the levels the package's coherent loop sizes, as `crescent` reads them
    return states._crescent_laguerre_amps(alpha, added, states._coherent_amps(alpha, eps_tail, added).size - 1 + added)


@pytest.mark.parametrize("alpha", REPLAY_ALPHAS)
def test_squeezed_amps_replay_the_parent_loop(ceiling, alpha):
    for r in REPLAY_RS:
        for phi_s in REPLAY_PHIS:
            want = _outcome(reference_squeezed_coherent, alpha, r, phi_s)
            assert _outcome(squeezed_coherent, alpha, r, phi_s) == want, (r, phi_s)


@pytest.mark.parametrize("alpha", REPLAY_ALPHAS)
def test_coherent_and_laguerre_amps_replay_the_parent_loop(ceiling, alpha):
    eps_tail = states.DEFAULT_EPS_TAIL
    for added in range(states.MAX_ADDED_PHOTONS + 1):
        want = _outcome(reference_coherent_amps, alpha, eps_tail, added)
        assert _outcome(states._coherent_amps, alpha, eps_tail, added) == want, added
        want = _outcome(reference_laguerre_amps, complex(alpha), added, eps_tail)
        assert _outcome(_laguerre_amps, complex(alpha), added, eps_tail) == want, added


# ---------------------------------------------------------------- spec parsing

def test_spec_roundtrip_examples():
    state = state_from_spec(
        {"kind": "coherent", "alpha": {"re": 1.0, "im": 0.0}, "eps_tail": 1e-14}
    )
    assert normally_ordered_moment(state, 0, 1) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    state = state_from_spec({"kind": "fock", "n": 2})
    assert summarize(state).mean_n == pytest.approx(2.0)
    state = state_from_spec({"kind": "random_mixed", "cutoff": 8, "rank": 2, "seed": 5})
    assert state.cutoff >= 8


def test_spec_seed_is_an_integer_or_a_list_of_them():
    for seed in (5, [5], [5, 2], [0, 10**30]):
        built = state_from_spec({"kind": "random_mixed", "cutoff": 8, "rank": 2, "seed": seed})
        assert np.array_equal(built.entries, random_state(8, "mixed", rank=2, seed=seed).entries)
        built = state_from_spec({"kind": "random_pure", "cutoff": 8, "seed": seed})
        assert np.array_equal(built.amplitudes, random_state(8, "pure", seed=seed).amplitudes)


def test_spec_rejects_irrelevant_fields():
    with pytest.raises(SchemaError):
        state_from_spec({"kind": "fock", "n": 2, "alpha": {"re": 1, "im": 0}})


def test_spec_rejects_missing_and_unknown():
    with pytest.raises(SchemaError):
        state_from_spec({"kind": "coherent"})
    with pytest.raises(SchemaError):
        state_from_spec({"kind": "laser", "alpha": {"re": 1, "im": 0}})
    with pytest.raises(SchemaError):
        state_from_spec({"kind": "coherent", "alpha": {"re": 1}})
    with pytest.raises(SchemaError):
        state_from_spec({"kind": "coherent", "alpha": {"re": 1, "im": "x"}})
    with pytest.raises(SchemaError):
        state_from_spec([1, 2])
    one = {"re": 1, "im": 0}
    for spec, field in (
        ({"kind": "cat", "alpha": one, "beta": math.nan}, "beta"),
        ({"kind": "cat", "alpha": one, "beta": math.inf}, "beta"),
        ({"kind": "cat", "alpha": one, "beta": 10**400}, "beta"),
        ({"kind": "cat", "alpha": one, "beta": True}, "beta"),
        ({"kind": "coherent", "alpha": {"re": True, "im": 0}}, "alpha"),
        ({"kind": "coherent", "alpha": {"re": 1, "im": math.nan}}, "alpha"),
        ({"kind": ["coherent"], "alpha": one}, "kind"),
        ({"kind": "random_pure", "cutoff": 4, "seed": -1}, "seed"),
        ({"kind": "random_mixed", "cutoff": 4, "rank": 2, "seed": -7}, "seed"),
        ({"kind": "random_pure", "cutoff": 4, "seed": []}, "seed"),
        ({"kind": "random_pure", "cutoff": 4, "seed": [3, -1]}, "seed"),
        ({"kind": "random_pure", "cutoff": 4, "seed": [3, True]}, "seed"),
        ({"kind": "random_mixed", "cutoff": 4, "rank": 2, "seed": [3, 1.0]}, "seed"),
        ({"kind": "random_mixed", "cutoff": 4, "rank": 2, "seed": [[3]]}, "seed"),
    ):
        with pytest.raises(SchemaError, match=field):
            state_from_spec(spec)


NAN = math.nan
NAN_J = complex(0.0, math.nan)


@pytest.mark.filterwarnings("error")  # refused up front, before any numpy arithmetic that could warn
@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: coherent(NAN), "alpha"),
        (lambda: coherent(NAN_J), "alpha"),
        (lambda: photon_added(NAN, 2), "alpha"),
        (lambda: crescent(NAN_J, 2, method="operator"), "alpha"),
        (lambda: crescent(NAN, 2, method="laguerre"), "alpha"),
        (lambda: approx_strong_field(NAN, 0.5), "alpha"),
        (lambda: approx_strong_field(1.0, NAN_J), "gamma"),
        (lambda: approx_strong_field(1.0, [0.5, NAN]), "gamma"),
        (lambda: cat(NAN, 0.0), "alpha"),
        (lambda: cat(1.0, NAN), "beta"),
        (lambda: squeezed_coherent(NAN_J, 0.5), "alpha"),
        (lambda: squeezed_coherent(1.0, NAN), "r"),
        (lambda: squeezed_coherent(1.0, 0.5, NAN), "phi_s"),
    ],
    ids=[
        "coherent", "coherent-imag", "photon_added", "crescent-operator", "crescent-laguerre",
        "strong_field-alpha", "strong_field-gamma", "strong_field-gamma-row", "cat-alpha", "cat-beta",
        "squeezed-alpha", "squeezed-r", "squeezed-phi_s",
    ],
)
def test_constructors_refuse_nan_parameters_by_name(build, name):
    with pytest.raises(ValueError, match=rf"^{name} must not be NaN"):
        build()


@pytest.mark.filterwarnings("error")  # refused up front, before numpy takes e^{i phase}
@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize(
    "build,name",
    [(lambda phase: cat(1.0, phase), "beta"), (lambda phase: squeezed_coherent(1.0, 0.5, phase), "phi_s")],
    ids=["cat-beta", "squeezed-phi_s"],
)
def test_constructors_refuse_infinite_phases_by_name(build, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got -?inf$"):
        build(value)


def test_spec_parameter_errors_surface_as_schema_errors():
    with pytest.raises(SchemaError):
        state_from_spec({"kind": "crescent", "alpha": {"re": 1, "im": 0}, "M": 99})
    with pytest.raises(SchemaError):
        state_from_spec(
            {"kind": "crescent", "alpha": {"re": 1, "im": 0}, "M": 1, "method": "guess"}
        )
