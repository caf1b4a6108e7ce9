import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockgauge import (
    FockVector,
    approx_strong_field,
    NonphysicalMomentError,
    SchemaError,
    cat,
    coherent,
    ellipse,
    full_report,
    number_state,
    random_state,
    squeezed_coherent,
    summarize,
    summary_from_dict,
)
from fockgauge.fock import boundary_mass
from fockgauge.gauges import _objective
from fockgauge.moments import complex_square, modulus, square
from _oracles import dense_expectation, quadrature_mean_direct, quadrature_var_direct


def test_vacuum_summary():
    s = summarize(number_state(0))
    assert abs(s.mean_a) == 0.0
    assert s.var_n == pytest.approx(0.0)
    assert s.cov_ada == pytest.approx(0.5)
    assert s.cov_a2 == pytest.approx(1.0)
    assert not s.truncation_warning


def test_single_photon_summary():
    s = summarize(number_state(1))
    assert s.cov_ada == pytest.approx(1.5)
    assert abs(s.var_a) == pytest.approx(0.0)
    assert s.cov_a2 == pytest.approx(3.0)


def test_coherent_summary():
    s = summarize(coherent(2.0))
    assert s.var_n == pytest.approx(4.0, abs=1e-10)
    assert s.cov_ada == pytest.approx(0.5, abs=1e-12)
    assert abs(s.var_a) == pytest.approx(0.0, abs=1e-11)


def test_matrix_verification_mode():
    # every summary field against dense operator products on a space grown
    # past the state's support, so no boundary clipping can hide an error
    for state in (coherent(1.2 - 0.7j), squeezed_coherent(0.5, 0.6, 1.0),
                  random_state(12, "mixed", rank=3, seed=8)):
        s = summarize(state)

        def ev(word):
            return dense_expectation(state, word)

        mean_a, mean_a2, mean_n, mean_n2 = ev("a"), ev("aa"), ev("da").real, ev("dada").real
        dense = {
            "mean_a": mean_a,
            "mean_a2": mean_a2,
            "mean_n": mean_n,
            "mean_n2": mean_n2,
            "mean_a2da2": ev("ddaa").real,
            "var_n": mean_n2 - mean_n**2,
            "var_a": mean_a2 - mean_a**2,
            "cov_ada": ((ev("da") + ev("ad")) / 2).real - abs(mean_a) ** 2,
            "cov_a2": ((ev("ddaa") + ev("aadd")) / 2).real - abs(mean_a2) ** 2,
        }
        scale = 1.0 + abs(mean_n2)
        for name, value in dense.items():
            assert abs(getattr(s, name) - value) <= 1e-12 * scale, name


def _summary_bits(summary):
    out = []
    for value in tuple(summary):
        if isinstance(value, complex):
            out += [type(value), value.real.hex(), value.imag.hex()]
        else:
            out += [type(value), value if isinstance(value, bool) else value.hex()]
    return out


def _haar_block():
    # 2000 sweep states at cutoff 32 (padded) and 8 unpadded draws that fill
    # the top of the register, so both truncation flags occur
    rows = [random_state(32, "pure", seed=[7, i]).amplitudes for i in range(2000)]
    rng = np.random.default_rng(7)
    for _ in range(8):
        raw = rng.standard_normal(37) + 1j * rng.standard_normal(37)
        rows.append(raw / np.linalg.norm(raw))
    return FockVector(np.array(rows))


@pytest.mark.parametrize(
    "build",
    [
        _haar_block,
        lambda: approx_strong_field(3.0, np.linspace(0.0, 1.0, 256) * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))),
        lambda: approx_strong_field(2.0 - 0.5j, [2**500, 1e300j, complex(1.7e308, -1.7e308), 0.5, 0.0]),
    ],
    ids=["haar", "fig4-phase", "huge-gamma"],
)
def test_block_summaries_are_bit_identical_to_single_states(build):
    block = build()
    columns = summarize(block)
    assert all(column.shape == (len(block.amplitudes),) for column in columns)
    masses = boundary_mass(block)
    flags = set()
    for i, row in enumerate(block.amplitudes):
        state = FockVector(row)
        assert _summary_bits(column[i].item() for column in columns) == _summary_bits(summarize(state)), i
        assert masses[i].item().hex() == boundary_mass(state).hex(), i
        flags.add(columns.truncation_warning[i].item())
    if build is _haar_block:
        assert flags == {False, True}


# Parts of either sign: zeros, subnormals, and normal numbers up to 2^500, the
# magnitude limit of every moment the package reads.
PARTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, 2.0**500]),
    st.builds(math.ldexp, st.integers(1, 2**52 - 1), st.just(-1074)),
    st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), st.integers(-1074, 447)),
).flatmap(lambda x: st.sampled_from([x, -x]))


def _uniform_parts(seed: int, size: int) -> list:
    # normal numbers below 2^500 with uniformly random mantissa bits, which
    # hypothesis's own draws seldom give; x * x and x**2 differ on about 820 per million
    rng = np.random.default_rng(seed)
    mantissas = rng.integers(2**52, 2**53, size) * rng.choice([-1, 1], size)
    return np.ldexp(mantissas.astype(np.float64), rng.integers(-1074, 448, size)).tolist()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
# signed zeros, whose sign the product with 1 + 0j can change, and parts
# whose x * x rounds differently from x**2
@example([(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (5e-324, -5e-324), (3.0, 4.0), (-(2.0**500), 2.0**500)], 0)
@example([(1.1294761188530207e30, -6245394072094.914), (1.5164064101886314e-18, 8.298973015086753e77)], 0)
def test_column_primitives_round_as_python_scalars(parts, seed):
    # modulus, square and complex_square on a column give, entry by entry,
    # the bits of Python's abs(z), x**2 and z**2
    uniform = _uniform_parts(seed, 512)
    zs = [complex(re, im) for re, im in parts] + list(map(complex, uniform[::2], uniform[1::2]))
    column = np.array(zs)
    columns = zip(modulus(column).tolist(), square(column.real).tolist(), complex_square(column).tolist())
    for z, (got_modulus, got_square, got_complex) in zip(zs, columns):
        assert got_modulus.hex() == abs(z).hex(), z
        assert got_square.hex() == (z.real**2).hex(), z
        assert (got_complex.real.hex(), got_complex.imag.hex()) == ((z**2).real.hex(), (z**2).imag.hex()), z


def test_truncation_warning_on_clipped_vector():
    # a hand-clipped coherent tail leaves real mass at the register boundary
    from fockgauge import FockVector

    amps = coherent(2.0).amplitudes[:6]
    clipped = FockVector(amps / np.linalg.norm(amps))
    assert summarize(clipped).truncation_warning
    assert not summarize(coherent(2.0)).truncation_warning


def test_ellipse_coherent_is_minimal_circle():
    e = ellipse(summarize(coherent(1.3 + 0.4j)))
    assert e.lambda_plus_sq == pytest.approx(0.5, abs=1e-11)
    assert e.lambda_minus_sq == pytest.approx(0.5, abs=1e-11)
    assert e.major_axis_angle == 0.0  # a circle has no major axis; 0 by convention
    assert not e.zero_stick_flag


def test_ellipse_squeezed_vacuum():
    e = ellipse(summarize(squeezed_coherent(0.0, 0.5)))
    assert e.lambda_plus_sq == pytest.approx(1.3591409142295225, abs=1e-9)
    assert e.lambda_minus_sq == pytest.approx(0.18393972058572117, abs=1e-9)
    assert e.zero_stick_flag


def test_ellipse_single_photon_circle():
    e = ellipse(summarize(number_state(1)))
    assert e.lambda_plus_sq == pytest.approx(1.5)
    assert e.lambda_minus_sq == pytest.approx(1.5)
    assert e.zero_stick_flag
    assert e.major_axis_angle == 0.0 and e.stick_angle == 0.0


def test_ellipse_rejects_nonphysical_moments():
    bad = summarize(number_state(0)).to_dict()
    bad["cov_ada"] = 0.3
    bad["var_a"] = {"re": 0.6, "im": 0.0}  # |var_a| > cov means a negative minor variance
    with pytest.raises(NonphysicalMomentError):
        ellipse(summary_from_dict(bad))
    bad = summarize(number_state(0)).to_dict()
    bad.update(mean_n=-0.5, cov_ada=1.0)  # the floor 2<n> + 1 of G2 would be zero
    with pytest.raises(NonphysicalMomentError, match="mean_n"):
        ellipse(summary_from_dict(bad))


# x_theta = (a e^{i theta} + a^dag e^{-i theta}) / sqrt(2) and p_theta = x_{theta - pi/2},
# so [x, p] = i: the ladder oracle applies this convention, and the ellipse axes,
# the scan objective and the canonical-pair rows must agree with it.

def _p_mean_direct(state, theta):
    return quadrature_mean_direct(state, theta - math.pi / 2)


def _records(state):
    s = summarize(state)
    return s, full_report(s, ellipse(s)).records


def test_quadrature_vacuum():
    e = ellipse(summarize(number_state(0)))
    assert e.lambda_plus_sq == 0.5 and e.lambda_minus_sq == 0.5
    for theta in (0.0, 0.7, math.pi / 2):
        assert quadrature_var_direct(number_state(0), theta) == pytest.approx(0.5, abs=1e-13)
        assert quadrature_mean_direct(number_state(0), theta) == pytest.approx(0.0, abs=1e-13)


def test_quadrature_coherent_imaginary():
    state = coherent(1j)
    assert _p_mean_direct(state, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert quadrature_mean_direct(state, 0.0) == pytest.approx(0.0, abs=1e-10)
    # Var n Var x >= <p>^2 / 4 and Var n Var p >= <x>^2 / 4 at theta = 0
    records = _records(state)[1]
    assert records["canonical_pair_x"].rhs == pytest.approx(0.5, abs=1e-10)
    assert records["canonical_pair_p"].rhs == pytest.approx(0.0, abs=1e-10)


def test_quadrature_convention_pin():
    # phi_s = 0 squeezing leaves the major axis along x at theta = 0
    state = squeezed_coherent(0.0, 0.5)
    e = ellipse(summarize(state))
    assert quadrature_var_direct(state, 0.0) == pytest.approx(1.3591409142295225, abs=1e-9)
    assert e.lambda_plus_sq == pytest.approx(1.3591409142295225, abs=1e-9)
    assert e.major_axis_angle == pytest.approx(0.0, abs=1e-12)


def test_quadrature_matches_ladder_oracle():
    states = (coherent(0.8 - 0.3j), squeezed_coherent(0.7, 0.9, 0.4), cat(1.1, 0.0))
    for state in states:
        s, records = _records(state)
        x, p = records["canonical_pair_x"], records["canonical_pair_p"]
        assert x.lhs == pytest.approx(s.var_n * quadrature_var_direct(state, 0.0), abs=1e-10)
        assert p.lhs == pytest.approx(s.var_n * quadrature_var_direct(state, -math.pi / 2), abs=1e-10)
        assert x.rhs == pytest.approx(_p_mean_direct(state, 0.0) ** 2 / 4.0, abs=1e-10)
        assert p.rhs == pytest.approx(quadrature_mean_direct(state, 0.0) ** 2 / 4.0, abs=1e-10)
        moments = (s.mean_a.real, s.mean_a.imag, s.cov_ada, s.var_a.real, s.var_a.imag)
        for theta in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
            # the scan objective |<p_theta>|^2 / (4 Var x_theta)
            direct = _p_mean_direct(state, theta) ** 2 / (4.0 * quadrature_var_direct(state, theta))
            assert _objective(*moments, theta) == pytest.approx(direct, abs=1e-10)


def _refine(fun, center, halfwidth, maximize, iterations=80):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = center - halfwidth, center + halfwidth
    sign = 1.0 if maximize else -1.0
    for _ in range(iterations):
        c = hi - golden * (hi - lo)
        d = lo + golden * (hi - lo)
        if sign * fun(c) > sign * fun(d):
            hi = d
        else:
            lo = c
    return fun((lo + hi) / 2.0)


def test_quadrature_extremality():
    state = squeezed_coherent(0.6 + 0.2j, 0.8, 0.9)
    s = summarize(state)
    e = ellipse(s)

    var_at = functools.partial(quadrature_var_direct, state)
    thetas = np.linspace(0.0, math.pi, 720, endpoint=False)
    variances = np.array([var_at(t) for t in thetas])
    assert variances.max() <= e.lambda_plus_sq + 1e-9
    assert variances.min() >= e.lambda_minus_sq - 1e-9
    step = math.pi / 720
    top = _refine(var_at, thetas[int(np.argmax(variances))], step, maximize=True)
    bottom = _refine(var_at, thetas[int(np.argmin(variances))], step, maximize=False)
    assert top == pytest.approx(e.lambda_plus_sq, abs=1e-9)
    assert bottom == pytest.approx(e.lambda_minus_sq, abs=1e-9)


def test_quadrature_pythagoras():
    # Var x_t + Var x_{t+pi/2} = 2 Cov(a^dag, a) from x^2 + p^2 = n + 1/2
    state = cat(0.9, 0.3)
    s = summarize(state)
    for theta in (0.0, 0.4, 1.3):
        total = quadrature_var_direct(state, theta) + quadrature_var_direct(state, theta + math.pi / 2)
        assert total == pytest.approx(2.0 * s.cov_ada, abs=1e-10)


def test_summary_roundtrip_dict():
    s = summarize(coherent(0.9 + 0.1j))
    again = summary_from_dict(s.to_dict())
    assert again == s


def test_summary_dict_validation():
    base = summarize(number_state(0)).to_dict()
    incomplete = dict(base)
    del incomplete["var_n"]
    with pytest.raises(SchemaError):
        summary_from_dict(incomplete)
    extra = dict(base)
    extra["bogus"] = 1.0
    with pytest.raises(SchemaError):
        summary_from_dict(extra)
    bad = dict(base)
    bad["mean_a"] = 3.0
    with pytest.raises(SchemaError):
        summary_from_dict(bad)
    bad = dict(base)
    bad["truncation_warning"] = "no"
    with pytest.raises(SchemaError):
        summary_from_dict(bad)
    for field, value in (
        ("cov_ada", math.nan),
        ("cov_ada", math.inf),
        ("cov_ada", -math.inf),
        ("cov_ada", 10**400),
        ("var_n", True),
        ("mean_a", {"re": True, "im": 0}),
        ("var_a", {"re": 0.0, "im": math.nan}),
    ):
        bad = dict(base)
        bad[field] = value
        with pytest.raises(SchemaError, match=field):
            summary_from_dict(bad)


def test_area_law_on_generated_states():
    states = (
        coherent(1.0),
        squeezed_coherent(0.3, 1.2, 2.0),
        cat(1.4, math.pi),
        random_state(24, "pure", seed=5),
        random_state(12, "mixed", rank=5, seed=6),
    )
    for state in states:
        e = ellipse(summarize(state))
        assert e.lambda_plus_sq * e.lambda_minus_sq >= 0.25 - 1e-10
