import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockgauge import (
    DensityMatrix,
    FockVector,
    coherent,
    normally_ordered_moment,
    number_state,
    random_state,
)
from fockgauge import states
from fockgauge.errors import ZeroNormError
from fockgauge.fock import BOUNDARY_PAD, _moment_window, boundary_mass
from fockgauge.schema import SQUARE_LIMIT
from _oracles import dense_moment, fidelity, lowered, poisson_tail, raised


def test_vector_invariants():
    with pytest.raises(ValueError, match=r"^amplitudes are not normalized: sum p = 0\.64"):
        FockVector(np.array([0.8, 0.0]))  # one state: the message names no row
    v = FockVector(np.array([0.6, 0.8j]))
    assert v.cutoff == 1
    with pytest.raises(ValueError):
        FockVector(np.zeros(0))
    # a block names its first unnormalized row
    rows = np.eye(3, dtype=complex)
    rows[1, 1] = 0.8
    with pytest.raises(ValueError, match=r"^amplitudes are not normalized in row 1: sum p = 0\.64"):
        FockVector(rows)
    rows[1, 1] = 1.0
    rows[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"^amplitudes are not normalized in row 2: sum p = nan$"):
        FockVector(rows)


def test_vector_copies_a_writeable_array_and_takes_a_read_only_one():
    amps = np.array([0.6, 0.8j])
    v = FockVector(amps)
    assert amps.flags.writeable
    assert not v.amplitudes.flags.writeable
    assert not np.shares_memory(amps, v.amplitudes)
    amps.flags.writeable = False
    assert FockVector(amps).amplitudes is amps


def test_package_attribute_fock_is_the_module():
    # no package export may shadow the submodule, or `import fockgauge.fock as fk` binds that export
    import fockgauge
    import fockgauge.fock as fk

    assert fk.FockVector is fockgauge.FockVector
    assert fockgauge.fock is fk


# The ladder oracle itself, on hand-computed values.

def test_lower_on_vacuum_is_zero():
    assert not np.any(lowered(number_state(0).amplitudes))
    assert not np.any(lowered(np.ones(1)))


def test_lower_single_photon():
    out = lowered(number_state(1).amplitudes)
    assert out[0] == pytest.approx(1.0)
    assert np.allclose(out[1:], 0.0)


def test_raise_two_photon():
    out = raised(number_state(2).amplitudes)
    assert out[3] == pytest.approx(math.sqrt(3.0))


def test_number_moment_on_number_state():
    assert normally_ordered_moment(number_state(3), 1, 1) == pytest.approx(3.0)


def test_coherent_eigenvalue_moment():
    assert normally_ordered_moment(coherent(1.0), 0, 1) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_double_lowering_kills_single_photon():
    assert normally_ordered_moment(number_state(1), 2, 2) == pytest.approx(0.0)


def test_moment_order_limit():
    for j, k in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError, match=rf"moment order \({j}, {k}\)"):
            normally_ordered_moment(number_state(0), j, k)


def _pure_of_dim(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(v / np.linalg.norm(v))


def _mixed_of_dim(dim, seed):
    # a rank-2 factor on `dim` levels; the density matrix adds BOUNDARY_PAD more
    rng = np.random.default_rng(seed)
    return DensityMatrix(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))


# pure registers of 1 or 2 levels leave the (2, k) windows empty; 37 is far from the rest
MOMENT_DIMS = (1, 2, 3, 4, 5, 6, 37)


@pytest.mark.parametrize(
    "j,k", [(0, 1), (1, 1), (0, 2), (2, 2), (1, 2), (2, 0), (2, 1), (1, 0)]
)
def test_moments_match_dense_oracle(j, k):
    state = random_state(12, "pure", seed=3)
    assert normally_ordered_moment(state, j, k) == pytest.approx(
        dense_moment(state, j, k), abs=1e-12
    )
    mixed = random_state(10, "mixed", rank=3, seed=4)
    assert normally_ordered_moment(mixed, j, k) == pytest.approx(
        dense_moment(mixed, j, k), abs=1e-12
    )
    # both visiting orders, so that a window cached under the wrong key is
    # handed to some other register size
    for dims in (MOMENT_DIMS, MOMENT_DIMS[::-1]):
        for dim in dims:
            for state in (_pure_of_dim(dim, seed=dim), _mixed_of_dim(dim, seed=dim)):
                assert normally_ordered_moment(state, j, k) == pytest.approx(
                    dense_moment(state, j, k), rel=1e-12, abs=1e-12
                ), (dim, type(state).__name__)


def test_moment_windows_are_cached_and_read_only():
    window = _moment_window(37, 4, 0)
    assert window is _moment_window(37, 4, 0)
    weight = window[2]
    assert not weight.flags.writeable
    with pytest.raises(ValueError):
        weight[0] = 0.0
    n, m, empty = _moment_window(4, 0, 4)
    assert empty.size == 0 and np.ones(4)[n].size == np.ones(4)[m].size == 0


def test_one_window_serves_a_state_a_block_and_a_density_matrix():
    pure, mixed = _pure_of_dim(37, seed=1), _mixed_of_dim(37 - BOUNDARY_PAD, seed=1)
    block = FockVector(np.array([pure.amplitudes, _pure_of_dim(37, seed=2).amplitudes]))
    _moment_window.cache_clear()
    for state in (pure, block, mixed):
        normally_ordered_moment(state, 2, 1)
    info = _moment_window.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a register too short for the orders gives zero moments of the right shape
    short = FockVector(np.array([[1.0, 0.0], [0.6, 0.8]]))
    assert normally_ordered_moment(short, 2, 2).tolist() == [0j, 0j]


def _bits(x):
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def test_reductions_are_bit_identical_to_their_np_sum_forms():
    # The moment engine calls np.add.reduce directly; np.sum dispatches to the
    # same reduction, so each value must agree bit for bit.  Registers shorter
    # than BOUNDARY_PAD are the edge case of the boundary slice.
    for dim in MOMENT_DIMS:
        pure, mixed = _pure_of_dim(dim, seed=dim), _mixed_of_dim(dim, seed=dim)
        amps, rho = pure.amplitudes, mixed.entries
        for j, k in ((0, 1), (0, 2), (1, 1), (2, 2)):
            n, m, weight = _moment_window(dim, j, k)
            want_pure = np.sum(np.conj(amps[m]) * amps[n] * weight)
            n, m, weight = _moment_window(len(rho), j, k)
            want_mixed = np.sum(np.diagonal(rho[n[-1], m[-1]]) * weight)
            assert _bits(normally_ordered_moment(pure, j, k)) == _bits(want_pure), (dim, j, k)
            assert _bits(normally_ordered_moment(mixed, j, k)) == _bits(want_mixed), (dim, j, k)
        # the wrapper forms are the oracles of the ndarray methods the package calls
        probabilities = np.real(np.diag(rho))
        assert np.array_equal(mixed.probabilities.view(np.int64), probabilities.view(np.int64)), dim
        for state, p in ((pure, pure.probabilities), (mixed, probabilities)):
            top = max(0, state.cutoff + 1 - BOUNDARY_PAD)
            want = float(np.sum(p[top:]))
            assert boundary_mass(state).hex() == want.hex(), (dim, type(state).__name__)
    # fig4's strong-field block of its three phases, whose terms are scaled in
    # place: each row's moment is the np.sum form and what that row alone gives
    phases = [complex(math.cos(p), math.sin(p)) for p in (0.0, math.pi / 4.0, math.pi / 2.0)]
    block = states.approx_strong_field(3.0, np.concatenate([np.linspace(0.0, 1.0, 2048) * p for p in phases]))
    amps = block.amplitudes
    assert amps.shape == (6144, 46)
    for j, k in ((0, 1), (0, 2), (1, 1), (2, 2)):
        n, m, weight = _moment_window(amps.shape[-1], j, k)
        moments = normally_ordered_moment(block, j, k)
        assert moments.tobytes() == np.sum(np.conj(amps[m]) * amps[n] * weight, axis=-1).tobytes(), (j, k)
        alone = [normally_ordered_moment(FockVector(row), j, k) for row in amps]
        assert moments.tobytes() == np.array(alone).tobytes(), (j, k)


FINALIZED_FAMILIES = (
    lambda: coherent(0.9 - 0.4j),
    lambda: number_state(3),
    lambda: states.squeezed_coherent(0.7 + 0.2j, 0.8, 0.5),
    lambda: states.crescent(1.1 + 0.3j, 3, method="operator"),
    lambda: states.crescent(1.1 + 0.3j, 3, method="laguerre"),
    lambda: states.photon_added(0.6 - 0.2j, 2),
    lambda: states.approx_strong_field(2.0 + 1.0j, [0.3 - 0.2j, 5.0]),
    lambda: states.cat(1.2 + 0.5j, 0.7),
    lambda: random_state(32, "pure", seed=[3, 5]),
)


def test_finalize_norm_is_linalg_norm_bit_for_bit(monkeypatch):
    seen = []
    finalize = states._finalize

    def recording(amps):
        out = finalize(amps)
        seen.append((np.array(amps), out))
        return out

    monkeypatch.setattr(states, "_finalize", recording)
    for build in FINALIZED_FAMILIES:
        before = len(seen)
        build()
        assert len(seen) > before
    assert any(raw.ndim == 2 for raw, _ in seen)  # approx_strong_field's block
    for raw, out in seen:
        # a block is normalized row by row
        for raw_row, out_row in zip(np.atleast_2d(raw), np.atleast_2d(out.amplitudes)):
            re, im = raw_row.real, raw_row.imag
            norm = float(np.linalg.norm(raw_row))
            assert math.sqrt(re.dot(re) + im.dot(im)).hex() == norm.hex()
            want = np.concatenate((raw_row / norm, np.zeros(BOUNDARY_PAD)))
            assert np.array_equal(out_row.view(np.uint64), want.view(np.uint64))


def test_cancelled_state_still_raises_zero_norm():
    with pytest.raises(ZeroNormError):
        states.cat(0.0, math.pi)
    with pytest.raises(ZeroNormError):
        states._finalize(np.zeros(3, dtype=np.complex128))


@pytest.mark.filterwarnings("error")  # a non-finite part must not warn on its way to the ValueError
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_states_reject_non_finite_data(bad):
    for amps in ([bad, 1.0], [1.0, complex(0.0, bad)]):
        with pytest.raises(ValueError):
            FockVector(np.array(amps))
    good = np.ones((2, 2), dtype=complex)
    for part in ((0, 0), (0, 1), (1, 1)):
        for value in (bad, complex(0.0, bad), complex(bad, bad)):
            factor = good.copy()
            factor[part] = value
            with pytest.raises(ValueError, match="factor"):
                DensityMatrix(factor)


def test_commutator_on_truncated_states():
    # <a a^dag> - <a^dag a> = 1 exactly on ladder-exact arithmetic
    for state in (coherent(1.7 - 0.4j), number_state(5), random_state(20, "pure", seed=9)):
        up, down = raised(state.amplitudes), lowered(state.amplitudes)
        value = np.vdot(up, up).real - np.vdot(down, down).real
        assert value == pytest.approx(1.0, abs=1e-10)


def test_moment_hermiticity():
    state = random_state(16, "pure", seed=11)
    for j in range(3):
        for k in range(3):
            assert normally_ordered_moment(state, j, k) == pytest.approx(
                np.conj(normally_ordered_moment(state, k, j)), abs=1e-12
            )


def test_pure_mixed_consistency():
    psi = coherent(0.9 + 0.3j)
    rho = DensityMatrix(psi.amplitudes[:, None])
    for j, k in [(0, 1), (1, 1), (0, 2), (2, 2)]:
        assert normally_ordered_moment(psi, j, k) == pytest.approx(
            normally_ordered_moment(rho, j, k), abs=1e-12
        )


# The fidelity oracle itself, on hand-computed values and mixed/pure agreement.

def test_fidelity_basic():
    assert fidelity(number_state(0), number_state(0)) == pytest.approx(1.0)
    assert fidelity(number_state(0), number_state(1)) == pytest.approx(0.0)


def test_fidelity_coherent_vacuum():
    # |<0|alpha>|^2 equals the zero-photon Poisson weight
    assert fidelity(coherent(1.0), number_state(0)) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert math.exp(-1.0) == pytest.approx(poisson_tail(1.0, 0) - poisson_tail(1.0, 1), abs=1e-13)


def test_fidelity_mixed_agrees_with_pure_overlap():
    s1 = coherent(0.7)
    s2 = coherent(-0.2 + 0.5j)
    expected = fidelity(s1, s2)
    rho1, rho2 = (DensityMatrix(s.amplitudes[:, None]) for s in (s1, s2))
    assert fidelity(rho1, s2) == pytest.approx(expected, abs=1e-10)
    assert fidelity(rho1, rho2) == pytest.approx(expected, abs=1e-8)


def test_fidelity_mixed_mixed_identical():
    rho = random_state(8, "mixed", rank=3, seed=2)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_tail_mass_poisson():
    state = coherent(1.0)
    assert np.sum(state.probabilities[8:]) == pytest.approx(poisson_tail(1.0, 8), abs=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 257])
def test_largest_random_mixed_states_build_on_the_factorization(rank):
    state = random_state(256, "mixed", rank=rank, seed=rank)
    assert state.cutoff == 256 + BOUNDARY_PAD
    assert not hasattr(state, "factor")  # the factor builds the state and is not kept
    rho = state.entries
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


# ------------------------------------------------------- factor construction


def _dense_formula(g):
    """The padded rho of factor g by the dense formula, with numpy's complex division."""
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    dim = len(g)
    padded = np.zeros((dim + BOUNDARY_PAD, dim + BOUNDARY_PAD), dtype=np.complex128)
    padded[:dim, :dim] = rho
    return padded


def _ginibre(rng, dim, rank):
    return rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))


def _same_bits(a, b):
    # np.array_equal takes -0.0 and +0.0 as equal; int64 views do not
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("cutoff", [0, 1, 5, 16, 32, 64, 256])
def test_random_mixed_entries_equal_the_dense_formula(cutoff):
    ranks = (1, cutoff + 1) if cutoff == 256 else sorted({1, 2, 8, cutoff + 1})
    for rank in ranks:
        if rank > cutoff + 1:
            continue
        for seed in (0, 17, [3, 7]):
            state = random_state(cutoff, "mixed", rank=rank, seed=seed)
            # random_state's draws, formed outside the package
            g = _ginibre(np.random.default_rng(seed), cutoff + 1, rank)
            assert _same_bits(state.entries, _dense_formula(g)), (rank, seed)
            assert not state.entries.flags.writeable
        # factors from the smallest to the largest scale the class accepts
        g = _ginibre(np.random.default_rng(rank), cutoff + 1, rank)
        for exponent in range(-400, 401, 100):
            scaled = g * 2.0**exponent
            assert _same_bits(DensityMatrix(scaled).entries, _dense_formula(scaled)), (rank, exponent)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "factor",
    [
        [[1 + 2j, -0.5j], [0.0, 0.0], [-1.5, 0.25 + 1j]],
        [[1.0, -2.0], [0.5, 3.0], [-1.0, 0.0]],
        [[0.0, 0.0], [0.0, -0.5 + 0.25j], [0.0, 0.0]],
        [[2.0**-500]],
        [[complex(-0.0, -2.0), complex(0.0, -0.0)], [0.5, complex(-0.0, 0.5)]],
    ],
    ids=["zero-row", "real", "single-entry", "tiny", "signed-zeros"],
)
def test_exact_zero_parts_keep_the_dense_value_and_their_own_sign(factor):
    g = np.array(factor, dtype=np.complex128)
    entries = DensityMatrix(factor).entries
    assert np.array_equal(entries, _dense_formula(g))
    # The sign of a zero part may differ from the dense formula's: each part of
    # G G^dag is multiplied by 1 / tr on its own, so it keeps its sign.
    dim = len(g)
    raw = g @ g.conj().T
    assert _same_bits(entries[:dim, :dim].view(np.float64), raw.view(np.float64) * (1.0 / raw.trace().real))
    padding = np.concatenate((entries[dim:].ravel(), entries[:dim, dim:].ravel()))
    assert not padding.view(np.int64).any()


@given(
    st.integers(1, 40), st.integers(1, 8), st.integers(-400, 400), st.integers(0, 2**32 - 1)
)
@settings(max_examples=150, deadline=None)
def test_every_factor_gives_a_physical_state(rows, rank, exponent, seed):
    rng = np.random.default_rng(seed)
    factor = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) * 2.0**exponent
    rho = DensityMatrix(factor).entries
    assert rho.shape == (rows + BOUNDARY_PAD,) * 2
    raw = factor @ factor.conj().T
    assert _same_bits(rho[:rows, :rows].view(np.float64), raw.view(np.float64) * (1.0 / raw.trace().real))
    padding = np.concatenate((rho[rows:].ravel(), rho[:rows, rows:].ravel()))
    assert not padding.view(np.int64).any()
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "factor",
    [
        np.zeros((3, 2)),
        [[1.0], [SQUARE_LIMIT]],
        [[1.0], [complex(0.0, -SQUARE_LIMIT)]],
        [1.0, 0.0],
        [[[1.0]]],
        np.zeros((0, 2)),
        np.zeros((2, 0)),
        [[2.0**-501]],  # its trace underflows the floor, and dividing by it could overflow
    ],
    ids=["zero", "huge", "huge-imag", "1-d", "3-d", "no-rows", "no-columns", "tiny"],
)
def test_bad_factors_are_refused_by_name(factor):
    # NaN and infinite parts: test_states_reject_non_finite_data
    with pytest.raises(ValueError, match="factor"):
        DensityMatrix(factor)


def test_the_smallest_and_largest_factors_are_kept():
    for factor in ([[2.0**-500]], [[np.nextafter(SQUARE_LIMIT, 0.0)]]):
        assert DensityMatrix(factor).entries[0, 0] == 1.0
