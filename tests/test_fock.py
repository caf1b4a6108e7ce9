import math
import warnings

import numpy as np
import pytest

from fockgauge import (
    DensityMatrix,
    FockVector,
    MomentOrderError,
    coherent,
    fock,
    normally_ordered_moment,
    random_state,
)
from fockgauge import states
from fockgauge.errors import ZeroNormError
from fockgauge.fock import BOUNDARY_PAD, _moment_window, boundary_mass
from _oracles import dense_moment, eigvalsh_accepts, fidelity, lowered, poisson_tail, raised


def test_vector_invariants():
    with pytest.raises(ValueError):
        FockVector(np.array([0.8, 0.0]))  # not normalized
    v = FockVector(np.array([0.6, 0.8j]))
    assert v.cutoff == 1
    with pytest.raises(ValueError):
        FockVector(np.zeros(0))


# The ladder oracle itself, on hand-computed values.

def test_lower_on_vacuum_is_zero():
    assert not np.any(lowered(fock(0).amplitudes))
    assert not np.any(lowered(np.ones(1)))


def test_lower_single_photon():
    out = lowered(fock(1).amplitudes)
    assert out[0] == pytest.approx(1.0)
    assert np.allclose(out[1:], 0.0)


def test_raise_two_photon():
    out = raised(fock(2).amplitudes)
    assert out[3] == pytest.approx(math.sqrt(3.0))


def test_number_moment_on_number_state():
    assert normally_ordered_moment(fock(3), 1, 1) == pytest.approx(3.0)


def test_coherent_eigenvalue_moment():
    assert normally_ordered_moment(coherent(1.0), 0, 1) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_double_lowering_kills_single_photon():
    assert normally_ordered_moment(fock(1), 2, 2) == pytest.approx(0.0)


def test_moment_order_limit():
    with pytest.raises(MomentOrderError):
        normally_ordered_moment(fock(0), 5, 0)
    with pytest.raises(MomentOrderError):
        normally_ordered_moment(fock(0), 0, 5)


def _pure_of_dim(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(v / np.linalg.norm(v))


def _mixed_of_dim(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


# register sizes 1..4 leave the (4, k) windows empty; 37 is far from the rest
MOMENT_DIMS = (1, 2, 3, 4, 5, 6, 37)


@pytest.mark.parametrize(
    "j,k", [(0, 1), (1, 1), (0, 2), (2, 2), (1, 2), (3, 1), (2, 0), (0, 3), (4, 4), (4, 0)]
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
    pure, mixed = _pure_of_dim(37, seed=1), _mixed_of_dim(37, seed=1)
    block = FockVector(np.array([pure.amplitudes, _pure_of_dim(37, seed=2).amplitudes]))
    _moment_window.cache_clear()
    for state in (pure, block, mixed):
        normally_ordered_moment(state, 2, 1)
    info = _moment_window.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a register too short for the orders gives zero moments of the right shape
    short = FockVector(np.array([[1.0, 0.0], [0.6, 0.8]]))
    assert normally_ordered_moment(short, 4, 4).tolist() == [0j, 0j]


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
            want_mixed = np.sum(np.diagonal(rho[n[-1], m[-1]]) * weight)
            assert _bits(normally_ordered_moment(pure, j, k)) == _bits(want_pure), (dim, j, k)
            assert _bits(normally_ordered_moment(mixed, j, k)) == _bits(want_mixed), (dim, j, k)
        top = max(0, dim - BOUNDARY_PAD)
        for state in (pure, mixed):
            want = float(np.sum(state.probabilities[top:]))
            assert boundary_mass(state).hex() == want.hex(), (dim, type(state).__name__)


FINALIZED_FAMILIES = (
    lambda: coherent(0.9 - 0.4j),
    lambda: fock(3),
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


@pytest.mark.filterwarnings("error")  # inf - inf must not warn on its way to the ValueError
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_states_reject_non_finite_data(bad):
    for amps in ([bad, 1.0], [1.0, complex(0.0, bad)]):
        with pytest.raises(ValueError):
            FockVector(np.array(amps))
    good = np.diag([0.5, 0.5]).astype(complex)
    for entry in ((0, 0), (0, 1), (1, 1)):
        for value in (bad, complex(0.0, bad)):
            rho = good.copy()
            rho[entry] = value
            with pytest.raises(ValueError):
                DensityMatrix(rho)
    # a Hermitian pair of non-finite entries off the diagonal
    rho = good.copy()
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError):
        DensityMatrix(rho)


def test_commutator_on_truncated_states():
    # <a a^dag> - <a^dag a> = 1 exactly on ladder-exact arithmetic
    for state in (coherent(1.7 - 0.4j), fock(5), random_state(20, "pure", seed=9)):
        up, down = raised(state.amplitudes), lowered(state.amplitudes)
        value = np.vdot(up, up).real - np.vdot(down, down).real
        assert value == pytest.approx(1.0, abs=1e-10)


def test_moment_hermiticity():
    state = random_state(16, "pure", seed=11)
    for j in range(4):
        for k in range(4):
            assert normally_ordered_moment(state, j, k) == pytest.approx(
                np.conj(normally_ordered_moment(state, k, j)), abs=1e-12
            )


def test_pure_mixed_consistency():
    psi = coherent(0.9 + 0.3j)
    rho = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    for j, k in [(0, 1), (1, 1), (0, 2), (2, 2)]:
        assert normally_ordered_moment(psi, j, k) == pytest.approx(
            normally_ordered_moment(rho, j, k), abs=1e-12
        )


# The fidelity oracle itself, on hand-computed values and mixed/pure agreement.

def test_fidelity_basic():
    assert fidelity(fock(0), fock(0)) == pytest.approx(1.0)
    assert fidelity(fock(0), fock(1)) == pytest.approx(0.0)


def test_fidelity_coherent_vacuum():
    # |<0|alpha>|^2 equals the zero-photon Poisson weight
    assert fidelity(coherent(1.0), fock(0)) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert math.exp(-1.0) == pytest.approx(poisson_tail(1.0, 0) - poisson_tail(1.0, 1), abs=1e-13)


def test_fidelity_mixed_agrees_with_pure_overlap():
    s1 = coherent(0.7)
    s2 = coherent(-0.2 + 0.5j)
    expected = fidelity(s1, s2)
    rho1, rho2 = (DensityMatrix(np.outer(s.amplitudes, s.amplitudes.conj())) for s in (s1, s2))
    assert fidelity(rho1, s2) == pytest.approx(expected, abs=1e-10)
    assert fidelity(rho1, rho2) == pytest.approx(expected, abs=1e-8)


def test_fidelity_mixed_mixed_identical():
    rho = random_state(8, "mixed", rank=3, seed=2)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_tail_mass_poisson():
    state = coherent(1.0)
    assert np.sum(state.probabilities[8:]) == pytest.approx(poisson_tail(1.0, 8), abs=1e-12)


def test_density_matrix_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    DensityMatrix(good)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.5]).astype(complex))  # trace
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.1
    with pytest.raises(ValueError):
        DensityMatrix(bad_herm)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue


# ---------------------------------------------------------------- positivity

FLOOR = DensityMatrix.EIGENVALUE_FLOOR
# smallest eigenvalues on both sides of the floor and of the Cholesky shift (-FLOOR / 2)
LAMBDA_MINS = (-2e-10, FLOOR * (1 + 1e-7), FLOOR * (1 - 1e-7), -7e-11, -5e-11, 0.0, 1e-12)


def _with_spectrum(rng, dim, lam_min):
    """U diag(lam) U^dag for a Haar unitary U, unit trace, smallest eigenvalue lam_min."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    rest = rng.uniform(0.1, 1.0, dim - 1)
    lam = np.concatenate(([lam_min], rest * (1.0 - lam_min) / rest.sum()))
    rho = (u * lam) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


def _accepts(rho):
    try:
        DensityMatrix(rho)
    except ValueError:
        return False
    return True


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("dim", [2, 17, 69, 130])
def test_positivity_decision_matches_the_eigvalsh_oracle(dim):
    rng = np.random.default_rng(dim)
    for lam_min in LAMBDA_MINS:
        for _ in range(4):
            rho = _with_spectrum(rng, dim, lam_min)
            expected = eigvalsh_accepts(rho, FLOOR)
            assert _accepts(rho) == expected, (dim, lam_min)
            # within 1e-17 of the floor the oracle's own round-off decides
            if abs(lam_min - FLOOR) > 1e-15:
                assert expected == (lam_min > FLOOR), (dim, lam_min)


@pytest.mark.parametrize("dim", [2, 17, 69, 130])
def test_only_a_refused_factorization_reaches_eigvalsh(dim, eigvalsh_calls):
    rng = np.random.default_rng(dim + 1)
    DensityMatrix(_with_spectrum(rng, dim, 0.0))
    assert eigvalsh_calls == []
    # below the shifted floor the factorization fails, and the spectrum accepts
    DensityMatrix(_with_spectrum(rng, dim, -7e-11))
    assert eigvalsh_calls == [(dim, dim)]


@pytest.mark.parametrize("big", [1e200, 1e300])
def test_huge_indefinite_matrices_are_refused_without_warnings(big):
    rng = np.random.default_rng(5)
    off = rng.standard_normal((17, 17)) * big
    cases = [
        np.array([[0.5, big], [big, 0.5]], dtype=complex),
        np.array([[0.5, 1j * big], [-1j * big, 0.5]]),
        np.diag(np.full(17, 1.0 / 17)) + np.triu(off, 1) + np.triu(off, 1).T,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in cases:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(rho)


@pytest.mark.parametrize("rank", [1, 2, 257])
def test_largest_random_mixed_states_build_on_the_factorization(rank, eigvalsh_calls):
    state = random_state(256, "mixed", rank=rank, seed=rank)
    assert state.cutoff == 256 + BOUNDARY_PAD
    assert eigvalsh_calls == []
