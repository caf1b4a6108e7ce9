import math

import numpy as np
import pytest

from fockgauge import (
    DensityMatrix,
    FockVector,
    MomentOrderError,
    coherent,
    fidelity,
    fock,
    normally_ordered_moment,
    random_state,
    tail_mass,
)
from _oracles import dense_moment, lowered, poisson_tail, raised


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


@pytest.mark.parametrize("j,k", [(0, 1), (1, 1), (0, 2), (2, 2), (1, 2), (3, 1)])
def test_moments_match_dense_oracle(j, k):
    state = random_state(12, "pure", seed=3)
    assert normally_ordered_moment(state, j, k) == pytest.approx(
        dense_moment(state, j, k), abs=1e-12
    )
    mixed = random_state(10, "mixed", rank=3, seed=4)
    assert normally_ordered_moment(mixed, j, k) == pytest.approx(
        dense_moment(mixed, j, k), abs=1e-12
    )


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
    rho = psi.to_density()
    for j, k in [(0, 1), (1, 1), (0, 2), (2, 2)]:
        assert normally_ordered_moment(psi, j, k) == pytest.approx(
            normally_ordered_moment(rho, j, k), abs=1e-12
        )


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
    assert fidelity(s1.to_density(), s2) == pytest.approx(expected, abs=1e-10)
    assert fidelity(s1.to_density(), s2.to_density()) == pytest.approx(expected, abs=1e-8)


def test_fidelity_mixed_mixed_identical():
    rho = random_state(8, "mixed", rank=3, seed=2)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_tail_mass_trivial():
    assert tail_mass(fock(0), 1) == pytest.approx(0.0)
    assert tail_mass(fock(1), 1) == pytest.approx(1.0)


def test_tail_mass_poisson():
    state = coherent(1.0)
    assert tail_mass(state, 8) == pytest.approx(poisson_tail(1.0, 8), abs=1e-12)


def test_tail_mass_bounds():
    with pytest.raises(ValueError):
        tail_mass(fock(1), -1)
    with pytest.raises(ValueError):
        tail_mass(fock(1), 99)


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
