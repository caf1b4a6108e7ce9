"""Truncated Fock-space state containers and the primitive moment engine.

States live on the span of |0>..|N> for a finite cutoff N.  Pure states are
stored as amplitude arrays, mixed states as dense density matrices.  Every
moment computed here is the exact moment of the stored (finite-support)
state; truncation error relative to an intended infinite-dimensional state
is the constructor's responsibility and is tracked through the boundary mass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import MomentOrderError

MAX_MOMENT_ORDER = 4
NORM_TOL = 1e-12

# Extra all-zero amplitudes appended by state constructors.  Keeps the top of
# the register empty for exactly representable states, so the boundary
# heuristic behind `truncation_warning` does not fire on exact constructions.
BOUNDARY_PAD = 4


@dataclass(frozen=True, eq=False)
class FockVector:
    """Normalized pure state c_0|0> + ... + c_N|N> on a truncated Fock space."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        # written so that a NaN norm fails too
        if not abs(self.norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"amplitudes are not normalized: sum p = {self.norm_sq!r}")

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size - 1

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state as a Hermitian, positive-semidefinite, unit-trace matrix."""

    entries: np.ndarray

    HERMITICITY_TOL = 1e-12
    TRACE_TOL = 1e-12
    EIGENVALUE_FLOOR = -1e-10

    def __post_init__(self) -> None:
        rho = np.array(self.entries, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] == 0:
            raise ValueError("entries must be a square matrix")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)
        # written so that NaN entries fail too: inf - inf and NaN - NaN are NaN,
        # which this check refuses without numpy's warning
        with np.errstate(invalid="ignore"):
            asymmetry = np.max(np.abs(rho - rho.conj().T))
        if not asymmetry <= self.HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = np.trace(rho)
        if not (abs(trace.real - 1.0) <= self.TRACE_TOL and abs(trace.imag) <= self.TRACE_TOL):
            raise ValueError("density matrix trace differs from 1 beyond tolerance")
        if float(np.linalg.eigvalsh(rho)[0]) < self.EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")

    @property
    def cutoff(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.entries))


QuantumState = Union[FockVector, DensityMatrix]


# Bounded so that a long process over many cutoffs keeps a fixed footprint.
_WINDOW_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _moment_window(dim: int, j: int, k: int):
    # <a^dag^j a^k> couples indices n and m = n - k + j; the weight is the
    # square root of an exact integer product, taken in one sqrt so that
    # equal-order moments (perfect squares) come out exactly.  Returns the
    # n and m slices and the read-only weight, or None for an empty window.
    lo = k
    hi = dim - 1 - max(0, j - k)
    if hi < lo:
        return None
    n = np.arange(lo, hi + 1)
    coeff = np.ones(n.size)
    for t in range(k):
        coeff = coeff * (n - t)
    for t in range(j):
        coeff = coeff * (n - k + 1 + t)
    weight = np.sqrt(coeff)
    weight.flags.writeable = False
    return slice(lo, hi + 1), slice(lo - k + j, hi + 1 - k + j), weight


def _pure_moment(amps: np.ndarray, j: int, k: int) -> complex:
    window = _moment_window(amps.size, j, k)
    if window is None:
        return 0.0 + 0.0j
    n, m, weight = window
    return complex(np.sum(np.conj(amps[m]) * amps[n] * weight))


def _mixed_moment(rho: np.ndarray, j: int, k: int) -> complex:
    # Tr(rho a^dag^j a^k) along the (j - k)-shifted diagonal; exact for
    # states supported within the stored cutoff.
    window = _moment_window(rho.shape[0], j, k)
    if window is None:
        return 0.0 + 0.0j
    n, m, weight = window
    return complex(np.sum(np.diagonal(rho[n, m]) * weight))


def normally_ordered_moment(state: QuantumState, j: int, k: int) -> complex:
    """Exact <a^dag^j a^k> of the stored state, for orders j, k <= 4.

    Conversions used elsewhere: <n> = moment(1, 1) and
    <n^2> = moment(2, 2) + moment(1, 1).
    """
    if not (0 <= j <= MAX_MOMENT_ORDER and 0 <= k <= MAX_MOMENT_ORDER):
        raise MomentOrderError(f"moment order ({j}, {k}) exceeds the supported maximum {MAX_MOMENT_ORDER}")
    if isinstance(state, FockVector):
        return _pure_moment(state.amplitudes, j, k)
    return _mixed_moment(state.entries, j, k)


def boundary_mass(state: QuantumState) -> float:
    """Occupation in the top BOUNDARY_PAD indices of the register."""
    return float(np.sum(state.probabilities[max(0, state.cutoff + 1 - BOUNDARY_PAD):]))

