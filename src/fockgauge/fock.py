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
    """Normalized pure state c_0|0> + ... + c_N|N> on a truncated Fock space.

    `amplitudes` may also be an (N, D) block: N pure states on one register
    of D levels, one state per row.  The moment functions below and
    `moments.summarize` reduce over the last axis, so a block gives one
    result per row, bit for bit what that row alone gives.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim not in (1, 2) or amps.shape[-1] == 0:
            raise ValueError("amplitudes must be a non-empty 1-d sequence or an (N, D) block")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        norm_sq = np.add.reduce(np.abs(amps) ** 2, -1)
        # written so that a NaN norm fails too; one state is checked in Python
        # floats, which are cheaper than numpy's scalar arithmetic
        if amps.ndim == 1:
            norm_sq = float(norm_sq)
            if not abs(norm_sq - 1.0) <= NORM_TOL:
                raise ValueError(f"amplitudes are not normalized: sum p = {norm_sq!r}")
            return
        normalized = abs(norm_sq - 1.0) <= NORM_TOL
        if not normalized.all():
            row = int(normalized.argmin())
            raise ValueError(f"amplitudes are not normalized in row {row}: sum p = {norm_sq[row].item()!r}")

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[-1] - 1

    @property
    def norm_sq(self) -> Union[float, np.ndarray]:
        """Sum of the probabilities; one per row of a block."""
        norm_sq = np.add.reduce(self.probabilities, -1)
        return norm_sq if norm_sq.ndim else float(norm_sq)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state as a Hermitian, positive-semidefinite, unit-trace matrix.

    Positive semidefinite means a smallest eigenvalue of at least
    EIGENVALUE_FLOOR.  A Cholesky factorization of the matrix with half the
    floor's magnitude added to its diagonal certifies that; only a matrix the
    factorization refuses is decided by its smallest eigenvalue (`eigvalsh`).
    """

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
        # A factorable Hermitian matrix of unit trace has its diagonal in (0, 1],
        # so Cholesky's backward error is about n^2 u, far below the shift: a
        # factorization proves lambda_min >= 0.5 * floor - n^2 u > floor.
        shifted = rho.copy()
        shifted.flat[:: shifted.shape[0] + 1] -= 0.5 * self.EIGENVALUE_FLOOR
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            if float(np.linalg.eigvalsh(rho)[0]) < self.EIGENVALUE_FLOOR:
                raise ValueError("density matrix has a negative eigenvalue beyond tolerance") from None

    @property
    def cutoff(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.entries))


QuantumState = Union[FockVector, DensityMatrix]


# Bounded so that a long process over many cutoffs keeps a fixed footprint.
_WINDOW_CACHE_SIZE = 256
# the top BOUNDARY_PAD levels of the last axis; the whole register when it is shorter
_TOP = (..., slice(-BOUNDARY_PAD, None))


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


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _last_axis_window(dim: int, j: int, k: int):
    # `_moment_window` with its slices on the last axis, so that one state and
    # a block of rows index alike; cached, because building the (..., slice)
    # tuples on every call measurably slowed the per-state sweep
    window = _moment_window(dim, j, k)
    return None if window is None else ((..., window[0]), (..., window[1]), window[2])


def _pure_moment(amps: np.ndarray, j: int, k: int) -> np.ndarray:
    # one moment per row of a block; a 0-d array for one state
    window = _last_axis_window(amps.shape[-1], j, k)
    if window is None:
        return np.zeros(amps.shape[:-1], dtype=np.complex128)
    n, m, weight = window
    return np.add.reduce(amps[m].conj() * amps[n] * weight, -1)


def _mixed_moment(rho: np.ndarray, j: int, k: int) -> complex:
    # Tr(rho a^dag^j a^k) along the (j - k)-shifted diagonal; exact for
    # states supported within the stored cutoff.
    window = _moment_window(rho.shape[0], j, k)
    if window is None:
        return 0.0 + 0.0j
    n, m, weight = window
    return complex(np.add.reduce(np.diagonal(rho[n, m]) * weight))


def normally_ordered_moment(state: QuantumState, j: int, k: int) -> Union[complex, np.ndarray]:
    """Exact <a^dag^j a^k> of the stored state, for orders j, k <= 4.

    A FockVector block gives a complex array with one moment per row.
    Conversions used elsewhere: <n> = moment(1, 1) and
    <n^2> = moment(2, 2) + moment(1, 1).
    """
    if not (0 <= j <= MAX_MOMENT_ORDER and 0 <= k <= MAX_MOMENT_ORDER):
        raise MomentOrderError(f"moment order ({j}, {k}) exceeds the supported maximum {MAX_MOMENT_ORDER}")
    if isinstance(state, FockVector):
        moment = _pure_moment(state.amplitudes, j, k)
        return moment if moment.ndim else complex(moment)
    return _mixed_moment(state.entries, j, k)


def boundary_mass(state: QuantumState) -> Union[float, np.ndarray]:
    """Occupation in the top BOUNDARY_PAD indices of the register; one per row of a block."""
    if isinstance(state, FockVector):
        mass = np.add.reduce(np.abs(state.amplitudes[_TOP]) ** 2, -1)
        return mass if mass.ndim else float(mass)
    return float(np.add.reduce(state.probabilities[_TOP]))

