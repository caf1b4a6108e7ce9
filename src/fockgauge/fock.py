"""Truncated Fock-space state containers and the primitive moment engine.

States live on the span of |0>..|N> for a finite cutoff N.  Pure states are
stored as amplitude arrays, mixed states as dense density matrices.  Every
moment computed here is the exact moment of the stored (finite-support)
state; truncation error relative to an intended infinite-dimensional state
is the constructor's responsibility and is tracked through tail masses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import MomentOrderError, SchemaError

DEFAULT_MAX_CUTOFF = 4096
MAX_MOMENT_ORDER = 4
NORM_TOL = 1e-12

# Extra all-zero amplitudes appended by state constructors.  Keeps the top of
# the register empty for exactly representable states, so the boundary
# heuristic behind `truncation_warning` does not fire on exact constructions.
BOUNDARY_PAD = 4


def max_cutoff() -> int:
    """Cutoff ceiling for state constructors (env FOCKGAUGE_MAX_CUTOFF overrides)."""
    raw = os.environ.get("FOCKGAUGE_MAX_CUTOFF", str(DEFAULT_MAX_CUTOFF))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise SchemaError(f"FOCKGAUGE_MAX_CUTOFF must be a positive integer, got {raw!r}")
    return int(raw)


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
        if abs(self.norm_sq - 1.0) > NORM_TOL:
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

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


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
        if np.max(np.abs(rho - rho.conj().T)) > self.HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(rho).real - 1.0) > self.TRACE_TOL or abs(np.trace(rho).imag) > self.TRACE_TOL:
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


def _raised(amps: np.ndarray) -> np.ndarray:
    """Amplitudes of a^dag|psi>: c_n |n> -> c_n sqrt(n+1) |n+1>."""
    out = np.zeros(amps.size + 1, dtype=np.complex128)
    out[1:] = amps * np.sqrt(np.arange(1, amps.size + 1))
    return out


def _moment_indices(dim: int, j: int, k: int):
    # <a^dag^j a^k> couples indices n and m = n - k + j; the weight is the
    # square root of an exact integer product, taken in one sqrt so that
    # equal-order moments (perfect squares) come out exactly.
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
    return n, n - k + j, np.sqrt(coeff)


def _pure_moment(amps: np.ndarray, j: int, k: int) -> complex:
    idx = _moment_indices(amps.size, j, k)
    if idx is None:
        return 0.0 + 0.0j
    n, m, weight = idx
    return complex(np.sum(np.conj(amps[m]) * amps[n] * weight))


def _mixed_moment(rho: np.ndarray, j: int, k: int) -> complex:
    # Tr(rho a^dag^j a^k) along the (j - k)-shifted diagonal; exact for
    # states supported within the stored cutoff.
    idx = _moment_indices(rho.shape[0], j, k)
    if idx is None:
        return 0.0 + 0.0j
    n, m, weight = idx
    return complex(np.sum(rho[n, m] * weight))


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


def tail_mass(state: QuantumState, m: int) -> float:
    """Occupation probability at or above Fock index m."""
    if m < 0:
        raise ValueError("tail index must be non-negative")
    if m > state.cutoff:
        raise ValueError("tail index exceeds the state's cutoff")
    return float(np.sum(state.probabilities[m:]))


def boundary_mass(state: QuantumState) -> float:
    """Occupation in the top four indices of the register (clamped at 0)."""
    return float(np.sum(state.probabilities[max(0, state.cutoff - 3):]))


def _common_dim(*states: QuantumState) -> int:
    return max(s.cutoff for s in states) + 1


def _as_matrix(state: QuantumState, dim: int) -> np.ndarray:
    if isinstance(state, FockVector):
        v = np.pad(state.amplitudes, (0, dim - state.amplitudes.size))
        return np.outer(v, v.conj())
    out = np.zeros((dim, dim), dtype=np.complex128)
    n = state.entries.shape[0]
    out[:n, :n] = state.entries
    return out


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def fidelity(s1: QuantumState, s2: QuantumState) -> float:
    """Fidelity in [0, 1]; overlap squared for pure pairs, Uhlmann otherwise.

    States are zero-extended to a common cutoff first.
    """
    dim = _common_dim(s1, s2)
    if isinstance(s1, FockVector) and isinstance(s2, FockVector):
        u = np.pad(s1.amplitudes, (0, dim - s1.amplitudes.size))
        v = np.pad(s2.amplitudes, (0, dim - s2.amplitudes.size))
        return float(min(1.0, abs(np.vdot(u, v)) ** 2))
    if isinstance(s1, FockVector) or isinstance(s2, FockVector):
        psi, rho = (s1, s2) if isinstance(s1, FockVector) else (s2, s1)
        v = np.pad(psi.amplitudes, (0, dim - psi.amplitudes.size))
        mat = _as_matrix(rho, dim)
        return float(min(1.0, np.real(np.vdot(v, mat @ v))))
    root = _psd_sqrt(_as_matrix(s1, dim))
    inner = root @ _as_matrix(s2, dim) @ root
    ev = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(1.0, np.sum(np.sqrt(ev)) ** 2))
