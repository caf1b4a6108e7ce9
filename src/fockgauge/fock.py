"""Truncated Fock-space state containers and the primitive moment engine.

States live on the span of |0>..|N> for a finite cutoff N.  Pure states are
stored as amplitude arrays, mixed states as the density matrix of a factor G,
rho = G G^dag / tr(G G^dag), which is physical by construction.  Every
moment computed here is the exact moment of the stored (finite-support)
state; truncation error relative to an intended infinite-dimensional state
is the constructor's responsibility and is tracked through the boundary mass,
the occupation of the top BOUNDARY_PAD levels, which squares only those levels.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from typing import Union

import numpy as np

from .schema import SQUARE_LIMIT

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
        # a read-only array is taken as it is; a writeable one is copied, so
        # the caller's array is neither frozen nor aliased
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.flags.writeable:
            amps = amps.copy()
        if amps.ndim not in (1, 2) or amps.shape[-1] == 0:
            raise ValueError("amplitudes must be a non-empty 1-d sequence or an (N, D) block")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        norm_sq = np.add.reduce(np.abs(amps) ** 2, -1)
        # written so that a NaN norm fails too
        normalized = abs(norm_sq - 1.0) <= NORM_TOL
        # a single state's flag is a numpy bool, whose truth test is far cheaper than .all()
        if not (normalized if amps.ndim == 1 else normalized.all()):
            row = int(normalized.argmin())
            where = f" in row {row}" if amps.ndim == 2 else ""
            raise ValueError(f"amplitudes are not normalized{where}: sum p = {norm_sq.flat[row].item()!r}")

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[-1] - 1

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state rho = G G^dag / tr(G G^dag) of a (D, rank) factor G.

    `entries` is rho on D + BOUNDARY_PAD levels, read-only: G G^dag is formed
    in its top-left block, then each real and imaginary part of the whole
    buffer is multiplied by 1 / tr (the zero padding stays +0), so a zero
    part keeps its sign (complex division, rho /= tr, makes a -0 real part
    +0 when the imaginary part is >= +0, and a -0 imaginary part +0 when the
    real part is <= -0).  Every factor gives a Hermitian,
    positive, unit-trace rho, so nothing else is checked: each part of G lies
    below SQUARE_LIMIT in magnitude, so that G G^dag cannot overflow, and the
    trace is at least SQUARE_LIMIT**-2, so that dividing by it cannot either
    and underflowed products stay negligible.
    """

    factor: InitVar[np.ndarray]
    entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, factor: np.ndarray) -> None:
        g = np.array(factor, dtype=np.complex128)
        if g.ndim != 2 or g.size == 0:
            raise ValueError("factor must be a non-empty (D, rank) matrix")
        # written so that NaN parts fail too
        if not np.abs(g.view(np.float64)).max() < SQUARE_LIMIT:
            raise ValueError(f"factor parts must be finite and below {SQUARE_LIMIT!r} in magnitude")
        dim = g.shape[0]
        entries = np.zeros((dim + BOUNDARY_PAD, dim + BOUNDARY_PAD), dtype=np.complex128)
        rho = np.matmul(g, g.conj().T, out=entries[:dim, :dim])
        trace = rho.trace().real
        if not SQUARE_LIMIT**-2 <= trace < np.inf:
            raise ValueError(f"factor trace must be finite and at least {SQUARE_LIMIT**-2!r}, got {float(trace)!r}")
        # the whole buffer in one contiguous pass: the padding stays +0, as 1 / tr is positive
        parts = entries.view(np.float64)
        parts *= 1.0 / trace
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def cutoff(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def probabilities(self) -> np.ndarray:
        return self.entries.diagonal().real


QuantumState = Union[FockVector, DensityMatrix]


# Bounded so that a long process over many cutoffs keeps a fixed footprint;
# a stream of `gauge` requests touches about 300 windows.
_WINDOW_CACHE_SIZE = 512
# the top BOUNDARY_PAD levels of the last axis; the whole register when it is shorter
_TOP = (..., slice(-BOUNDARY_PAD, None))


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _moment_window(dim: int, j: int, k: int):
    # <a^dag^j a^k> couples indices n and m = n - k + j; the weight is the
    # square root of an exact integer product, taken in one sqrt so that
    # equal-order moments (perfect squares) come out exactly.  Returns the
    # n and m windows as last-axis index tuples (..., slice), so that one
    # state and a block of rows index alike, and the read-only weight.  A
    # register too short for the orders gets empty windows, which sum to 0.
    lo = k
    hi = max(lo - 1, dim - 1 - max(0, j - k))
    n = np.arange(lo, hi + 1)
    coeff = np.ones(n.size)
    for t in range(k):
        coeff = coeff * (n - t)
    for t in range(j):
        coeff = coeff * (n - k + 1 + t)
    weight = np.sqrt(coeff)
    weight.flags.writeable = False
    return (..., slice(lo, hi + 1)), (..., slice(lo - k + j, hi + 1 - k + j)), weight


def normally_ordered_moment(state: QuantumState, j: int, k: int) -> Union[complex, np.ndarray]:
    """Exact <a^dag^j a^k> of the stored state, for orders 0 <= j, k <= 2.

    A FockVector block gives a complex array with one moment per row; a
    density matrix is summed along its (j - k)-shifted diagonal.  Exact for
    states supported within the stored cutoff.  Conversions used elsewhere:
    <n> = moment(1, 1) and <n^2> = moment(2, 2) + moment(1, 1).
    """
    # only the orders `summarize` reads; large orders overflow the weights to inf, and inf * 0 is NaN
    if not (0 <= j <= 2 and 0 <= k <= 2):
        raise ValueError(f"moment order ({j}, {k}) is outside 0..2")
    if isinstance(state, FockVector):
        amps = state.amplitudes
        n, m, weight = _moment_window(amps.shape[-1], j, k)
        # `amps[m].conj() * amps[n] * weight`, scaled in place.  The complex
        # product stays out of place: numpy rounds an in-place complex product
        # of one element without FMA, so a one-level window would change bits.
        terms = amps[m].conj() * amps[n]
        terms *= weight
        moment = np.add.reduce(terms, -1)
        return moment if moment.ndim else complex(moment)
    rho = state.entries
    n, m, weight = _moment_window(rho.shape[0], j, k)
    return complex(np.add.reduce(rho[n[-1], m[-1]].diagonal() * weight))


def boundary_mass(state: QuantumState) -> Union[float, np.ndarray]:
    """Occupation in the top BOUNDARY_PAD indices of the register; one per row of a block.

    A pure state squares only those levels' amplitudes, elementwise as
    `probabilities` squares them all, so the bits are the same.
    """
    if isinstance(state, FockVector):
        top = np.abs(state.amplitudes[_TOP]) ** 2
    else:
        top = state.probabilities[_TOP]
    mass = np.add.reduce(top, -1)
    return mass if mass.ndim else float(mass)
