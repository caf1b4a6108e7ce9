"""Factories for the state families under study.

Every constructor returns a normalized `FockVector` (or, for the mixed
random ensemble, the `DensityMatrix` of a Ginibre factor) whose neglected
amplitude mass is below the requested tail tolerance, with a few zero
amplitudes appended on top so the register boundary stays empty for
well-converged constructions.

The sheared near-number eigenstates ("crescent" states) come in two
independent constructions: repeated ladder applications of (a^dag + alpha^*)
on a coherent state, and the closed-form Fock expansion through generalized
Laguerre polynomials of negative upper index.  The two must agree on the same
ray; tests enforce this cross-validation.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import sys
from typing import Sequence, Union

import numpy as np

from .errors import CutoffExplosionError, SchemaError, ZeroNormError
from .fock import BOUNDARY_PAD, DensityMatrix, FockVector, QuantumState
from .schema import SQUARE_LIMIT, check_fields, complex_number, integer, integer_or_list, real

DEFAULT_EPS_TAIL = 1e-14
DEFAULT_MAX_CUTOFF = 4096
EPS_TAIL_CEILING = 1e-6
MAX_ADDED_PHOTONS = 16
MAX_RANDOM_CUTOFF = 256

Seed = Union[int, tuple, list]


def max_cutoff() -> int:
    """Cutoff ceiling for state constructors (env FOCKGAUGE_MAX_CUTOFF overrides)."""
    raw = os.environ.get("FOCKGAUGE_MAX_CUTOFF", str(DEFAULT_MAX_CUTOFF))
    try:
        if raw.strip().isdecimal() and int(raw) >= 1:
            return int(raw)
    except ValueError:  # more digits than int() reads, too many to echo
        raise SchemaError(f"FOCKGAUGE_MAX_CUTOFF has {len(raw)} characters, more digits than int() reads") from None
    raise SchemaError(f"FOCKGAUGE_MAX_CUTOFF must be a positive integer, got {raw!r}")


def _check_eps(eps_tail: float) -> None:
    if not (0.0 < eps_tail <= EPS_TAIL_CEILING):
        raise ValueError(f"eps_tail must lie in (0, {EPS_TAIL_CEILING}], got {eps_tail!r}")


def _refuse_nan(**params: complex) -> None:
    # NaN passes every range test below, then ends in an unrelated error; it
    # is the one value unequal to itself, which also holds for a complex part
    for name, value in params.items():
        if value != value:
            raise ValueError(f"{name} must not be NaN, got {value!r}")


def _norm(amps: np.ndarray) -> float | np.ndarray:
    # numpy's own 2-norm of a complex vector, without linalg.norm's dispatch;
    # of an (N, D) block, the (N, 1) row norms from one stacked dot per part,
    # which calls the same BLAS ddot per row as ndarray.dot
    re, im = amps.real, amps.imag
    if amps.ndim == 1:
        norm = smallest = math.sqrt(re.dot(re) + im.dot(im))
    else:
        norm = np.sqrt(np.matmul(re[:, None], re[..., None]) + np.matmul(im[:, None], im[..., None]))[:, 0]
        smallest = norm.min(initial=math.inf)
    if smallest < 1e-13:
        raise ZeroNormError("state construction cancelled to zero norm")
    return norm


def _finalize(amps: np.ndarray) -> FockVector:
    """The padded, normalized state of `amps`; an (N, D) block row by row."""
    norm = _norm(amps)
    size = amps.shape[-1]
    padded = np.zeros(amps.shape[:-1] + (size + BOUNDARY_PAD,), dtype=np.complex128)
    np.divide(amps, norm, out=padded[..., :size])
    padded.flags.writeable = False  # the state takes the fresh block without a copy
    return FockVector(padded)


def _raised(amps: np.ndarray) -> np.ndarray:
    """Amplitudes of a^dag|psi>: c_n |n> -> c_n sqrt(n+1) |n+1>."""
    out = np.zeros(amps.size + 1, dtype=np.complex128)
    out[1:] = amps * np.sqrt(np.arange(1, amps.size + 1))
    return out


def _beyond_ceiling(alpha: complex, added: int) -> CutoffExplosionError:
    room = f" with room for {added} added photons" if added else ""
    return CutoffExplosionError(f"coherent amplitude {alpha!r}{room} needs a cutoff beyond {max_cutoff()}")


def _room_for(alpha: complex, added: int = 0) -> tuple[float, int]:
    """|alpha|^2 and the cutoff room left below the ceiling for `added` photons.

    A state displaced by alpha holds at least |alpha|^2 photons on average, so
    from |alpha|^2 = room + 2 on its tail cannot be cut off within the room.
    Such amplitudes are refused here, before squaring them can overflow, and
    so is a NaN amplitude.
    """
    _refuse_nan(alpha=alpha)
    room = max_cutoff() - added
    lam = abs(alpha) ** 2 if max(abs(alpha.real), abs(alpha.imag)) < SQUARE_LIMIT else math.inf
    if room < 0 or lam >= room + 2:
        raise _beyond_ceiling(alpha, added)
    return lam, room


def _coherent_amps(alpha: complex, eps_tail: float, added: int = 0) -> np.ndarray:
    """Normalized coherent amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!), unpadded.

    The cutoff is grown until a geometric bound on the neglected Poisson tail
    drops below eps_tail; this stays reliable long after 1 - cumsum would
    drown in round-off.  The running amplitudes are rescaled by powers of two
    on the way up, so only the cutoff ceiling limits |alpha|.  The cutoff
    stays `added` below the ceiling, for callers that add photons on top.
    """
    _check_eps(eps_tail)
    if not 0 <= added <= MAX_ADDED_PHOTONS:
        raise ValueError(f"photon addition order must lie in [0, {MAX_ADDED_PHOTONS}]")
    alpha = complex(alpha)
    lam, room = _room_for(alpha, added)
    if lam == 0.0:
        return np.ones(1, dtype=np.complex128)
    c = 1.0 + 0.0j
    amps = [c]
    cum = 1.0
    n = 0
    while True:
        n += 1
        if n > room:
            raise _beyond_ceiling(alpha, added)
        c = c * alpha / math.sqrt(n)
        amps.append(c)
        p = abs(c) ** 2  # the new level's weight, read by both tests below
        cum += p
        if cum > 2.0**1000:
            # exact in binary, and never reached below |alpha|^2 of about 693
            amps = [x * 2.0**-500 for x in amps]
            cum *= 2.0**-1000
            c = amps[-1]
            p = abs(c) ** 2
        if n + 2 > lam:
            p_next = p * lam / (n + 1)
            if p_next / (1.0 - lam / (n + 2)) < eps_tail * cum:
                break
    v = np.array(amps, dtype=np.complex128)
    return v / _norm(v)


def coherent(alpha: complex, eps_tail: float = DEFAULT_EPS_TAIL) -> FockVector:
    """Coherent state |alpha> truncated to the requested tail tolerance."""
    return _finalize(_coherent_amps(alpha, eps_tail))


def number_state(n: int) -> FockVector:
    """Number state |n>."""
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    if n > max_cutoff():
        raise CutoffExplosionError(f"Fock index {n} exceeds the cutoff ceiling {max_cutoff()}")
    amps = np.zeros(n + 1, dtype=np.complex128)
    amps[n] = 1.0
    return _finalize(amps)


def squeezed_coherent(
    alpha: complex, r: float, phi_s: float = 0.0, eps_tail: float = DEFAULT_EPS_TAIL
) -> FockVector:
    """Displaced squeezed vacuum D(alpha) S(r e^{i phi_s}) |0>.

    Convention pin: phi_s = 0 squeezes the p quadrature at theta = 0, so the
    minor variance e^{-2r}/2 sits along p and the major e^{+2r}/2 along x.
    Amplitudes follow the two-term recurrence of Gaussian pure states,
    (mu a + nu a^dag)|psi> = (mu alpha + nu alpha^*)|psi> with mu = cosh r and
    nu = -e^{i phi_s} sinh r.  At the default cutoff ceiling of 4096 a squeezed
    vacuum builds up to |r| of about 2.805 (cutoff 4096); displacement lowers
    the limit, and beyond it CutoffExplosionError is raised.  The mean photon
    number |alpha|^2 + sinh^2 r is at least |alpha|^2, so alpha is refused, and
    the running amplitudes rescaled by powers of two, as in `_coherent_amps`.
    """
    _check_eps(eps_tail)
    _refuse_nan(r=r, phi_s=phi_s)
    if abs(phi_s) == math.inf:  # e^{i phi_s} would be NaN, and the state fail unnamed
        raise ValueError(f"phi_s must be finite, got {phi_s!r}")
    if abs(r) > 3.0:
        raise ValueError("squeezing magnitude |r| is limited to 3 for truncation safety")
    alpha = complex(alpha)
    _, ceiling = _room_for(alpha)
    mu = math.cosh(r)
    nu = -np.exp(1j * phi_s) * math.sinh(r)
    beta = mu * alpha + nu * np.conjugate(alpha)
    # the last two levels, numpy complex scalars as the recurrence makes them
    # (Python's complex division rounds differently), and n with sqrt(n)
    prev, last = 1.0 + 0.0j, beta / mu
    n, root = 1, 1.0
    c = [prev, last]
    chunk = 64
    # the tail test reads `c` from this array, into which each chunk's new
    # levels are written once; it grows by doubling, so that it stays within
    # twice the levels built, whatever the ceiling
    buffer = np.empty(4 * chunk, dtype=np.complex128)
    written = 0
    while True:
        # the last round stops at the ceiling; the tail test reads whole chunks
        step = min(chunk, ceiling + 1 - len(c))
        if step <= 0:
            raise CutoffExplosionError(
                f"squeezed state (alpha={alpha!r}, r={r}) needs a cutoff beyond {ceiling}"
            )
        for _ in range(step):
            root_next = math.sqrt(n + 1)
            prev, last = last, (beta * last - nu * root * prev) / (mu * root_next)
            c.append(last)
            n, root = n + 1, root_next
            if abs(last) > SQUARE_LIMIT:  # exact in binary; the sums below stay finite
                c = [x / SQUARE_LIMIT for x in c]
                prev, last = c[-2], c[-1]
                written = 0
        size = len(c)
        if size > buffer.size:
            buffer = np.concatenate((buffer[:written], np.empty(2 * buffer.size - written, dtype=np.complex128)))
        buffer[written:size] = c[written:]
        written = size
        p = np.abs(buffer[:size]) ** 2
        cum = float(p.sum())
        w_last = float(p[-chunk:].sum())
        if w_last == 0.0:
            break
        if len(p) >= 2 * chunk:
            w_prev = float(p[-2 * chunk:-chunk].sum())
            if 0.0 < w_last < w_prev:
                q = w_last / w_prev
                if w_last * q / (1.0 - q) < eps_tail * cum:
                    break
    return _finalize(buffer[:size])


def _crescent_laguerre_amps(alpha: complex, added: int, top: int) -> np.ndarray:
    # Closed-form expansion: c_n proportional to
    #   sqrt(n!) (alpha^*)^{added-n} L_n^{(added-n)}(-|alpha|^2).
    # The diagonal Laguerre value expands into the finite sum
    #   sum_i C(added, n-i) |alpha|^{2i} / i!,
    # whose terms are all non-negative; evaluated in log space it is stable at
    # every depth, unlike the fixed-upper-index three-term recurrence whose
    # tail values drown in cancellation noise.  Levels 0..top are built.
    aa2 = abs(alpha) ** 2
    log_abs = math.log(abs(alpha))
    # a |alpha|^2 below the normal range has lost bits or underflowed to 0
    log_aa2 = math.log(aa2) if aa2 >= sys.float_info.min else 2.0 * log_abs
    phase = np.exp(-1j * np.angle(alpha))
    # each level's terms read these instead of taking them again
    log_comb = [math.log(math.comb(added, k)) for k in range(added + 1)]
    log_factorial = [math.lgamma(i + 1) for i in range(top + 1)]
    logs = np.empty(top + 1)
    for n in range(top + 1):
        terms = [
            log_comb[n - i] + i * log_aa2 - log_factorial[i]
            for i in range(max(0, n - added), n + 1)
        ]
        peak = max(terms)
        logs[n] = (
            0.5 * log_factorial[n]
            + (added - n) * log_abs
            + peak
            + math.log(sum(math.exp(t - peak) for t in terms))
        )
    logs -= logs.max()
    return np.exp(logs) * phase ** (added - np.arange(top + 1))


def crescent(
    alpha: complex,
    added: int,
    method: str = "operator",
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> FockVector:
    """Sheared near-number eigenstate: normalized (a^dag + alpha^*)^added |alpha>.

    `method="operator"` applies the ladder construction directly (the
    canonical, numerically robust route); `method="laguerre"` evaluates the
    closed-form Fock expansion.  Both represent the same ray.
    """
    if method not in ("operator", "laguerre"):
        raise ValueError(f"unknown crescent method {method!r}")
    c = _coherent_amps(alpha, eps_tail, added)
    alpha = complex(alpha)
    if method == "laguerre":  # on the levels the ladder steps below reach
        return _finalize(_crescent_laguerre_amps(alpha, added, c.size - 1 + added)) if alpha else number_state(added)
    for _ in range(added):
        raised = _raised(c)
        raised[: c.size] += np.conjugate(alpha) * c
        c = raised
    return _finalize(c)


def photon_added(alpha: complex, added: int, eps_tail: float = DEFAULT_EPS_TAIL) -> FockVector:
    """Photon-added coherent state: normalized a^dag^added |alpha>."""
    c = _coherent_amps(alpha, eps_tail, added)
    for _ in range(added):
        c = _raised(c)
    return _finalize(c)


def approx_strong_field(
    alpha: complex, gamma: Union[complex, Sequence[complex]], eps_tail: float = DEFAULT_EPS_TAIL
) -> FockVector:
    """Normalized superposition |alpha> + gamma a^dag |alpha>.

    With gamma = added/alpha^* this approximates the crescent state in the
    strong-field regime.  Raises ZeroNormError on cancellation.  From |gamma|
    of 2^500 on, the same ray is built with gamma divided out, so that its
    norm stays in the float range.  A 1-D sequence of N gammas gives one
    (N, D) FockVector block, one state per row, built on one coherent run.
    """
    ndim = 0 if isinstance(gamma, numbers.Number) else np.ndim(gamma)
    if ndim > 1:
        raise ValueError(f"gamma must be a number or a 1-d sequence of numbers, got shape {np.shape(gamma)}")
    gammas = list(map(complex, gamma if ndim else [gamma]))
    c = _coherent_amps(alpha, eps_tail, 1)
    raised = _raised(c)
    coeffs = np.array(gammas, dtype=np.complex128)
    # below 2^500 no square of gamma a^dag |alpha> can overflow its norm.  No
    # other gamma multiplies the run: NaN is refused, and a larger gamma's row
    # is built with it divided out, in Python's complex division
    outside = np.flatnonzero(~(np.maximum(abs(coeffs.real), abs(coeffs.imag)) < SQUARE_LIMIT))
    coeffs[outside] = 0.0
    rows = coeffs[:, None] * raised
    rows[:, : c.size] += c
    for i in outside.tolist():
        _refuse_nan(gamma=gammas[i])
        rows[i] = raised
        rows[i, : c.size] += c * (1.0 / gammas[i])
    return _finalize(rows if ndim else rows[0])


def cat(alpha: complex, beta: float = 0.0, eps_tail: float = DEFAULT_EPS_TAIL) -> FockVector:
    """Normalized |alpha> + e^{i beta} |-alpha> (beta = 0 even, beta = pi odd).

    Any such superposition is an eigenstate of a^2 with eigenvalue alpha^2.
    Raises ZeroNormError on (numerically) exact cancellation.
    """
    _refuse_nan(beta=beta)
    if abs(beta) == math.inf:  # e^{i beta} would be NaN, and the state fail unnamed
        raise ValueError(f"beta must be finite, got {beta!r}")
    c = _coherent_amps(alpha, eps_tail)
    signs = np.where(np.arange(c.size) % 2 == 0, 1.0, -1.0)
    return _finalize(c * (1.0 + np.exp(1j * beta) * signs))


def check_random_shape(cutoff: int, rank: int) -> None:
    """Refuse a random-state cutoff or rank out of range, naming the field."""
    if not 0 <= cutoff <= MAX_RANDOM_CUTOFF:
        raise ValueError(f'field "cutoff" must lie in [0, {MAX_RANDOM_CUTOFF}], got {cutoff}')
    if not 1 <= rank <= cutoff + 1:
        raise ValueError(f'field "rank" must lie in [1, cutoff + 1], got {rank}')


def random_state(cutoff: int, kind: str, rank: int = 1, seed: Seed = 0) -> QuantumState:
    """Seeded random pure (Haar on the truncated sphere) or mixed (Ginibre) state.

    `seed` is anything `numpy.random.default_rng` takes: an integer, a list
    such as a sweep's `[S, i]`, or the sweep's own `seeds.SweepSeed`.
    """
    check_random_shape(cutoff, rank)
    rng = np.random.default_rng(seed)
    if kind == "pure":
        shape = (cutoff + 1,)
    elif kind == "mixed":
        shape = (cutoff + 1, rank)
    else:
        raise ValueError(f"unknown random state kind {kind!r}")
    # both parts from one draw, which the generator fills in order: the bits
    # of a real-part draw followed by an imaginary-part draw
    draws = rng.standard_normal((2, *shape))
    amps = np.empty(shape, dtype=np.complex128)
    amps.real = draws[0]
    amps.imag = draws[1]
    return _finalize(amps) if kind == "pure" else DensityMatrix(amps)


# ---------------------------------------------------------------------------
# StateSpec JSON schema
# ---------------------------------------------------------------------------

# JSON reader of every spec field; `crescent` itself rejects an unknown method
_FIELDS = {"alpha": complex_number, "gamma": complex_number, "method": operator.getitem}
_FIELDS.update(dict.fromkeys(("r", "phi_s", "beta", "eps_tail"), real))
_FIELDS.update(dict.fromkeys(("n", "M", "cutoff", "rank"), integer))
# a list seed [S, i] replays state i of a sweep with seed S
_FIELDS["seed"] = integer_or_list

# kind: (required fields, optional fields, builder).  An omitted optional field
# takes the constructor's default; the builders look constructors up at call
# time, so a replaced module global is seen.
_KINDS = {
    "coherent": (("alpha",), ("eps_tail",), lambda **f: coherent(**f)),
    "fock": (("n",), (), lambda **f: number_state(**f)),
    "squeezed_coherent": (("alpha", "r", "phi_s"), ("eps_tail",), lambda **f: squeezed_coherent(**f)),
    "crescent": (("alpha", "M"), ("method", "eps_tail"), lambda M, **f: crescent(added=M, **f)),
    "photon_added": (("alpha", "M"), ("eps_tail",), lambda M, **f: photon_added(added=M, **f)),
    "approx_strong_field": (("alpha", "gamma"), ("eps_tail",), lambda **f: approx_strong_field(**f)),
    "cat": (("alpha", "beta"), ("eps_tail",), lambda **f: cat(**f)),
    "random_pure": (("cutoff", "seed"), (), lambda **f: random_state(kind="pure", **f)),
    "random_mixed": (("cutoff", "rank", "seed"), (), lambda **f: random_state(kind="mixed", **f)),
}


def state_from_spec(spec: dict) -> QuantumState:
    """Build a state from its JSON description; kind-irrelevant fields are rejected."""
    check_fields(spec, "state spec", ("kind",), _FIELDS)
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f'field "kind" must be one of: {", ".join(sorted(_KINDS))}')
    required, optional, build = _KINDS[kind]
    check_fields(spec, f'"{kind}" spec', ("kind", *required), optional)
    fields = {name: _FIELDS[name](spec, name) for name in spec if name != "kind"}
    try:
        return build(**fields)
    except ValueError as exc:
        raise SchemaError(f'invalid parameters for kind "{kind}": {exc}') from exc
