"""Earlier package code paths, kept so that the tests can replay them bit for bit.

Each function here is not an independent oracle: it reproduces how an
earlier version of the package computed something (the tight-bound scan,
the strong-field block, the random draw, the sweep seeding, the JSON writer
and the Laguerre crescent), and the package's current code must give the
same bits.  Several reach into package internals to do so.  Independent
oracles live in `_oracles.py`.
"""

import json
import math
import numbers
import sys

import numpy as np

from fockgauge.errors import NonFiniteOutputError, ZeroNormError
from fockgauge.fock import BOUNDARY_PAD, DensityMatrix
from fockgauge.schema import SQUARE_LIMIT
from fockgauge.states import _coherent_amps, _finalize, _raised, _refuse_nan, random_state


# The tight-bound scan as the package first wrote it: a 1024-point grid over
# a half period brackets the maximum and golden section refines it, reading
# the moments through the summary's attributes.  The package's scan must
# return the same (bound, theta) bit for bit.
_GRID_SIZE = 1024
_THETA_GRID = np.linspace(0.0, math.pi, _GRID_SIZE, endpoint=False)
_SIN = np.sin(_THETA_GRID)
_COS = np.cos(_THETA_GRID)
_SIN2 = np.sin(2.0 * _THETA_GRID)
_COS2 = np.cos(2.0 * _THETA_GRID)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 1e-10


def reference_objective(summary, theta: float) -> float:
    """|<p_theta>|^2 / (4 Var x_theta) from a moment summary."""
    s, c = math.sin(theta), math.cos(theta)
    p = summary.mean_a.real * s + summary.mean_a.imag * c
    var_x = (
        summary.cov_ada
        + summary.var_a.real * (c * c - s * s)
        - summary.var_a.imag * 2.0 * s * c
    )
    return p * p / (2.0 * var_x)


def reference_scan(summary) -> tuple[float, float]:
    """Grid-bracketed golden-section maximum of `reference_objective` over [0, pi)."""
    ar, ai = summary.mean_a.real, summary.mean_a.imag
    p = ar * _SIN + ai * _COS
    var_x = summary.cov_ada + summary.var_a.real * _COS2 - summary.var_a.imag * _SIN2
    values = p * p / (2.0 * var_x)
    best = int(np.argmax(values))
    step = math.pi / _GRID_SIZE
    lo, hi = _THETA_GRID[best] - step, _THETA_GRID[best] + step
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = reference_objective(summary, c), reference_objective(summary, d)
    while hi - lo > _REFINE_TOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = reference_objective(summary, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = reference_objective(summary, d)
    theta = ((lo + hi) / 2.0) % math.pi
    return reference_objective(summary, theta), theta


# The strong-field superposition as the package first built it: one row per
# gamma in a Python loop, each row normalized by its own 2-norm.  The
# package's block construction must give the same amplitudes bit for bit.
def _reference_norm(amps: np.ndarray) -> float:
    re, im = amps.real, amps.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    if norm < 1e-13:
        raise ZeroNormError("state construction cancelled to zero norm")
    return norm


def reference_strong_field(alpha: complex, gamma, eps_tail: float = 1e-14) -> np.ndarray:
    """Padded, normalized amplitudes of |alpha> + gamma a^dag |alpha>, one gamma at a time."""
    ndim = 0 if isinstance(gamma, numbers.Number) else np.ndim(gamma)
    gammas = list(map(complex, gamma if ndim else [gamma]))
    c = _coherent_amps(alpha, eps_tail, 1)
    raised = _raised(c)
    rows = []
    for g in gammas:
        _refuse_nan(gamma=g)
        # below 2^500 no square of gamma a^dag |alpha> can overflow its norm
        if max(abs(g.real), abs(g.imag)) < SQUARE_LIMIT:
            combined = g * raised
            combined[: c.size] += c
        else:
            combined = raised.copy()
            combined[: c.size] += c * (1.0 / g)
        rows.append(combined)
    amps = np.array(rows).reshape(-1, raised.size) if ndim else rows[0]
    norm = _reference_norm(amps) if amps.ndim == 1 else np.array(list(map(_reference_norm, amps))).reshape(-1, 1)
    size = amps.shape[-1]
    padded = np.zeros(amps.shape[:-1] + (size + BOUNDARY_PAD,), dtype=np.complex128)
    np.divide(amps, norm, out=padded[..., :size])
    return padded


# Random states as the package first drew them: the real parts in one
# standard_normal call, the imaginary parts in a second, joined as a + 1j * b.
# The package's one-call draw must give the same state bit for bit.
def reference_random_state(cutoff: int, kind: str, rank: int, seed):
    """The padded pure state or the density matrix of a two-draw Gaussian factor."""
    rng = np.random.default_rng(seed)
    shape = (cutoff + 1,) if kind == "pure" else (cutoff + 1, rank)
    factor = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return _finalize(factor) if kind == "pure" else DensityMatrix(factor)


# Sweep states as the package first seeded them: one `default_rng([S, i])` per
# index, through numpy's own SeedSequence.  A sweep over the package's chunked
# seeds must print the same bytes.
def reference_sweep_states(config):
    """(index, state) pairs of a sweep, each state seeded with the list [seed, index]."""
    for i in range(config.n_pure):
        yield i, random_state(config.cutoff, "pure", seed=[config.seed, i])
    for j in range(config.n_mixed):
        index = config.n_pure + j
        yield index, random_state(config.cutoff, "mixed", rank=1 + (j % config.rank), seed=[config.seed, index])


# The JSON writer as the package first wrote it: one recursive pass that
# formats each float as it meets it, with keys written as JSON strings.  The
# package's `cli.dumps` must give the same text, and raise the same errors
# with the same messages.
def _reference_dump(obj, pieces: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            pieces.append("{}" if is_dict else "[]")
            return
        pieces.append("{\n" if is_dict else "[\n")
        last = len(obj) - 1
        for i, (key, value) in enumerate(obj.items() if is_dict else enumerate(obj)):
            pieces.append(f"{pad}  {json.dumps(str(key))}: " if is_dict else pad + "  ")
            try:
                _reference_dump(value, pieces, indent + 1)
            except NonFiniteOutputError as exc:
                exc.path.insert(0, key)  # built on the way out: free when nothing fails
                raise
            pieces.append(",\n" if i < last else "\n")
        pieces.append(pad + ("}" if is_dict else "]"))
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteOutputError(obj)
        pieces.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_dumps(obj) -> str:
    """Deterministic strict JSON with 17-significant-digit floats, one float at a time."""
    pieces: list = []
    _reference_dump(obj, pieces, 0)
    return "".join(pieces)


def reference_laguerre_amps(alpha: complex, added: int, eps_tail: float) -> np.ndarray:
    """The crescent's closed-form amplitudes with every log taken in the loop.

    The package's `states._crescent_laguerre_amps` takes log|alpha| once and
    must give the same floats bit for bit.
    """
    top = _coherent_amps(alpha, eps_tail, added).size - 1 + added
    aa2 = abs(alpha) ** 2
    # a |alpha|^2 below the normal range has lost bits or underflowed to 0
    log_aa2 = math.log(aa2) if aa2 >= sys.float_info.min else 2.0 * math.log(abs(alpha))
    phase = np.exp(-1j * np.angle(alpha))
    logs = np.empty(top + 1)
    for n in range(top + 1):
        terms = [
            math.log(math.comb(added, n - i)) + i * log_aa2 - math.lgamma(i + 1)
            for i in range(max(0, n - added), n + 1)
        ]
        peak = max(terms)
        logs[n] = (
            0.5 * math.lgamma(n + 1)
            + (added - n) * math.log(abs(alpha))
            + peak
            + math.log(sum(math.exp(t - peak) for t in terms))
        )
    logs -= logs.max()
    return np.exp(logs) * phase ** (added - np.arange(top + 1))
