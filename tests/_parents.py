"""Earlier package code paths, kept so that the tests can replay them bit for bit.

Each function here is not an independent oracle: it reproduces how an
earlier version of the package computed something (the tight-bound scan,
the strong-field block, fig4's per-row summaries, the random draw, the sweep
seeding, the JSON writer, the coherent and squeezed amplitude loops and the
Laguerre crescent), and the package's current code must give the same bits.
Several reach into package internals to do so.  Independent oracles live in
`_oracles.py`.
"""

import json
import math
import numbers
import sys

import numpy as np

from fockgauge.errors import CutoffExplosionError, NonFiniteOutputError, ZeroNormError
from fockgauge.fock import BOUNDARY_PAD, DensityMatrix, FockVector, boundary_mass, normally_ordered_moment
from fockgauge.gauges import trace_floor
from fockgauge.moments import BOUNDARY_MASS_WARN, _summary
from fockgauge.schema import SQUARE_LIMIT
from fockgauge.states import (
    DEFAULT_EPS_TAIL,
    MAX_ADDED_PHOTONS,
    _beyond_ceiling,
    _check_eps,
    _coherent_amps,
    _finalize,
    _norm,
    _raised,
    _refuse_nan,
    _room_for,
    approx_strong_field,
    random_state,
)


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


# fig4 as the package computed it before its block summary became columns:
# the block's four moments reduced once, then every derived field and
# |<a>|^2 computed row by row in Python floats.  `verify.figure_rows("fig4")`
# must give the same table bit for bit.
def _reference_block_summaries(state: FockVector) -> list:
    mean_a = normally_ordered_moment(state, 0, 1)
    mean_a2 = normally_ordered_moment(state, 0, 2)
    mean_n = normally_ordered_moment(state, 1, 1).real
    mean_a2da2 = normally_ordered_moment(state, 2, 2).real
    truncated = boundary_mass(state) > BOUNDARY_MASS_WARN
    return list(
        map(_summary, mean_a.tolist(), mean_a2.tolist(), mean_n.tolist(), mean_a2da2.tolist(), truncated.tolist())
    )


def reference_fig4(resolution: int) -> tuple[list, np.ndarray]:
    header = ["gamma_re", "gamma_im", "cov_ada", "var_n", "bound", "rel_gap"]
    alpha = 3.0
    phases = np.array([complex(math.cos(t), math.sin(t)) for t in (0.0, math.pi / 4.0, math.pi / 2.0)])
    gamma = (phases[:, None] * np.linspace(0.0, 1.0, resolution)).ravel()
    # |<a>|^2 in Python floats (numpy's complex abs differs in the last bit);
    # the floor and the gap are real arithmetic, which numpy rounds alike
    summaries = _reference_block_summaries(approx_strong_field(alpha, gamma))
    amp_sq, cov_ada, var_n = np.array([(abs(s.mean_a) ** 2, s.cov_ada, s.var_n) for s in summaries]).T
    bound = trace_floor(amp_sq, cov_ada)
    return header, np.stack((gamma.real, gamma.imag, cov_ada, var_n, bound, (var_n - bound) / bound)).T


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
    """The crescent's closed-form amplitudes with every log taken in the loop,
    on the levels the parent coherent loop sizes.

    The package's `states._crescent_laguerre_amps` takes log|alpha| once,
    reads lgamma(i + 1) and log C(M, k) from tables, and must give the same
    floats bit for bit.
    """
    top = reference_coherent_amps(alpha, eps_tail, added).size - 1 + added
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


# The coherent and squeezed amplitude loops as the package first wrote them:
# each level appended to a Python list, every earlier level re-read from it,
# and the squeezed tail test rebuilding its array from the whole list every
# 64 levels.  The package's loops must give the same amplitudes, and refuse
# the same states with the same errors, bit for bit.
def reference_coherent_amps(alpha: complex, eps_tail: float, added: int = 0) -> np.ndarray:
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
    amps = [1.0 + 0.0j]
    cum = 1.0
    n = 0
    while True:
        amps.append(amps[-1] * alpha / math.sqrt(n + 1))
        n += 1
        if n > room:
            raise _beyond_ceiling(alpha, added)
        cum += abs(amps[-1]) ** 2
        if cum > 2.0**1000:
            # exact in binary, and never reached below |alpha|^2 of about 693
            amps = [c * 2.0**-500 for c in amps]
            cum *= 2.0**-1000
        if n + 2 > lam:
            p_next = abs(amps[-1]) ** 2 * lam / (n + 1)
            if p_next / (1.0 - lam / (n + 2)) < eps_tail * cum:
                break
    v = np.array(amps, dtype=np.complex128)
    return v / _norm(v)


def reference_squeezed_coherent(
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
    c = [1.0 + 0.0j, beta / mu]
    chunk = 64
    while True:
        # the last round stops at the ceiling; the tail test reads whole chunks
        step = min(chunk, ceiling + 1 - len(c))
        if step <= 0:
            raise CutoffExplosionError(
                f"squeezed state (alpha={alpha!r}, r={r}) needs a cutoff beyond {ceiling}"
            )
        for _ in range(step):
            n = len(c) - 1
            c.append((beta * c[n] - nu * math.sqrt(n) * c[n - 1]) / (mu * math.sqrt(n + 1)))
            if abs(c[-1]) > SQUARE_LIMIT:  # exact in binary; the sums below stay finite
                c = [x / SQUARE_LIMIT for x in c]
        p = np.abs(np.array(c)) ** 2
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
    return _finalize(np.array(c, dtype=np.complex128))
