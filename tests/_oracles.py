"""Independent brute-force oracles used across the test suite.

Everything here is deliberately primitive (explicit sums, ladder
applications, dense matrices) so it shares no code path with the formulas it
checks.
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


def poisson_tail(lam: float, m: int, terms: int = 200) -> float:
    """Sum of e^-lam lam^n / n! for n >= m by direct summation."""
    term = math.exp(-lam)
    for n in range(1, m + 1):
        term *= lam / n
    total = 0.0
    for n in range(m, m + terms):
        total += term
        term *= lam / (n + 1)
    return total


def laguerre_series(n: int, a: float, x: float) -> float:
    """Generalized Laguerre value from the explicit finite series.

    Uses the generalized binomial C(n + a, n - i) written as a product, so it
    is valid for any (including negative integer) upper index.
    """
    total = 0.0
    for i in range(n + 1):
        binom = 1.0
        for j in range(1, n - i + 1):
            binom *= a + i + j
        binom /= math.factorial(n - i)
        total += (-1) ** i * binom * x**i / math.factorial(i)
    return total


def padded(amps: np.ndarray, size: int) -> np.ndarray:
    return np.pad(amps, (0, size - amps.size))


def lowered(amps: np.ndarray) -> np.ndarray:
    """Amplitudes of a|psi>, c_n |n> -> c_n sqrt(n) |n-1>, one index at a time."""
    out = np.zeros(max(amps.size - 1, 1), dtype=complex)
    for n in range(1, amps.size):
        out[n - 1] = amps[n] * math.sqrt(n)
    return out


def raised(amps: np.ndarray) -> np.ndarray:
    """Amplitudes of a^dag|psi>, c_n |n> -> c_n sqrt(n+1) |n+1>, one index at a time."""
    out = np.zeros(amps.size + 1, dtype=complex)
    for n in range(amps.size):
        out[n + 1] = amps[n] * math.sqrt(n + 1)
    return out


def quadrature_apply(state, theta: float) -> np.ndarray:
    """Amplitudes of x_theta |psi> built from ladder applications only."""
    up = raised(state.amplitudes)
    size = up.size
    return (
        np.exp(1j * theta) * padded(lowered(state.amplitudes), size) + np.exp(-1j * theta) * up
    ) / math.sqrt(2.0)


def quadrature_var_direct(state, theta: float) -> float:
    """Var x_theta from ||x psi||^2 - <psi|x psi>^2, no covariance formulas."""
    xpsi = quadrature_apply(state, theta)
    psi = padded(state.amplitudes, xpsi.size)
    mean = np.vdot(psi, xpsi).real
    return float(np.vdot(xpsi, xpsi).real - mean * mean)


def quadrature_mean_direct(state, theta: float) -> float:
    xpsi = quadrature_apply(state, theta)
    psi = padded(state.amplitudes, xpsi.size)
    return float(np.vdot(psi, xpsi).real)


def crescent_eigen_residual(state, alpha: complex) -> tuple[float, complex]:
    """Residual of the defining non-Hermitian eigenvalue problem.

    The operator is n - i r x_theta with r = sqrt(2) |alpha| and
    theta = pi/2 - arg(alpha), applied through ladder operators; the
    eigenvalue estimate is its expectation in the state.  Returns
    (residual norm, eigenvalue estimate).
    """
    alpha = complex(alpha)
    r = math.sqrt(2.0) * abs(alpha)
    theta = math.pi / 2.0 - np.angle(alpha)
    xpsi = quadrature_apply(state, theta)
    size = xpsi.size
    psi = padded(state.amplitudes, size)
    npsi = padded(np.arange(state.amplitudes.size) * state.amplitudes, size)
    kpsi = npsi - 1j * r * xpsi
    omega = complex(np.vdot(psi, kpsi))
    return float(np.linalg.norm(kpsi - omega * psi)), omega


def square_annihilate_residual(state, eigenvalue: complex) -> float:
    """Norm of (a^2 - eigenvalue) |psi> via two ladder applications."""
    twice = lowered(lowered(state.amplitudes))
    size = max(twice.size, state.amplitudes.size)
    return float(
        np.linalg.norm(padded(twice, size) - eigenvalue * padded(state.amplitudes, size))
    )


def dense_moment(state, j: int, k: int) -> complex:
    """<a^dag^j a^k> through dense matrices on an enlarged space."""
    return dense_expectation(state, "d" * j + "a" * k)


def dense_expectation(state, word: str) -> complex:
    """Expectation of an operator word over "a" and "d" (a^dag), read left to
    right as a matrix product, through dense matrices on an enlarged space.

    For example "dada" is <n^2> and "ad" is <a a^dag>.
    """
    dim = state.cutoff + 1 + len(word) + 1
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    letters = {"a": a, "d": a.conj().T}
    op = np.eye(dim, dtype=complex)
    for letter in word:
        op = op @ letters[letter]
    if hasattr(state, "amplitudes"):
        v = padded(state.amplitudes, dim)
        return complex(np.vdot(v, op @ v))
    rho = np.zeros((dim, dim), dtype=complex)
    n = state.entries.shape[0]
    rho[:n, :n] = state.entries
    return complex(np.trace(rho @ op))



def _as_matrix(state, dim: int) -> np.ndarray:
    if hasattr(state, "amplitudes"):
        v = padded(state.amplitudes, dim)
        return np.outer(v, v.conj())
    return np.pad(state.entries, (0, dim - state.entries.shape[0]))


def fidelity(s1, s2) -> float:
    """Fidelity in [0, 1]; overlap squared for pure pairs, Uhlmann otherwise.

    States are zero-extended to a common cutoff first.
    """
    dim = max(s1.cutoff, s2.cutoff) + 1
    pure = [s for s in (s1, s2) if hasattr(s, "amplitudes")]
    if len(pure) == 2:
        return float(min(1.0, abs(np.vdot(padded(s1.amplitudes, dim), padded(s2.amplitudes, dim))) ** 2))
    if pure:
        v = padded(pure[0].amplitudes, dim)
        rho = _as_matrix(s2 if pure[0] is s1 else s1, dim)
        return float(min(1.0, np.real(np.vdot(v, rho @ v))))
    w, u = np.linalg.eigh(_as_matrix(s1, dim))
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    ev = np.clip(np.linalg.eigvalsh(root @ _as_matrix(s2, dim) @ root), 0.0, None)
    return float(min(1.0, np.sum(np.sqrt(ev)) ** 2))


def csv_text(header, rows) -> str:
    """CSV rendered one `format(float(x), ".17g")` cell at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


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


def reference_fig2(resolution: int) -> np.ndarray:
    """fig2's table built one |Var a| value at a time, in Python floats.

    The two floors are C_LAMBDA_PLUS |<a>|^2 / (Cov + |Var a|) and
    C_TRACE |<a>|^2 / Cov at |<a>| = 1, with C_LAMBDA_PLUS = 1/2 and
    C_TRACE = 1/4.
    """
    c_lambda_plus, c_trace = 0.5, 0.25
    rows = []
    for v in np.linspace(0.0, 2.0, resolution).tolist():
        floor = math.sqrt(0.25 + v * v)
        for c in np.linspace(floor, floor + 2.0, resolution).tolist():
            rows.append((v, c, c_lambda_plus / (c + v), c_trace / c))
    return np.array(rows)


def reference_fig3(resolution: int) -> np.ndarray:
    """fig3's table with the two axis columns spelled out, one `math.hypot` per pair."""
    axis = np.linspace(-2.0, 2.0, resolution)
    re, im = np.repeat(axis, resolution), np.tile(axis, resolution)
    spread = np.fromiter(map(math.hypot, re.tolist(), im.tolist()), float, len(re))
    return np.column_stack((re, im, np.sqrt(0.25 + spread * spread), spread + 0.5))


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


def strong_field_norm_inverse(alpha: complex, gamma: complex) -> float:
    """Analytic squared norm of |alpha> + gamma a^dag |alpha>, or infinity beyond the float range."""
    alpha, gamma = complex(alpha), complex(gamma)
    cross = 2.0 * (gamma * alpha.conjugate()).real
    try:
        norm_sq = 1.0 + cross + abs(gamma) ** 2 * (1.0 + abs(alpha) ** 2)
    except OverflowError:  # ** and complex abs raise where * and hypot give infinity
        g = math.hypot(gamma.real, gamma.imag)
        ga = math.hypot(g * alpha.real, g * alpha.imag)
        norm_sq = 1.0 + cross + g * g + ga * ga
    # NaN comes from inf - inf or inf * 0, each only where the norm is beyond the float range
    return math.inf if math.isnan(norm_sq) else norm_sq
