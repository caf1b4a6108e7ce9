"""Independent oracles used across the test suite.

Everything here is computed from the definitions alone: explicit sums,
ladder applications, dense matrices, analytic formulas and exact decimal
arithmetic.  The module imports nothing from the package, so it shares no
code path with the formulas it checks, and it runs against the package of
any revision.  The earlier package algorithms that the tests replay bit for
bit live in `_parents.py`.
"""

import decimal
import functools
import math
from decimal import Decimal

import numpy as np


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


# ---------------------------------------------------------------- exact arithmetic
# The moments of the stored float64 amplitudes or density entries, taken in
# decimal at EXACT_DIGITS significant digits: every float converts exactly,
# each ladder weight is the decimal square root of an integer, and every
# operation rounds at the 50th digit, some 34 digits below float64's.
EXACT_DIGITS = 50
_EXACT = decimal.Context(prec=EXACT_DIGITS)
_HALF = Decimal("0.5")
# the keys of the moment summary's fields, as the `moments` JSON paths
SUMMARY_KEYS = (
    "mean_a.re",
    "mean_a.im",
    "mean_a2.re",
    "mean_a2.im",
    "mean_n",
    "mean_n2",
    "mean_a2da2",
    "var_n",
    "var_a.re",
    "var_a.im",
    "cov_ada",
    "cov_a2",
)
# the registry rows, in table order, whose sides `exact_summary` gives; the
# package's `closed_form_agreement` compares its scan with the angle-based
# closed form, which the exact bound has no counterpart of
EXACT_ROWS = (
    "tight_scan",
    "canonical_pair_x",
    "canonical_pair_p",
    "covariance_floor",
    "uncertainty_area",
    "second_order_floor",
    "relaxed_lambda_plus",
    "relaxed_trace",
    "hierarchy",
    "hyperboloid_surface",
)


@functools.lru_cache(maxsize=None)
def _exact_weight(n: int, j: int, k: int) -> Decimal:
    """<n - k + j| a^dag^j a^k |n>: the square root of an integer product."""
    product = 1
    for t in range(k):
        product *= n - t
    for t in range(j):
        product *= n - k + 1 + t
    return Decimal(product).sqrt(_EXACT)


def _exact_moment(entry, dim: int, j: int, k: int) -> tuple[Decimal, Decimal]:
    """<a^dag^j a^k> = sum over n of rho[n, n - k + j] times its weight, as (re, im);
    run inside the EXACT_DIGITS context."""
    re = im = Decimal(0)
    for n in range(k, dim - max(0, j - k)):
        weight = _exact_weight(n, j, k)
        er, ei = entry(n, n - k + j)
        re += er * weight
        im += ei * weight
    return re, im


def _entries(state):
    """rho[p, q] of the stored state as an exact (re, im) pair, and the register size."""
    if hasattr(state, "amplitudes"):
        amps = [(Decimal(c.real), Decimal(c.imag)) for c in np.asarray(state.amplitudes).tolist()]

        def entry(p, q):  # c_p conj(c_q)
            (pr, pi), (qr, qi) = amps[p], amps[q]
            return pr * qr + pi * qi, pi * qr - pr * qi

        return entry, len(amps)
    rho = np.asarray(state.entries)
    return lambda p, q: (Decimal(rho[p, q].real.item()), Decimal(rho[p, q].imag.item())), rho.shape[0]


def exact_summary(state) -> dict:
    """Decimal values of every derived moment field, the tight bound and the
    registry sides of one stored state (a FockVector of one row, or a
    DensityMatrix), to EXACT_DIGITS digits.

    Keys: SUMMARY_KEYS, the `moments` JSON paths; "bound", the tight bound in closed form,
    B = (C |<a>|^2 + Re(conj(V) <a>^2)) / (2 (C^2 - |V|^2)) with
    C = Cov(a^dag, a) and V = Var a, which is 0 where <a> is; "g1", where
    the bound is not 0, and "g2"; and "<row>.lhs", "<row>.rhs" and
    "<row>.slack" for each row in EXACT_ROWS.
    """
    with decimal.localcontext(_EXACT):
        entry, dim = _entries(state)
        ar, ai = _exact_moment(entry, dim, 0, 1)
        a2r, a2i = _exact_moment(entry, dim, 0, 2)
        mean_n = _exact_moment(entry, dim, 1, 1)[0]
        mean_a2da2 = _exact_moment(entry, dim, 2, 2)[0]
        amp_sq = ar * ar + ai * ai
        mean_n2 = mean_a2da2 + mean_n
        var_n = mean_n2 - mean_n * mean_n
        vr, vi = a2r - (ar * ar - ai * ai), a2i - 2 * ar * ai
        cov = mean_n + _HALF - amp_sq
        cov_a2 = mean_a2da2 + 2 * mean_n + 1 - (a2r * a2r + a2i * a2i)
        spread_sq = vr * vr + vi * vi
        lambda_plus = cov + spread_sq.sqrt()
        # Re(conj(V) <a>^2), with <a>^2 = (ar^2 - ai^2) + 2 i ar ai
        bound = (cov * amp_sq + vr * (ar * ar - ai * ai) + vi * 2 * ar * ai) / (2 * (cov * cov - spread_sq))
        sides = {
            "tight_scan": (var_n, bound),
            "canonical_pair_x": (var_n * (cov + vr), ai * ai / 2),
            "canonical_pair_p": (var_n * (cov - vr), ar * ar / 2),
            "covariance_floor": (cov, _HALF),
            "uncertainty_area": (cov * cov - _HALF * _HALF, spread_sq),
            "second_order_floor": (cov_a2, 2 * mean_n + 1),
            "relaxed_lambda_plus": (var_n * lambda_plus, amp_sq / 2),
            "relaxed_trace": (var_n * cov, amp_sq / 4),
            "hierarchy": (bound, max(amp_sq / (2 * lambda_plus), amp_sq / (4 * cov))),
            "hyperboloid_surface": (cov, (_HALF * _HALF + spread_sq).sqrt()),
        }
        values = dict(zip(SUMMARY_KEYS, (ar, ai, a2r, a2i, mean_n, mean_n2, mean_a2da2, var_n, vr, vi, cov, cov_a2)))
        values["bound"] = bound
        values["g2"] = cov_a2 / (2 * mean_n + 1)
        if bound:
            values["g1"] = var_n / bound
        for name in EXACT_ROWS:
            lhs, rhs = sides[name]
            values.update({f"{name}.lhs": lhs, f"{name}.rhs": rhs, f"{name}.slack": lhs - rhs})
    return values


def ulp_error(value: float, exact: Decimal) -> float:
    """|value - exact| in units in the last place of max(1, |exact|)."""
    with decimal.localcontext(_EXACT):
        return float(abs(Decimal(value) - exact) / Decimal(math.ulp(max(1.0, abs(float(exact))))))
