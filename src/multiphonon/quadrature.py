"""Gauss-Hermite quadrature oracle for harmonic-oscillator overlaps, m and n <= 512.

The independent check of rows m <= 1 of ``oscillator.fc_overlap_matrix``, whose rows m >= 2
are this table's K-node values, computed without its error estimate.  It sums Hermite-Gaussian
wavefunctions at quadrature nodes, never the analytic recurrence.  With
Q = A_f dQ/(A_i + A_f) + t sqrt(2/(A_i + A_f)), chi_m^i chi_n^f is a
degree-(m + n) polynomial in t times exp(-t^2 - c), c = A_i A_f dQ^2/(2(A_i + A_f)),
so K = (m + n)//2 + 1 Gauss-Hermite nodes are exact apart from rounding, and
so are K + 1.  The two sums round independently: the error is |S_K - S_{K+1}|
plus a floor on the absolute sum.  In float64 one Hermite recurrence runs over
both oscillators at both rules' nodes; the overlap table's checks refuse a pair whose
A_i·A_f underflows and an entry that is not finite.  Both backends share one rule,
the Jacobi matrix's eigenvalues (Golub & Welsch, Math. Comp. 23, 221, 1969)
refined by Newton's method in ``decimal``, weighted by the Christoffel numbers.
"""

import functools
import math
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import numpy as np

from .constants import HBAR_SQ_MEV_AMU_A2
from .errors import AccuracyError, _number
from .oscillator import _SQRT_2_OVER_N, _SQRT_BACK_TUPLE, _check_quantum_numbers, _exponents, _finite

_GUARD_DIGITS = 10  # keeps the rounding noise of a Newton step far below 10^-(dps+3)


@dataclass(frozen=True, kw_only=True)
class GridSpec:
    """Accuracy demands for the quadrature oracle, by keyword; the nodes follow from m + n.

    Parameters
    ----------
    abs_tol : float
        Absolute accuracy the caller requires; the oracle raises
        :class:`AccuracyError` if its self-estimated error exceeds this.
    dps : int or None
        ``None`` evaluates in float64 (vectorized).  An integer switches
        to ``decimal`` arithmetic with that many digits, lowering the
        roundoff floor far enough to resolve deep-tail overlaps.
    """

    abs_tol: float = 1e-10
    dps: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "abs_tol", _number(self.abs_tol, "abs_tol", gt=0.0))
        if self.dps is not None:  # fewer digits than float64 would be pointless
            object.__setattr__(self, "dps", _number(self.dps, "dps", integer=True, ge=15))


def _hermite_rows(y, n_max):
    """The normalized Hermite functions h_0..h_n_max on *y*, shape ``(n_max + 1, y.size)``.

    h_n(y) = (2^n n! sqrt(pi))^(-1/2) H_n(y) exp(-y^2/2), evaluated in place
    by the standard three-term recurrence from h_-1 = 0, which keeps every row O(1).
    Each step is elementwise: a point's values do not depend on the points beside it.
    """
    rows = np.zeros((n_max + 2, y.size))  # rows[k + 1] = h_k
    h0 = np.multiply(y, -0.5, rows[1])  # out= by position: a keyword costs more than the product
    np.exp(np.multiply(h0, y, h0), h0)  # exp((-0.5 y) y), in place
    h0 *= math.pi**-0.25
    scratch, low, prev = np.empty(y.size), rows[0], h0
    np.multiply(_SQRT_2_OVER_N[:n_max, None], y, rows[2:])  # rows[k + 1] holds sqrt(2/k) y until step k
    for down, row in zip(_SQRT_BACK_TUPLE, rows[2:]):  # down = sqrt((k-1)/k)
        np.multiply(row, prev, row)
        row -= np.multiply(down, low, scratch)  # 0 h_-1 at k = 1
        low, prev = prev, row
    return rows[1:]


def _hermite(order, y):
    """[H_0(y), ..., H_order(y)], the physicists' Hermite polynomials, in ``decimal``."""
    values = [Decimal(1), 2 * y]
    for k in range(1, order):
        values.append(2 * y * values[k] - 2 * k * values[k - 1])
    return values[: order + 1]


@functools.lru_cache(maxsize=128)
def _decimal_rule(count, dps):
    """((t_k, c_k, c_k e^{t_k^2}), ...), t ascending: c_k = 2^(K-1) (K-1)!/(K H_{K-1}(t_k)^2) is the
    Christoffel number over sqrt(pi).  The rule is even: Newton (H_K' = 2K H_{K-1}) refines t >= 0."""
    off = np.sqrt(np.arange(1.0, count) / 2.0)
    starts = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)).tolist()
    with localcontext(Context(prec=dps + _GUARD_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        tol, half = Decimal(10) ** -(dps + 3), []
        numerator = Decimal(2 ** (count - 1) * math.factorial(count - 1)) / count
        for t in map(Decimal, starts[count // 2 :]):
            step = tol
            while abs(step) >= tol:  # h, so the weight, is at t before its last step (< tol)
                h = _hermite(count, t)
                step = h[count] / (2 * count * h[count - 1])
                t -= step
            christoffel = numerator / (h[count - 1] * h[count - 1])
            half.append((t, christoffel, christoffel * (t * t).exp()))
        return tuple((-t, c, w) for t, c, w in reversed(half[count % 2 :])) + tuple(half)


@functools.lru_cache(maxsize=None)
def _gauss_hermite(count):
    """Read-only float64 nodes t_k and weights w_k e^{t_k^2}, from the rule at 17 digits."""
    rule = np.array(_decimal_rule(count, 17), dtype=float)
    nodes, weights = rule[:, 0].copy(), math.sqrt(math.pi) * rule[:, 2]
    for array in (nodes, weights):
        array.setflags(write=False)
    return nodes, weights


def _weighted_rows(pair, a_i, a_f, m_max, n_max, nodes, weights):
    """(rows_i, rows_f, y_i, y_f): A_i^(1/4) h_m(y_i) and sqrt(2/(A_i + A_f)) w_k A_f^(1/4) h_n(y_f) at
    *nodes*, so rows_i @ rows_f.T sums the overlaps; one Hermite recurrence on [y_i, y_f]."""
    total = a_i + a_f
    scale, points = math.sqrt(2.0 / total), nodes.size
    y = scale * nodes + np.array([[pair.displacement * a_f / total], [-pair.displacement * a_i / total]])
    y *= np.array([[math.sqrt(a_i)], [math.sqrt(a_f)]])  # rows y_i and y_f, one buffer for the recurrence
    rows = _hermite_rows(y.ravel(), max(m_max, n_max))
    factor = np.empty(2 * points)  # filled: np.repeat would cost three times as much
    factor[:points], factor[points:] = a_i**0.25, a_f**0.25
    rows *= factor
    rows_f = rows[: n_max + 1, points:]
    rows_f *= scale * weights
    return rows[: m_max + 1, :points], rows_f, *y


def _float64_sums(pair, a_i, a_f, m_max, n_max, count):
    """([S_K, S_K+1], [l1_K, l1_K+1], y_i, y_f at K), K = *count*, both rules at once."""
    nodes, weights = map(np.concatenate, zip(_gauss_hermite(count), _gauss_hermite(count + 1)))
    rows_i, rows_f, y_i, y_f = _weighted_rows(pair, a_i, a_f, m_max, n_max, nodes, weights)
    spans = slice(count), slice(count, nodes.size)
    values = [rows_i[:, span] @ rows_f[:, span].T for span in spans]
    for rows in rows_i, rows_f:  # in place: a copy of a 512-row table would cost its page faults
        np.abs(rows, out=rows)
    rows_f *= np.maximum(64.0, 2.0 * (y_i * y_i + y_f * y_f))  # the floor's node weights
    return values, [rows_i[:, span] @ rows_f[:, span].T for span in spans], y_i[:count], y_f[:count]


def quadrature_overlap_table(pair, m_max, n_max):
    """Quadrature overlaps and self-estimated absolute errors, in bulk.

    Sums every (m, n) pair at the K and K + 1 nodes exact for the largest
    degree, K = (m_max + n_max)//2 + 1, from one Hermite recurrence over both
    oscillators and both rules.  The floor is eps times the absolute
    sum, each node weighed by max(64, 2 (y_i^2 + y_f^2)) for the sums, the
    recurrence and the conditioning of e^{-y^2/2}.  An entry whose absolute
    sum is below the normal range underflowed: its error is |S| plus
    sqrt(2/(A_i + A_f)) (A_i A_f)^(1/4) e^(1 - c) max_k (1 + sqrt(2)|y_i|)^m (1 + sqrt(2)|y_f|)^n
    in log form, a bound on the exact |S| by |h_k(y)| <= pi^(-1/4) (1 + sqrt(2)|y|)^k e^{-y^2/2}
    and weights summing to sqrt(pi).  Pairs and values are refused with :class:`CapabilityError`
    as ``oscillator.fc_overlap_matrix`` refuses them.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Overlap values and error estimates, both shaped
        ``(m_max + 1, n_max + 1)``.  No tolerance is enforced here; use
        :func:`quadrature_overlap_oracle` for the checked scalar form.
    """
    m_max, n_max = _check_quantum_numbers(m_max, n_max)
    a_i, a_f = _exponents(pair)
    # y^2 = inf: zero terms and NaN l1, bound below; |y| = inf: NaN entries, refused.
    with np.errstate(over="ignore", invalid="ignore"):
        count = (m_max + n_max) // 2 + 1
        (values, other), (l1, other_l1), y_i, y_f = _float64_sums(pair, a_i, a_f, m_max, n_max, count)
        l1 = np.maximum(l1, other_l1)
        errors = np.abs(values - other) + sys.float_info.epsilon * l1
        low = ~(l1 >= sys.float_info.min)
        if low.any():
            log_bound = 1.0 - a_i * a_f * (pair.displacement * pair.displacement) / (2.0 * (a_i + a_f))
            log_bound += 0.5 * (math.log(2.0) - math.log(a_i + a_f)) + 0.25 * (math.log(a_i) + math.log(a_f))
            log_bound += np.add.outer(np.arange(m_max + 1.0) * np.log1p(math.sqrt(2.0) * np.abs(y_i)).max(),
                                      np.arange(n_max + 1.0) * np.log1p(math.sqrt(2.0) * np.abs(y_f)).max())
            errors[low] = np.maximum(np.exp(log_bound) + np.abs(values), math.ulp(0.0))[low]
    return _finite(values, pair), errors


def _decimal_overlap(pair, m, n, dps):
    """(S_K, |S_K - S_{K+1}| + 100 10^-dps l1) for one entry, l1 the absolute sum, in ``decimal``."""
    count = (m + n) // 2 + 1
    with localcontext(Context(prec=dps + _GUARD_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        a_i, a_f = (Decimal(energy) / Decimal(HBAR_SQ_MEV_AMU_A2)
                    for energy in (pair.energy_initial, pair.energy_final))
        total, dq = a_i + a_f, Decimal(pair.displacement)
        scale, sqrt_ai, sqrt_af = (2 / total).sqrt(), a_i.sqrt(), a_f.sqrt()
        # sqrt(2/(A_i + A_f)) (A_i A_f)^(1/4) e^-c / sqrt(2^(m+n) m! n!): the Gaussian leaves the sum.
        prefactor = scale * (a_i * a_f).sqrt().sqrt() * (-a_i * a_f * dq * dq / (2 * total)).exp()
        prefactor /= Decimal(2 ** (m + n) * math.factorial(m) * math.factorial(n)).sqrt()
        sums = []
        for points in (count, count + 1):
            terms = [_hermite(m, sqrt_ai * (dq * a_f / total + scale * t))[m] * christoffel
                     * _hermite(n, sqrt_af * (scale * t - dq * a_i / total))[n]
                     for t, christoffel, _ in _decimal_rule(points, dps)]
            sums.append((sum(terms) * prefactor, sum(map(abs, terms)) * prefactor))
        (value, l1), (other, other_l1) = sums
        return value, abs(value - other) + 100 * Decimal(10) ** -dps * max(l1, other_l1)


def quadrature_overlap_with_error(m, n, pair, grid=GridSpec()):
    """Oracle overlap plus its self-estimated absolute error (no tolerance check).

    In float64, the ``[m, n]`` entry of :func:`quadrature_overlap_table`; with ``grid.dps``,
    summed in a local ``decimal`` context with e^-c factored out, floor 100 10^-dps l1.
    """
    m, n = _check_quantum_numbers(m, n)
    if grid.dps is None:
        values, errors = quadrature_overlap_table(pair, m, n)
        return float(values[m, n]), float(errors[m, n])
    value, error = map(float, _decimal_overlap(pair, m, n, grid.dps))
    # The float returned is itself rounded: half an ulp joins the error, which is at
    # least the smallest subnormal (0 +- 0 otherwise, where |S| rounds to zero).
    return value, max(error + math.ulp(value) / 2, math.ulp(0.0))


def quadrature_overlap_oracle(m, n, pair, grid=GridSpec()):
    """Overlap <chi_initial_m | chi_final_n> by Gauss-Hermite quadrature.

    Parameters
    ----------
    m, n : int
        Quantum numbers, each at most 512.
    pair : OscillatorPair
    grid : GridSpec

    Returns
    -------
    float

    Raises
    ------
    AccuracyError
        If the error estimate, the difference of the K- and (K + 1)-node
        sums plus the roundoff floor, is not within ``grid.abs_tol``.
    """
    value, error = quadrature_overlap_with_error(m, n, pair, grid)
    if not error <= grid.abs_tol:  # a NaN estimate certifies nothing
        raise AccuracyError(
            f"quadrature error estimate {error:.3e} exceeds the requested "
            f"absolute tolerance {grid.abs_tol:.3e} for m={m}, n={n}"
        )
    return value
