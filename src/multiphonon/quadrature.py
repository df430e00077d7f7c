"""Dense-grid quadrature oracle for harmonic-oscillator overlaps.

This is the independent verification route for ``oscillator.fc_overlap``:
it evaluates explicit Hermite-Gaussian wavefunctions on a dense uniform
grid and integrates their product with the trapezoid rule, never touching
the recurrence used by the analytic path.  Accuracy is self-diagnosed by a
halving-step convergence check plus a summation roundoff floor; when the
requested absolute tolerance cannot be certified, the oracle raises
instead of returning a number it cannot stand behind.  The wavefunctions
are evaluated once, on the fine grid; the coarse sum takes every other
fine point at twice the weight (in float64 exactly the coarse grid, as
halving a step is exact in binary).

The grid is fixed: 12 turning-point lengths of the wider oscillator, 20
points per shortest wavelength of the narrower.  The trapezoid rule converges
geometrically on these Gaussian-decaying integrands (Trefethen & Weideman,
SIAM Rev. 56, 385, 2014): on the ``overlap-certify`` pairs of seed pools 1-4,
|fine - coarse| of a 30x30 table is at most 2.37 times its roundoff floor.
Overlaps below roughly 1e-11 arise from cancellation of order-one
integrand lobes and are unresolvable in float64 at any grid density; for
those, ``GridSpec(dps=...)`` runs the same sums in stdlib ``decimal`` at
*dps* digits, in a local context (intended for spot checks).

Both backends skip grid points by one rule.  The Hermite recurrence's
coefficients are at most sqrt(2)|y| and 1, so by induction |h_k(y)| <=
(1 + sqrt(2)|y|)^k, and no term exceeds (1 + sqrt(2)|y_i|)^m * (1 +
sqrt(2)|y_f|)^n * exp(-(y_i^2 + y_f^2)/2) * step * (a_i a_f)^(1/4) / sqrt(pi).
Both sum the span from the first point whose bound reaches cut =
10^-(dps+10) / (2 * points) to the last, and 3 * skipped * cut joins the error
for the points outside it: a fine weight is at most the step, a coarse one
twice it.  The float64 tables use the 30-digit cut and the bound at
(m_max, n_max), which covers every entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_SQ_MEV_AMU_A2
from .errors import AccuracyError, _number

# Oracle contract is certified for small quantum numbers only.
MAX_ORACLE_N = 30

_TURNING_POINT_SPANS = 12.0
_POINTS_PER_WAVELENGTH = 20.0
# The float64 tables skip by the cut of a 30-digit spot check, 10^-40 / (2 * points).
_TABLE_SKIP_DPS = 30


@dataclass(frozen=True, kw_only=True)
class GridSpec:
    """Accuracy demands for the quadrature oracle, by keyword; the grid is fixed.

    Parameters
    ----------
    abs_tol : float
        Absolute accuracy the caller requires; the oracle raises
        :class:`AccuracyError` if its self-estimated error exceeds this.
    dps : int or None
        ``None`` evaluates in float64 (vectorized).  An integer switches
        to ``decimal`` arithmetic with that many digits, lowering the
        roundoff floor far enough to resolve deep-tail overlaps; the points
        outside the span where a term can reach 10^-(dps+10) are skipped.
    """

    abs_tol: float = 1e-10
    dps: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "abs_tol", _number(self.abs_tol, "abs_tol", gt=0.0))
        if self.dps is not None:  # fewer digits than float64 would be pointless
            object.__setattr__(self, "dps", _number(self.dps, "dps", integer=True, ge=15))


def _grid_layout(pair, n_top):
    """Uniform grid [lo, hi] and its coarse point count, for quantum numbers up to *n_top*."""
    a_i = pair.energy_initial / HBAR_SQ_MEV_AMU_A2
    a_f = pair.energy_final / HBAR_SQ_MEV_AMU_A2
    a_wide, a_narrow = sorted((a_i, a_f))
    q_turn = math.sqrt((2.0 * n_top + 1.0) / a_wide)
    half = 0.5 * _TURNING_POINT_SPANS * q_turn
    lo = min(0.0, pair.displacement) - half
    hi = max(0.0, pair.displacement) + half
    wavelength = 2.0 * math.pi / math.sqrt(a_narrow * (2.0 * n_top + 1.0))
    step = wavelength / _POINTS_PER_WAVELENGTH
    count = int(math.ceil((hi - lo) / step)) + 1
    return lo, hi, count


def _hermite_rows(y, n_max, scale):
    """*scale* times the normalized Hermite functions h_0..h_n_max on *y*.

    h_n(y) = (2^n n! sqrt(pi))^(-1/2) H_n(y) exp(-y^2/2), evaluated in place
    by the standard three-term recurrence, which keeps every row O(1).
    """
    rows, scratch = np.empty((n_max + 1, y.size)), np.empty(y.size)
    rows[0] = math.pi**-0.25 * np.exp(-0.5 * y * y)
    for k in range(1, n_max + 1):
        np.multiply(np.multiply(math.sqrt(2.0 / k), y, out=scratch), rows[k - 1], out=rows[k])
        if k >= 2:
            rows[k] -= np.multiply(math.sqrt((k - 1.0) / k), rows[k - 2], out=scratch)
    rows *= scale
    return rows


def _trapezoid_weights(count, step):
    weights = np.full(count, step)
    weights[0] = weights[-1] = 0.5 * step
    return weights


def quadrature_overlap_table(pair, m_max, n_max):
    """Quadrature overlaps and self-estimated absolute errors, in bulk.

    Integrates every (m, n) pair on one grid sized for the largest quantum
    number and on its halved step, and reports ``|fine - coarse|`` plus a
    summation roundoff floor and the bound on the skipped points (at most
    1.5e-40) as the error estimate.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Overlap values and error estimates, both shaped
        ``(m_max + 1, n_max + 1)``.  No tolerance is enforced here; use
        :func:`quadrature_overlap_oracle` for the checked scalar form.
    """
    m_max = _number(m_max, "m_max", integer=True, ge=0, le=MAX_ORACLE_N)
    n_max = _number(n_max, "n_max", integer=True, ge=0, le=MAX_ORACLE_N)
    lo, hi, count = _grid_layout(pair, max(m_max, n_max, 1))
    points = 2 * count - 1
    span = _kept_points(pair, m_max, n_max, lo, hi, points, _TABLE_SKIP_DPS)
    k0, k1 = span.start, span.stop
    # linspace(lo, hi, count) == linspace(lo, hi, points)[::2] exactly.
    x, step = np.linspace(lo, hi, points, retstep=True)
    a_i = pair.energy_initial / HBAR_SQ_MEV_AMU_A2
    a_f = pair.energy_final / HBAR_SQ_MEV_AMU_A2
    rows_i = _hermite_rows(np.sqrt(a_i) * x[k0:k1], m_max, a_i**0.25)
    rows_f = _hermite_rows(np.sqrt(a_f) * (x[k0:k1] - pair.displacement), n_max, a_f**0.25)
    weights = _trapezoid_weights(points, step)[k0:k1]
    even = slice(k0 % 2, None, 2)  # coarse points: even fine indices, twice the weight
    # Contiguous coarse operands keep the product on the BLAS path.
    coarse_f = rows_f[:, even] * (2.0 * weights[even])
    coarse = np.ascontiguousarray(rows_i[:, even]) @ coarse_f.T
    rows_f *= weights
    fine = rows_i @ rows_f.T
    floor = 64.0 * np.finfo(float).eps * (np.abs(rows_i, out=rows_i) @ np.abs(rows_f, out=rows_f).T)
    skip = 3 * (points - len(span)) * (10.0 ** -(_TABLE_SKIP_DPS + 10) / (2 * points))
    return fine, np.abs(fine - coarse) + floor + skip


def _kept_points(pair, m, n, lo, hi, points, dps):
    """range(first, last + 1) of the fine points whose float64 log term bound reaches the cut."""
    a_i = pair.energy_initial / HBAR_SQ_MEV_AMU_A2
    a_f = pair.energy_final / HBAR_SQ_MEV_AMU_A2
    x = np.linspace(lo, hi, points)
    y_i, y_f = math.sqrt(a_i) * x, math.sqrt(a_f) * (x - pair.displacement)
    log_term = math.log((hi - lo) / (points - 1) * (a_i * a_f) ** 0.25 / math.sqrt(math.pi))
    log_term += m * np.log1p(math.sqrt(2.0) * np.abs(y_i)) + n * np.log1p(math.sqrt(2.0) * np.abs(y_f))
    log_term -= 0.5 * (y_i * y_i + y_f * y_f)
    # A margin of a factor e covers the float64 rounding of the log bound, ~1e-16 * y^2.
    kept = np.flatnonzero(log_term + 1.0 >= -(dps + 10) * math.log(10.0) - math.log(2 * points))
    return range(kept[0], kept[-1] + 1) if kept.size else range(0)


def _decimal_overlap(pair, m, n, lo, hi, count, dps):
    """(fine, coarse, floor) on 2 * count - 1 points and every other one; floor includes the skip."""
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

    points = 2 * count - 1
    span = _kept_points(pair, m, n, lo, hi, points, dps)
    with localcontext(Context(prec=dps, Emax=MAX_EMAX, Emin=MIN_EMIN)) as ctx:
        ctx.prec += 2  # pi by the recipe in the decimal docs, with two guard digits
        lasts, t, s, p, dp, d, dd = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts, p, dp, d, dd = s, p + dp, dp + 8, d + dd, dd + 32
            t = t * p / d
            s += t
        ctx.prec -= 2
        a_i = Decimal(pair.energy_initial) / Decimal(HBAR_SQ_MEV_AMU_A2)
        a_f = Decimal(pair.energy_final) / Decimal(HBAR_SQ_MEV_AMU_A2)
        sqrt_ai, sqrt_af = a_i.sqrt(), a_f.sqrt()
        norm = ((a_i * a_f).sqrt() / +s).sqrt()
        dq, lo_d = Decimal(pair.displacement), Decimal(lo)
        step = (Decimal(hi) - lo_d) / (points - 1)
        # (sqrt(2/k), sqrt((k-1)/k)) for k >= 1; the second is 0 at k = 1, so h_1 = sqrt(2) y.
        coeffs = [((Decimal(2) / k).sqrt(), (Decimal(k - 1) / k).sqrt())
                  for k in range(1, max(m, n) + 1)]

        def hermite(order, y):
            h_prev, h = 0, Decimal(1)
            for c_y, c_p in coeffs[:order]:
                h, h_prev = c_y * y * h - c_p * h_prev, h
            return h

        total = coarse = l1 = Decimal(0)
        for idx in span:
            x = lo_d + idx * step
            y_i, y_f = sqrt_ai * x, sqrt_af * (x - dq)
            value = hermite(m, y_i) * hermite(n, y_f) * (-(y_i * y_i + y_f * y_f) / 2).exp()
            weight = step if 0 < idx < points - 1 else step / 2
            total += value * weight
            l1 += abs(value) * weight
            if idx % 2 == 0:
                coarse += value * (2 * weight)
        floor = 100 * Decimal(10) ** -dps * l1 * norm
        floor += Decimal(3 * (points - len(span))) / (2 * points) * Decimal(10) ** -(dps + 10)
        return float(total * norm), float(coarse * norm), float(floor)


def quadrature_overlap_with_error(m, n, pair, grid=GridSpec()):
    """Oracle overlap plus its self-estimated absolute error (no tolerance check).

    In float64 this is the ``[m, n]`` entry of :func:`quadrature_overlap_table`.
    """
    m = _number(m, "m", integer=True, ge=0, le=MAX_ORACLE_N)
    n = _number(n, "n", integer=True, ge=0, le=MAX_ORACLE_N)
    if grid.dps is None:
        values, errors = quadrature_overlap_table(pair, m, n)
        return float(values[m, n]), float(errors[m, n])
    lo, hi, count = _grid_layout(pair, max(m, n, 1))
    fine, coarse, floor = _decimal_overlap(pair, m, n, lo, hi, count, grid.dps)
    # The float returned is itself rounded: half an ulp joins the error.
    return fine, abs(fine - coarse) + floor + math.ulp(fine) / 2


def quadrature_overlap_oracle(m, n, pair, grid=GridSpec()):
    """Overlap <chi_initial_m | chi_final_n> by dense-grid quadrature.

    Parameters
    ----------
    m, n : int
        Quantum numbers, each at most 30.
    pair : OscillatorPair
    grid : GridSpec

    Returns
    -------
    float

    Raises
    ------
    AccuracyError
        If the halving-step convergence check (plus roundoff floor)
        cannot certify ``grid.abs_tol``.
    """
    value, error = quadrature_overlap_with_error(m, n, pair, grid)
    if error > grid.abs_tol:
        raise AccuracyError(
            f"quadrature error estimate {error:.3e} exceeds the requested "
            f"absolute tolerance {grid.abs_tol:.3e} for m={m}, n={n}"
        )
    return value
