"""The overlap kernels against slow reference copies of their loop forms.

``fc_overlap_matrix`` advances whole rows and the quadrature oracle
evaluates its wavefunctions once, on the fine grid, taking the coarse
estimate from every other fine point.  Both must give the same IEEE
results as the straightforward forms below, bit for bit: an entry-by-entry
recurrence, and two independent grids.  Both oracle backends skip the
points whose terms are provably below a 30-digit cut, and the skipped
terms are checked against the cut one by one in mpmath.  The float64
oracle sums over the span from the first kept point to the last, as do
its two-grid references; against the whole fine grid it agrees to its
roundoff floor.  The dps oracle runs in ``decimal``; its reference is two
passes in mpmath over every point, which give the same float values.
"""

import math

import mpmath
import numpy as np
import pytest

from multiphonon import (
    GridSpec,
    OscillatorPair,
    fc_overlap,
    fc_overlap_matrix,
    quadrature_overlap_oracle,
    quadrature_overlap_table,
    quadrature_overlap_with_error,
)
from multiphonon import quadrature
from multiphonon.constants import HBAR_SQ_MEV_AMU_A2
from multiphonon.errors import AccuracyError
from multiphonon.oscillator import _recurrence_coefficients
from multiphonon.quadrature import (
    _decimal_overlap,
    _grid_layout,
    _hermite_rows,
    _kept_points,
    _trapezoid_weights,
)

MPMATH_GRID = GridSpec(dps=30, abs_tol=1e-12)


def reference_fc_overlap_matrix(pair, m_max, n_max):
    """The recurrence of ``fc_overlap_matrix``, one entry at a time."""
    a, b, c, d, e = map(float, _recurrence_coefficients(
        pair.energy_initial, pair.energy_final, pair.displacement
    ))
    s = np.zeros((m_max + 1, n_max + 1))
    s[0, 0] = math.sqrt(e / 2.0) * math.exp(b * d / (2.0 * e))
    for n in range(1, n_max + 1):
        s[0, n] = d / math.sqrt(2.0 * n) * s[0, n - 1]
        if n >= 2:
            s[0, n] += c * math.sqrt((n - 1.0) / n) * s[0, n - 2]
    for m in range(1, m_max + 1):
        s[m, 0] = b / math.sqrt(2.0 * m) * s[m - 1, 0]
        if m >= 2:
            s[m, 0] += a * math.sqrt((m - 1.0) / m) * s[m - 2, 0]
        for n in range(1, n_max + 1):
            s[m, n] = b / math.sqrt(2.0 * m) * s[m - 1, n]
            if m >= 2:
                s[m, n] += a * math.sqrt((m - 1.0) / m) * s[m - 2, n]
            s[m, n] += 0.5 * e * math.sqrt(n / m) * s[m - 1, n - 1]
    return s


def _reference_hermite_rows(y, n_max):
    rows = np.empty((n_max + 1, y.size))
    rows[0] = math.pi**-0.25 * np.exp(-0.5 * y * y)
    if n_max >= 1:
        rows[1] = math.sqrt(2.0) * y * rows[0]
    for k in range(2, n_max + 1):
        rows[k] = math.sqrt(2.0 / k) * y * rows[k - 1] - math.sqrt((k - 1.0) / k) * rows[k - 2]
    return rows


def _reference_factors(pair, m_max, n_max, lo, hi, count, inside):
    x, step = np.linspace(lo, hi, count, retstep=True)
    a_i = pair.energy_initial / HBAR_SQ_MEV_AMU_A2
    a_f = pair.energy_final / HBAR_SQ_MEV_AMU_A2
    y_i, y_f = np.sqrt(a_i) * x, np.sqrt(a_f) * (x - pair.displacement)
    rows_i = a_i**0.25 * _reference_hermite_rows(y_i[inside], m_max)
    rows_f = a_f**0.25 * _reference_hermite_rows(y_f[inside], n_max)
    weights = np.full(count, step)
    weights[0] = weights[-1] = 0.5 * step
    return rows_i, rows_f * weights[inside]


def reference_quadrature_table(pair, m_max, n_max, grid=GridSpec()):
    """The float64 oracle with the coarse and fine grids built separately, each cropped.

    Both grids keep the points inside the fine span from the first point the
    30-digit skip rule keeps at (m_max, n_max) to the last; each skipped
    fine point adds 3 * cut to the error.
    """
    lo, hi, count = _grid_layout(pair, max(m_max, n_max, 1), grid)
    points = 2 * count - 1
    kept = _kept_points(pair, m_max, n_max, lo, hi, points, 30)
    inside = np.zeros(points, dtype=bool)
    if kept:
        inside[kept[0]: kept[-1] + 1] = True
    rows_i, weighted_f = _reference_factors(pair, m_max, n_max, lo, hi, count, inside[::2])
    coarse = rows_i @ weighted_f.T
    rows_i, weighted_f = _reference_factors(pair, m_max, n_max, lo, hi, points, inside)
    fine = rows_i @ weighted_f.T
    floor = 64.0 * np.finfo(float).eps * (np.abs(rows_i) @ np.abs(weighted_f).T)
    return fine, np.abs(fine - coarse) + floor + _float_skip(points - inside.sum(), points)


def _float_skip(skipped, points):
    """3 * skipped * cut for the 30-digit cut, in the float64 operations of the table."""
    return 3 * skipped * (10.0**-40 / (2 * points))


def _reference_mpmath_pass(pair, m, n, lo, hi, count, dps):
    with mpmath.workdps(dps):
        a_i = mpmath.mpf(pair.energy_initial) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        a_f = mpmath.mpf(pair.energy_final) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        sqrt_ai, sqrt_af = mpmath.sqrt(a_i), mpmath.sqrt(a_f)
        norm = mpmath.power(a_i * a_f, mpmath.mpf(1) / 4) / mpmath.sqrt(mpmath.pi)
        dq = mpmath.mpf(pair.displacement)
        lo_mp, hi_mp = mpmath.mpf(lo), mpmath.mpf(hi)
        step = (hi_mp - lo_mp) / (count - 1)
        coeff_y = [mpmath.sqrt(mpmath.mpf(2) / k) for k in range(1, max(m, n) + 1)]
        coeff_p = [mpmath.sqrt(mpmath.mpf(k - 1) / k) for k in range(1, max(m, n) + 1)]

        def hermite(order, y):
            h_prev = mpmath.mpf(1)
            if order == 0:
                return h_prev
            h = mpmath.sqrt(2) * y
            for k in range(2, order + 1):
                h, h_prev = coeff_y[k - 1] * y * h - coeff_p[k - 1] * h_prev, h
            return h

        total = mpmath.mpf(0)
        l1 = mpmath.mpf(0)
        for idx in range(count):
            x = lo_mp + idx * step
            y_i = sqrt_ai * x
            y_f = sqrt_af * (x - dq)
            value = hermite(m, y_i) * hermite(n, y_f) * mpmath.exp(-(y_i * y_i + y_f * y_f) / 2)
            weight = step if 0 < idx < count - 1 else step / 2
            total += value * weight
            l1 += abs(value) * weight
        floor = 100 * mpmath.mpf(10) ** (-dps) * l1 * norm
        return float(total * norm), float(floor)


def reference_mpmath_with_error(m, n, pair, grid):
    """The mpmath oracle as two passes, one per grid.

    The error includes half an ulp of the returned float, which rounding
    to float64 costs on top of the mpmath estimate.
    """
    lo, hi, count = _grid_layout(pair, max(m, n, 1), grid)
    coarse, _ = _reference_mpmath_pass(pair, m, n, lo, hi, count, grid.dps)
    fine, floor = _reference_mpmath_pass(pair, m, n, lo, hi, 2 * count - 1, grid.dps)
    return fine, abs(fine - coarse) + floor + math.ulp(fine) / 2


def _seeded_pairs(seed, count):
    """Pairs across the certification domain: ħΩ 20-400 meV (log-uniform), ΔQ 0-1."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        energies = np.exp(rng.uniform(math.log(20.0), math.log(400.0), size=2))
        displacement = 0.0 if k % 8 == 0 else float(rng.uniform(0.0, 1.0))
        pairs.append(OscillatorPair(float(energies[0]), float(energies[1]), displacement))
    return pairs


@pytest.mark.parametrize("pair", _seeded_pairs(11, 24), ids=lambda p: f"{p.energy_initial:.1f}")
@pytest.mark.parametrize("shape", [(1, 512), (30, 30), (0, 0), (7, 40), (40, 7)])
def test_overlap_table_equals_entrywise_recurrence(pair, shape):
    table = fc_overlap_matrix(pair, *shape)
    assert table.shape == (shape[0] + 1, shape[1] + 1)
    assert np.array_equal(table, reference_fc_overlap_matrix(pair, *shape))


def test_fc_overlap_equals_reference_entry():
    for k, pair in enumerate(_seeded_pairs(12, 16)):
        m, n = k % 2, 32 * k
        assert fc_overlap(m, n, pair) == reference_fc_overlap_matrix(pair, m, n)[m, n]


@pytest.mark.parametrize("pair", _seeded_pairs(13, 24), ids=lambda p: f"{p.energy_initial:.1f}")
@pytest.mark.parametrize("shape", [(1, 30), (30, 30), (0, 0), (3, 11), (12, 2)])
def test_quadrature_table_equals_two_grid_reference(pair, shape):
    values, errors = quadrature_overlap_table(pair, *shape)
    expected_values, expected_errors = reference_quadrature_table(pair, *shape)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(errors, expected_errors)


def test_quadrature_table_equals_reference_on_other_grids():
    rng = np.random.default_rng(14)
    for pair in _seeded_pairs(14, 12):
        grid = GridSpec(float(rng.uniform(12.0, 20.0)), float(rng.uniform(20.0, 45.0)))
        m_max, n_max = (int(k) for k in rng.integers(0, 31, size=2))
        values, errors = quadrature_overlap_table(pair, m_max, n_max, grid)
        expected_values, expected_errors = reference_quadrature_table(pair, m_max, n_max, grid)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(errors, expected_errors)


def _full_grid_rows(pair, m_max, n_max, grid):
    """Both oscillators' Hermite rows on the whole fine grid, and its step and size."""
    lo, hi, count = _grid_layout(pair, max(m_max, n_max, 1), grid)
    x, step = np.linspace(lo, hi, 2 * count - 1, retstep=True)
    a_i = pair.energy_initial / HBAR_SQ_MEV_AMU_A2
    a_f = pair.energy_final / HBAR_SQ_MEV_AMU_A2
    rows_i = _hermite_rows(np.sqrt(a_i) * x, m_max, a_i**0.25)
    rows_f = _hermite_rows(np.sqrt(a_f) * (x - pair.displacement), n_max, a_f**0.25)
    return rows_i, rows_f, step, count


def reference_full_grid_table(pair, m_max, n_max, grid=GridSpec()):
    """The float64 oracle summed over every fine point: (values, errors, roundoff floor)."""
    rows_i, rows_f, step, count = _full_grid_rows(pair, m_max, n_max, grid)
    coarse_f = rows_f[:, ::2] * _trapezoid_weights(count, 2.0 * step)
    coarse = np.ascontiguousarray(rows_i[:, ::2]) @ coarse_f.T
    rows_f *= _trapezoid_weights(2 * count - 1, step)
    fine = rows_i @ rows_f.T
    floor = 64.0 * np.finfo(float).eps * (np.abs(rows_i) @ np.abs(rows_f).T)
    return fine, np.abs(fine - coarse) + floor, floor


def _summed_span(monkeypatch, pair, m_max, n_max, grid=GridSpec()):
    """(k0, k1, values, errors): the fine points the oracle summed over, seen by a spy."""
    seen = []

    def spy(y, order, scale):
        seen.append(y.copy())
        return _hermite_rows(y, order, scale)

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_hermite_rows", spy)
        values, errors = quadrature_overlap_table(pair, m_max, n_max, grid)
    lo, hi, count = _grid_layout(pair, max(m_max, n_max, 1), grid)
    x = np.linspace(lo, hi, 2 * count - 1)
    y_i = np.sqrt(pair.energy_initial / HBAR_SQ_MEV_AMU_A2) * x
    y_f = np.sqrt(pair.energy_final / HBAR_SQ_MEV_AMU_A2) * (x - pair.displacement)
    k0 = int(np.searchsorted(y_i, seen[0][0])) if seen[0].size else 0
    k1 = k0 + seen[0].size
    assert len(seen) == 2 and np.array_equal(seen[0], y_i[k0:k1])
    assert np.array_equal(seen[1], y_f[k0:k1])
    return k0, k1, values, errors


def test_every_point_outside_the_summed_span_is_below_the_cut(monkeypatch):
    # The points next to the span carry the largest skipped terms; they and a
    # random sample of the rest are evaluated in mpmath at 50 digits, taking
    # the largest term of every entry of the table, not only (m_max, n_max).
    rng = np.random.default_rng(18)
    parities = set()
    summed_total = skipped_total = 0
    for _ in range(60):
        energies = np.exp(rng.uniform(math.log(20.0), math.log(400.0), size=2))
        pair = OscillatorPair(float(energies[0]), float(energies[1]), float(rng.uniform(-3, 3)))
        grid = GridSpec(float(rng.uniform(12.0, 20.0)), float(rng.uniform(20.0, 45.0)))
        m_max, n_max = (int(k) for k in rng.integers(0, 31, size=2))
        k0, k1, _, _ = _summed_span(monkeypatch, pair, m_max, n_max, grid)
        lo, hi, count = _grid_layout(pair, max(m_max, n_max, 1), grid)
        points = 2 * count - 1
        skipped = np.r_[0:k0, k1:points]
        near = {k for edge in (k0, k1) for k in range(edge - 3, edge + 3)}
        sample = near.union(rng.choice(skipped, size=min(6, skipped.size), replace=False).tolist())
        cut = _cut(points, 30)
        for idx in sorted(k for k in sample if 0 <= k < k0 or k1 <= k < points):
            term = _reference_term(pair, m_max, n_max, lo, hi, points, idx, 50)
            assert term < cut, (pair, m_max, n_max, idx)
        parities.add(k0 % 2)
        summed_total += k1 - k0
        skipped_total += skipped.size
    assert parities == {0, 1}  # coarse points start at the slice's first or second point
    assert summed_total > 0 and skipped_total > 0  # neither side is vacuous


@pytest.mark.parametrize("pair", _seeded_pairs(19, 12), ids=lambda p: f"{p.energy_initial:.1f}")
@pytest.mark.parametrize("shape", [(1, 30), (30, 30), (0, 0), (5, 17)])
def test_cropped_sums_match_the_full_grid_within_its_roundoff_floor(pair, shape):
    values, errors = quadrature_overlap_table(pair, *shape)
    full_values, full_errors, floor = reference_full_grid_table(pair, *shape)
    assert np.all(np.abs(values - full_values) <= floor)
    assert np.all(np.abs(errors - full_errors) <= floor)


@pytest.mark.parametrize("shape", [(0, 0), (1, 30), (30, 30)])
def test_gaussians_that_never_overlap_give_zeros_with_the_skip_bound(monkeypatch, shape):
    pair = OscillatorPair(20.0, 400.0, 50.0)
    k0, k1, values, errors = _summed_span(monkeypatch, pair, *shape)
    assert k0 == k1 == 0
    assert values.shape == errors.shape == (shape[0] + 1, shape[1] + 1)
    points = 2 * _grid_layout(pair, max(*shape, 1), GridSpec())[2] - 1
    assert not values.any() and np.all(errors == _float_skip(points, points))
    with mpmath.workdps(50):  # every point skipped: the error is 3 * points * cut, 1.5e-40
        assert abs(errors[0, 0] - float(3 * points * _cut(points, 30))) <= 4e-16 * errors[0, 0]
    full_values, full_errors, _ = reference_full_grid_table(pair, *shape)
    assert not full_values.any() and not full_errors.any()


def test_odd_first_point_takes_the_odd_fine_points_as_coarse(monkeypatch):
    pair = OscillatorPair(20.0, 400.0, 0.0)
    k0, _, values, errors = _summed_span(monkeypatch, pair, 0, 0)
    assert k0 % 2 == 1
    expected_values, expected_errors = reference_quadrature_table(pair, 0, 0)
    assert np.array_equal(values, expected_values) and np.array_equal(errors, expected_errors)
    full_values, full_errors, floor = reference_full_grid_table(pair, 0, 0)
    assert np.all(np.abs(values - full_values) <= floor)
    assert np.all(np.abs(errors - full_errors) <= floor)


def test_span_reaching_both_half_weight_ends_is_the_full_grid_sum(monkeypatch):
    # On the oracle's own grids the end points are always skipped (their terms
    # are below e^-108), so a window at the same density cuts the Gaussians at ~e^-49.
    window = (-2.5, 2.5, 116)
    monkeypatch.setattr(quadrature, "_grid_layout", lambda *args: window)
    monkeypatch.setitem(globals(), "_grid_layout", lambda *args: window)
    pair = OscillatorPair(33.0, 33.0, 0.0)
    k0, k1, values, errors = _summed_span(monkeypatch, pair, 0, 0)
    assert (k0, k1) == (0, 2 * window[2] - 1)
    full_values, full_errors, _ = reference_full_grid_table(pair, 0, 0)
    assert np.array_equal(values, full_values) and np.array_equal(errors, full_errors)


@pytest.mark.parametrize("window", [(-0.2, 0.3, 9), (-0.45, 0.1, 33)])
def test_cut_off_window_weighs_the_end_points(monkeypatch, window):
    # On the oracle's own grids the end points carry ~e^-54 of the integrand;
    # a window that cuts the wavefunctions off, as in the mpmath test above,
    # shows that the summed span keeps the half weights where it reaches the ends.
    monkeypatch.setattr(quadrature, "_grid_layout", lambda *args: window)
    monkeypatch.setitem(globals(), "_grid_layout", lambda *args: window)
    pair = OscillatorPair(47.0, 151.0, 0.42)
    values, errors = quadrature_overlap_table(pair, 5, 7)
    expected_values, expected_errors = reference_quadrature_table(pair, 5, 7)
    assert np.array_equal(values, expected_values) and np.array_equal(errors, expected_errors)
    full_values, full_errors, _ = reference_full_grid_table(pair, 5, 7)
    assert np.array_equal(values, full_values) and np.array_equal(errors, full_errors)


def test_scalar_float64_oracle_equals_reference():
    rng = np.random.default_rng(15)
    for pair in _seeded_pairs(15, 16):
        m, n = (int(k) for k in rng.integers(0, 31, size=2))
        values, errors = reference_quadrature_table(pair, m, n)
        assert quadrature_overlap_with_error(m, n, pair) == (values[m, n], errors[m, n])
        if errors[m, n] <= GridSpec().abs_tol:
            assert quadrature_overlap_oracle(m, n, pair) == values[m, n]
        else:
            with pytest.raises(AccuracyError):
                quadrature_overlap_oracle(m, n, pair)


def _cut(points, dps):
    """The dps oracle's skip threshold: no skipped point's term reaches it."""
    with mpmath.workdps(dps + 20):
        return mpmath.mpf(10) ** -(dps + 10) / (2 * points)


def _reference_term(pair, m, n, lo, hi, points, idx, dps):
    """The largest |term| * step * norm over orders <= (m, n) at fine point *idx*, in mpmath."""
    with mpmath.workdps(dps):
        a_i = mpmath.mpf(pair.energy_initial) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        a_f = mpmath.mpf(pair.energy_final) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        step = (mpmath.mpf(hi) - mpmath.mpf(lo)) / (points - 1)
        x = mpmath.mpf(lo) + idx * step
        y_i, y_f = mpmath.sqrt(a_i) * x, mpmath.sqrt(a_f) * (x - mpmath.mpf(pair.displacement))

        def largest_hermite(order, y):
            h_prev, h = mpmath.mpf(0), mpmath.mpf(1)
            largest = h
            for k in range(1, order + 1):
                c_y, c_p = mpmath.sqrt(mpmath.mpf(2) / k), mpmath.sqrt(mpmath.mpf(k - 1) / k)
                h, h_prev = c_y * y * h - c_p * h_prev, h
                largest = max(largest, abs(h))
            return largest

        norm = mpmath.power(a_i * a_f, mpmath.mpf(1) / 4) / mpmath.sqrt(mpmath.pi)
        gauss = mpmath.exp(-(y_i * y_i + y_f * y_f) / 2)
        return largest_hermite(m, y_i) * largest_hermite(n, y_f) * gauss * step * norm


@pytest.mark.parametrize("dps", [15, 30, 50])
def test_every_skipped_term_is_below_the_cut(dps):
    # The skipped points nearest the summed ones carry the largest skipped
    # terms; they and a random sample of the rest are evaluated at dps + 20 digits.
    rng = np.random.default_rng(20 + dps)
    kept_total = skipped_total = 0
    for pair in _seeded_pairs(20 + dps, 10):
        m, n = (int(k) for k in rng.integers(0, 31, size=2))
        lo, hi, count = _grid_layout(pair, max(m, n, 1), GridSpec())
        points = 2 * count - 1
        kept = np.zeros(points, dtype=bool)
        kept[_kept_points(pair, m, n, lo, hi, points, dps)] = True
        skipped = np.flatnonzero(~kept)
        edges = np.flatnonzero(np.diff(kept.astype(int)))  # last point before each change
        near = {int(k) for edge in edges for k in range(edge - 2, edge + 4) if 0 <= k < points}
        sample = near.union(rng.choice(skipped, size=min(24, skipped.size), replace=False).tolist())
        cut = _cut(points, dps)
        for idx in sorted(k for k in sample if not kept[k]):
            assert _reference_term(pair, m, n, lo, hi, points, idx, dps + 20) < cut, (pair, m, n, idx)
        kept_total += int(kept.sum())
        skipped_total += skipped.size
    assert kept_total > 0 and skipped_total > 0  # neither side is vacuous


@pytest.mark.parametrize("pair, m, n", [
    (OscillatorPair(33.0, 33.0, 0.734), 1, 0),
    (_seeded_pairs(16, 2)[1], 0, 1),
    *((pair, k % 4, (3 * k) % 5) for k, pair in enumerate(_seeded_pairs(21, 6))),
])
def test_decimal_oracle_against_two_pass_reference(pair, m, n):
    # The two-pass reference sums every point in mpmath.  The value is the
    # same float; the error may only grow, by the skipped points' bound.
    value, error = quadrature_overlap_with_error(m, n, pair, MPMATH_GRID)
    expected, expected_error = reference_mpmath_with_error(m, n, pair, MPMATH_GRID)
    assert value == expected
    assert abs(value - expected) <= error
    assert error >= expected_error
    assert quadrature_overlap_oracle(m, n, pair, MPMATH_GRID) == expected


@pytest.mark.parametrize("window", ["layout", "narrow"])
@pytest.mark.parametrize("count", [2, 5, 9, 33])
def test_decimal_single_pass_on_unconverged_grids(count, window):
    # At the oracle's own grid sizes both sums converge past float64, so
    # only sparse grids show that the coarse sum takes the right points;
    # a window that cuts the wavefunctions off weighs the end points too.
    pair = OscillatorPair(47.0, 151.0, 0.42)
    lo, hi, _ = _grid_layout(pair, 7, GridSpec())
    if window == "narrow":
        lo, hi = -0.2, 0.3
    fine, floor = _reference_mpmath_pass(pair, 5, 7, lo, hi, 2 * count - 1, 30)
    coarse, _ = _reference_mpmath_pass(pair, 5, 7, lo, hi, count, 30)
    skipped = 2 * count - 1 - len(_kept_points(pair, 5, 7, lo, hi, 2 * count - 1, 30))
    result = _decimal_overlap(pair, 5, 7, lo, hi, count, 30)
    if window == "narrow":  # every point is summed
        assert skipped == 0 and result == (fine, coarse, floor)
    else:  # the skipped ends carry only the cut, added to the floor
        assert skipped > 0 and result[:2] == (fine, coarse)
        skip = float(3 * skipped * _cut(2 * count - 1, 30))
        assert abs(result[2] - (floor + skip)) <= 4 * np.finfo(float).eps * (floor + skip)
    assert count == 2 or fine != coarse


@pytest.mark.parametrize("m, n", [(0, 0), (1, 1), (0, 28)])
def test_pair_whose_points_are_all_skipped_gives_zero_with_the_skip_bound(m, n):
    pair = OscillatorPair(20.0, 400.0, 50.0)
    lo, hi, count = _grid_layout(pair, max(m, n, 1), GridSpec())
    points = 2 * count - 1
    assert _kept_points(pair, m, n, lo, hi, points, MPMATH_GRID.dps) == []
    value, error = quadrature_overlap_with_error(m, n, pair, MPMATH_GRID)
    with mpmath.workdps(MPMATH_GRID.dps + 20):
        bound = float(3 * points * _cut(points, MPMATH_GRID.dps))
    assert value == 0.0
    assert error >= bound > 0.0
    assert quadrature_overlap_oracle(m, n, pair, MPMATH_GRID) == 0.0


def test_coarse_grid_is_every_other_fine_point():
    # The fact the float64 oracle and the two-grid references rest on:
    # halving the step is exact in binary, for numpy's linspace and for
    # lo + idx * step in mpmath.  (In decimal it is not; the dps oracle's
    # coarse sum takes every other one of its own fine points.)
    rng = np.random.default_rng(17)
    for k, pair in enumerate(_seeded_pairs(17, 200)):
        grid = GridSpec(float(rng.uniform(12.0, 30.0)), float(rng.uniform(20.0, 60.0)))
        lo, hi, count = _grid_layout(pair, int(rng.integers(1, 31)), grid)
        coarse, coarse_step = np.linspace(lo, hi, count, retstep=True)
        fine, step = np.linspace(lo, hi, 2 * count - 1, retstep=True)
        assert np.array_equal(fine[::2], coarse) and 2.0 * step == coarse_step
        if k % 20 == 0:
            with mpmath.workdps(30):
                lo_mp, hi_mp = mpmath.mpf(lo), mpmath.mpf(hi)
                coarse_step = (hi_mp - lo_mp) / (count - 1)
                step = (hi_mp - lo_mp) / (2 * count - 2)
                assert all(
                    lo_mp + 2 * idx * step == lo_mp + idx * coarse_step for idx in range(count)
                )
