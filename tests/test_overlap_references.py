"""The overlap kernels against slow references.

``fc_overlap_matrix`` advances whole rows; it must give the same IEEE
results as the straightforward entry-by-entry recurrence below, bit for
bit.  The quadrature oracle shares no code with that recurrence.  Its
references are the recurrence's exact arithmetic, run in mpmath at 60
digits or more: each float64 table entry and each ``decimal`` result must
lie within its own reported error of it.  The forward recurrence in m
loses at most ~17 of those digits for m <= 30, which leaves the references
far more accurate than any error they are compared with.
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
    quadrature_overlap_table,
    quadrature_overlap_with_error,
)
from multiphonon.constants import HBAR_SQ_MEV_AMU_A2
from multiphonon.oscillator import _recurrence_coefficients
from multiphonon.quadrature import _decimal_overlap

# The pairs whose m = 0 entries fell outside the error of the trapezoid-grid
# oracle, each at the overlap-certify seed that draws it (2, 2105, 12304).
TRAPEZOID_MISSES = [
    OscillatorPair(188.55265713280056, 107.80598870139808, 0.018594092285837346),
    OscillatorPair(116.73526584102403, 126.80935115016364, 0.08328959830544),
    OscillatorPair(47.019057361298444, 28.00907030040046, 0.09750351154330619),
]
# Displacements far outside the certification domain: the Gaussian factors
# e^{-y^2/2} are ill-conditioned (c ~ 680), and at 19.6 part of each table
# underflows.
LARGE_DISPLACEMENTS = [OscillatorPair(33.0, 33.0, 18.5), OscillatorPair(33.0, 33.0, 19.6),
                       OscillatorPair(20.0, 400.0, 7.0), OscillatorPair(400.0, 20.0, -7.3)]


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




def mpmath_overlap_table(pair, m_max, n_max, dps):
    """The overlap recurrence in exact form, evaluated in mpmath at *dps* digits."""
    with mpmath.workdps(dps):
        a_i = mpmath.mpf(pair.energy_initial) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        a_f = mpmath.mpf(pair.energy_final) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        dq, total = mpmath.mpf(pair.displacement), a_i + a_f
        a, b = (a_i - a_f) / total, 2 * dq * mpmath.sqrt(a_i) * a_f / total
        d, e = -2 * dq * mpmath.sqrt(a_f) * a_i / total, 4 * mpmath.sqrt(a_i * a_f) / total
        s = [[mpmath.mpf(0)] * (n_max + 2) for _ in range(m_max + 2)]  # index -1 reads 0
        s[0][0] = mpmath.sqrt(e / 2) * mpmath.exp(b * d / (2 * e))
        for n in range(1, n_max + 1):
            s[0][n] = d / mpmath.sqrt(2 * n) * s[0][n - 1] - a * mpmath.sqrt((n - 1) / mpmath.mpf(n)) * s[0][n - 2]
        for m in range(1, m_max + 1):
            for n in range(n_max + 1):
                s[m][n] = (b / mpmath.sqrt(2 * m) * s[m - 1][n]
                           + a * mpmath.sqrt((m - 1) / mpmath.mpf(m)) * s[m - 2][n]
                           + e / 2 * mpmath.sqrt(n / mpmath.mpf(m)) * s[m - 1][n - 1])
        return [row[: n_max + 1] for row in s[: m_max + 1]]


def test_mpmath_reference_matches_the_float64_recurrence_and_its_own_digits():
    pair = _seeded_pairs(22, 1)[0]
    reference = mpmath_overlap_table(pair, 1, 30, 60)
    assert np.allclose(np.array(reference, dtype=float), fc_overlap_matrix(pair, 1, 30), rtol=1e-12, atol=1e-15)
    more = mpmath_overlap_table(pair, 30, 30, 80)
    with mpmath.workdps(80):
        assert max(abs(x - y) for row, other in zip(mpmath_overlap_table(pair, 30, 30, 60), more)
                   for x, y in zip(row, other)) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("pair", _seeded_pairs(23, 48) + TRAPEZOID_MISSES + LARGE_DISPLACEMENTS,
                         ids=lambda p: f"{p.energy_initial:.1f}-{p.displacement:.2f}")
@pytest.mark.parametrize("shape", [(1, 30), (30, 30)])
def test_float64_table_entries_lie_within_their_error_of_mpmath(pair, shape):
    values, errors = quadrature_overlap_table(pair, *shape)
    reference = mpmath_overlap_table(pair, *shape, 60)
    with mpmath.workdps(60):
        deviation = np.array([[float(abs(mpmath.mpf(float(v)) - r)) for v, r in zip(row, ref_row)]
                              for row, ref_row in zip(values, reference)])
    assert np.all(deviation <= errors), np.argwhere(deviation > errors).tolist()
    assert np.all(errors > 0.0)


def _decimal_cases(dps):
    """Seeded pairs with seeded m, n <= 30, and the corners (0, 0) and (30, 30)."""
    rng = np.random.default_rng(40 + dps)
    cases = [(dps, pair, *(int(k) for k in rng.integers(0, 31, size=2)))
             for pair in _seeded_pairs(40 + dps, 6)]
    return cases + [(dps, _seeded_pairs(41, 1)[0], 0, 0), (dps, _seeded_pairs(42, 1)[0], 30, 30)]


@pytest.mark.parametrize("dps, pair, m, n", [case for dps in (15, 30, 50) for case in _decimal_cases(dps)],
                         ids=lambda v: f"{v.energy_initial:.1f}" if isinstance(v, OscillatorPair) else str(v))
def test_decimal_backend_against_mpmath(dps, pair, m, n):
    value, error = _decimal_overlap(pair, m, n, dps)
    reference = mpmath_overlap_table(pair, m, n, dps + 20)[m][n]
    with mpmath.workdps(dps + 20):
        assert abs(mpmath.mpf(str(value)) - reference) <= mpmath.mpf(str(error))
        assert mpmath.mpf(str(error)) < mpmath.mpf(10) ** (4 - dps)  # not a vacuous comparison
        returned, returned_error = quadrature_overlap_with_error(m, n, pair, GridSpec(dps=dps))
        assert returned == float(value)
        assert abs(mpmath.mpf(returned) - reference) <= returned_error


@pytest.mark.parametrize("grid", [None, GridSpec(dps=15), GridSpec(dps=30), GridSpec(dps=50)],
                         ids=["float64", "dps15", "dps30", "dps50"])
@pytest.mark.parametrize("shape", [(1, 30), (30, 30)])
@pytest.mark.parametrize("pair", [OscillatorPair(20.0, 400.0, 50.0), OscillatorPair(33.0, 33.0, 1e200)],
                         ids=["c5690", "y-overflows"])
def test_entries_whose_every_term_underflows_get_a_bound_on_their_size(pair, grid, shape):
    # c = A_i A_f dQ^2 / (2 (A_i + A_f)) is about 5,690 or 2e399: e^-c is far below every
    # float, and at dQ = 1e200 even y^2 overflows.
    if grid is None:
        values, errors = quadrature_overlap_table(pair, *shape)
    else:
        entries = [(m, n) for m in range(shape[0] + 1) for n in range(shape[1] + 1)][::97]
        values, errors = np.array([quadrature_overlap_with_error(m, n, pair, grid) for m, n in entries]).T
    assert not values.any()
    assert np.all(errors >= math.ulp(0.0))
    reference = mpmath_overlap_table(pair, *shape, 60)
    with mpmath.workdps(60):
        largest = max(abs(x) for row in reference for x in row)
        assert 0 < largest < mpmath.mpf(10) ** -2000 and largest <= errors.min()
