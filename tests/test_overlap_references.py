"""The overlap kernels against slow references.

Rows m <= 1 of ``fc_overlap_matrix`` advance whole rows of the recurrence
in n; they must give the same IEEE results as the straightforward
entry-by-entry recurrence in ``references``, bit for bit.  Rows m >= 2 are
the values of the quadrature oracle, which shares no code with that
recurrence.  The references of both are the recurrence's exact arithmetic,
run in mpmath at 60 digits or more (100 or more for m > 40): each float64
entry and each ``decimal`` result must lie within its own reported error of
it.  The forward recurrence in m loses at most ~17 of those digits for
m <= 30, and fewer than 20 of 110 for m <= 512, which leaves the references
far more accurate than any error they are compared with.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from multiphonon import (
    CapabilityError,
    GridSpec,
    OscillatorPair,
    fc_overlap,
    fc_overlap_matrix,
    quadrature_overlap_table,
    quadrature_overlap_with_error,
)
from multiphonon.quadrature import _decimal_overlap, _hermite_rows
from references import mpmath_overlap_table, reference_hermite_rows, reference_moment_rows

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
    # Rows m <= 1 bit for bit; rows m >= 2 within the oracle's error of 80 digits.
    table = fc_overlap_matrix(pair, *shape)
    assert table.shape == (shape[0] + 1, shape[1] + 1)
    assert np.array_equal(table[:2], reference_moment_rows(pair, shape[1])[: shape[0] + 1])
    if shape[0] >= 2:
        _, errors = quadrature_overlap_table(pair, *shape)
        deviation = mpmath_deviation(table[2:], mpmath_overlap_table(pair, *shape, 80)[2:], 80)
        assert np.all(deviation <= errors[2:]), np.argwhere(deviation > errors[2:]).tolist()


def test_fc_overlap_equals_reference_entry():
    for k, pair in enumerate(_seeded_pairs(12, 16)):
        m, n = k % 2, 32 * k
        assert fc_overlap(m, n, pair) == reference_moment_rows(pair, n)[m, n]


def mpmath_deviation(values, reference, dps):
    """|value - reference| per entry, as floats, the difference taken at *dps* digits."""
    with mpmath.workdps(dps):
        return np.array([[float(abs(mpmath.mpf(float(v)) - r)) for v, r in zip(row, ref_row)]
                         for row, ref_row in zip(values, reference)])


def test_mpmath_reference_matches_the_float64_recurrence_and_its_own_digits():
    pair = _seeded_pairs(22, 1)[0]
    reference = mpmath_overlap_table(pair, 1, 30, 60)
    assert np.allclose(np.array(reference, dtype=float), fc_overlap_matrix(pair, 1, 30), rtol=1e-12, atol=1e-15)
    for pair, shape, dps, more, digits in ((pair, (30, 30), 60, 80, 40),
                                           (_seeded_pairs(52, 1)[0], (512, 8), 110, 150, 90),
                                           (OscillatorPair(20.0, 400.0, 0.5), (120, 120), 110, 150, 90)):
        reference = mpmath_overlap_table(pair, *shape, more)
        with mpmath.workdps(more):
            assert max(abs(x - y) for row, other in zip(mpmath_overlap_table(pair, *shape, dps), reference)
                       for x, y in zip(row, other)) < mpmath.mpf(10) ** -digits


@pytest.mark.parametrize("pair", _seeded_pairs(23, 48) + TRAPEZOID_MISSES + LARGE_DISPLACEMENTS,
                         ids=lambda p: f"{p.energy_initial:.1f}-{p.displacement:.2f}")
@pytest.mark.parametrize("shape", [(1, 30), (30, 30)])
def test_float64_table_entries_lie_within_their_error_of_mpmath(pair, shape):
    values, errors = quadrature_overlap_table(pair, *shape)
    deviation = mpmath_deviation(values, mpmath_overlap_table(pair, *shape, 60), 60)
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


# Tables that no benchmark workload asks for: eight rows or columns to the
# limit, and 120 x 120, where the forward recursion in m was 3.9e-5 off for
# (33, 40, 0.734).  Where it was run to 512 x 512, it reached |S| = 1.6e17.
LARGE_TABLES = ([(pair, (8, 512)) for pair in _seeded_pairs(51, 3)]
                + [(pair, (512, 8)) for pair in _seeded_pairs(52, 3)]
                + [(OscillatorPair(33.0, 40.0, 0.734), (120, 120)),
                   (OscillatorPair(20.0, 400.0, 0.5), (120, 120))])


def _table_id(value):
    return f"{value.energy_initial:.1f}" if isinstance(value, OscillatorPair) else "x".join(map(str, value))


@pytest.mark.parametrize("pair, shape", LARGE_TABLES, ids=_table_id)
def test_large_tables_lie_within_their_error_of_mpmath(pair, shape):
    table = fc_overlap_matrix(pair, *shape)
    _, errors = quadrature_overlap_table(pair, *shape)
    deviation = mpmath_deviation(table, mpmath_overlap_table(pair, *shape, 110), 110)
    assert np.all(deviation <= errors), np.argwhere(deviation > errors).tolist()
    assert np.all(np.abs(table) <= 1.0)
    # Bessel's inequality: a row's exact squares sum to at most 1, and a value v
    # within its error e of S has v^2 - S^2 <= e (2|v| + e).
    slack = np.sum(errors * (2.0 * np.abs(table) + errors), axis=1)
    assert np.all(np.sum(table * table, axis=1) <= 1.0 + slack)


@pytest.mark.parametrize("pair, shape", LARGE_TABLES + [(pair, (30, 30)) for pair in _seeded_pairs(53, 4)],
                         ids=_table_id)
def test_swapped_pair_gives_the_transposed_table(pair, shape):
    # <chi_i_m | chi_f_n> = <chi_f_n | chi_i_m>, the initial state of the swapped
    # pair sitting at -dQ from its final state: rows become columns.
    swapped = OscillatorPair(pair.energy_final, pair.energy_initial, -pair.displacement)
    table, transposed = fc_overlap_matrix(pair, *shape), fc_overlap_matrix(swapped, *shape[::-1]).T
    errors = quadrature_overlap_table(pair, *shape)[1]
    errors = errors + quadrature_overlap_table(swapped, *shape[::-1])[1].T
    assert np.all(np.abs(table - transposed) <= errors)


@pytest.mark.parametrize("points", [1, 66, 126, 1026])
@pytest.mark.parametrize("n_max", [0, 1, 2, 30, 512])
def test_hermite_rows_equal_the_step_by_step_reference(n_max, points):
    rng = np.random.default_rng(1000 * n_max + points)
    y = rng.uniform(-1.0, 1.0, points) * 10.0 ** rng.uniform(-3.0, 3.0, points)  # |y| up to 1e3
    rows = _hermite_rows(y, n_max)
    assert np.array_equal(rows.view(np.int64), reference_hermite_rows(y, n_max).view(np.int64))


# Rows m >= 2 sum the K-node rule alone, without the table's K + 1 nodes and error
# terms: the same bits as the table's values, with the process's default BLAS threads.
@pytest.mark.parametrize("pair, shape", [(pair, shape) for pair in _seeded_pairs(54, 8)
                                         for shape in [(2, 2), (7, 40), (40, 7), (30, 30), (2, 512), (512, 3)]]
                         + LARGE_TABLES, ids=_table_id)
def test_rows_m_at_least_2_are_the_table_values_bit_for_bit(pair, shape):
    rows = fc_overlap_matrix(pair, *shape)[2:]
    values = quadrature_overlap_table(pair, *shape)[0][2:]
    assert np.array_equal(rows.view(np.int64), values.view(np.int64))


def test_rows_m_at_least_2_are_refused_as_the_table_refuses():
    # The pair of test_quadrature's non-finite refusal: NaN in rows m >= 2 only.
    pair = OscillatorPair(1e-310, 1e300, 1e12)
    messages = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (fc_overlap_matrix, quadrature_overlap_table):
            with pytest.raises(CapabilityError, match="not finite in double precision") as refusal:
                call(pair, 3, 20)
            messages.append(str(refusal.value))
    assert messages[0] == messages[1]
