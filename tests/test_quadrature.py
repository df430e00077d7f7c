import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from multiphonon import (
    AccuracyError,
    CapabilityError,
    DomainError,
    GridSpec,
    OscillatorPair,
    fc_overlap,
    fc_overlap_matrix,
    huang_rhys_factor,
    quadrature_overlap_oracle,
    quadrature_overlap_table,
    quadrature_overlap_with_error,
)
from multiphonon import quadrature
from multiphonon.constants import HBAR_SQ_MEV_AMU_A2
from references import reference_hermite_rows

# Where float64 quadrature certifies a 1e-8 relative comparison; smaller
# overlaps are cross-checked in extended precision (see the deep-tail test).
REL_TOL = 1e-8


def test_identical_oscillators_unit_overlap():
    pair = OscillatorPair(100.0, 100.0, 0.0)
    assert quadrature_overlap_oracle(0, 0, pair) == pytest.approx(1.0, abs=1e-10)


def test_matches_poisson_closed_form(accepting_pair):
    s_factor = huang_rhys_factor(accepting_pair)
    for n in range(11):
        value = quadrature_overlap_oracle(0, n, accepting_pair)
        expected = math.exp(-s_factor) * s_factor**n / math.factorial(n)
        assert value**2 == pytest.approx(expected, rel=1e-9)


def _criterion7(analytic, values, errors, tiny=1e-6):
    """Check the rows m <= 1 against the oracle by the criterion-7 rule; count the resolved entries."""
    resolvable = errors <= REL_TOL * np.abs(values)
    deviation = np.abs(analytic - values)
    assert np.all(deviation[resolvable] <= REL_TOL * np.abs(values[resolvable]))
    # Unresolvable entries are deep-tail overlaps: both routes must agree they are tiny.
    assert np.all(np.abs(values[~resolvable]) < tiny)
    assert np.all(np.abs(analytic[~resolvable]) < tiny)
    assert np.all(deviation[~resolvable] <= errors[~resolvable])
    return int(np.sum(resolvable))


def test_agrees_with_analytic_recursion_across_parameter_box():
    energies = (20.0, 33.0, 359.0)
    displacements = (0.0, 0.366, 1.0)
    checked = 0
    for e_i in energies:
        for e_f in energies:
            for dq in displacements:
                pair = OscillatorPair(e_i, e_f, dq)
                table = quadrature_overlap_table(pair, 1, 30)
                checked += _criterion7(fc_overlap_matrix(pair, 1, 30), *table)
    assert checked > 1000  # the comparison is not vacuous


def test_general_row_recursion_against_oracle():
    # Rows m >= 2 of the matrix form are the oracle's values, no longer a recursion in m.
    pair = OscillatorPair(47.0, 151.0, 0.42)
    analytic = fc_overlap_matrix(pair, 8, 9)[5, 7]
    value = quadrature_overlap_oracle(5, 7, pair)
    assert value == pytest.approx(analytic, rel=1e-9)


def test_deep_tail_spot_check_in_extended_precision(accepting_pair):
    # m=1, n=28 of the accepting mode is ~4e-10: far below the float64
    # cancellation floor, resolvable at 30 significant digits.
    analytic = fc_overlap(1, 28, accepting_pair)
    value = quadrature_overlap_oracle(
        1, 28, accepting_pair, GridSpec(abs_tol=1e-19, dps=30)
    )
    assert abs(value - analytic) <= 1e-8 * abs(analytic)


def _seeded_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [OscillatorPair(*np.exp(rng.uniform(np.log(20.0), np.log(400.0), size=2)), rng.uniform(0.0, 1.0))
            for _ in range(count)]


@pytest.mark.parametrize("pair", [OscillatorPair(33.0, 359.0, 0.5)] + _seeded_pairs(20261, 12),
                         ids=lambda p: f"{p.energy_initial:.1f}-{p.displacement:.2f}")
@pytest.mark.parametrize("shape", [(1, 7), (1, 30), (30, 30), (12, 3)])
def test_more_nodes_agree_within_the_reported_error(pair, shape):
    # K nodes are exact for every entry, and so are K + 1 and K + 2: the
    # sums differ by rounding only, which the reported error must cover.
    count = sum(shape) // 2 + 1
    values, errors = quadrature_overlap_table(pair, *shape)
    exponents = quadrature._exponents(pair)
    (sum_k, sum_k1), _, _, _ = quadrature._float64_sums(pair, *exponents, *shape, count)
    (_, sum_k2), _, _, _ = quadrature._float64_sums(pair, *exponents, *shape, count + 1)
    assert np.array_equal(values, sum_k)
    for more in (sum_k1, sum_k2):
        assert np.all(np.abs(more - values) <= errors)
    assert np.all(errors < 1e-12)


def _one_rule_sums(pair, m_max, n_max, count):
    """(S, l1) at *count* nodes, one Hermite recurrence per oscillator: the reference."""
    nodes, weights = quadrature._gauss_hermite(count)
    a_i, a_f = pair.energy_initial / HBAR_SQ_MEV_AMU_A2, pair.energy_final / HBAR_SQ_MEV_AMU_A2
    total = a_i + a_f
    scale = math.sqrt(2.0 / total)
    y_i = math.sqrt(a_i) * (pair.displacement * a_f / total + scale * nodes)
    y_f = math.sqrt(a_f) * (scale * nodes - pair.displacement * a_i / total)
    rows_i = reference_hermite_rows(y_i, m_max) * a_i**0.25
    rows_f = reference_hermite_rows(y_f, n_max) * a_f**0.25 * (scale * weights)
    floor = np.abs(rows_f) * np.maximum(64.0, 2.0 * (y_i * y_i + y_f * y_f))
    return rows_i @ rows_f.T, np.abs(rows_i) @ floor.T


@pytest.mark.parametrize("pair", _seeded_pairs(20262, 8) + [
    OscillatorPair(20.0, 400.0, 0.5), OscillatorPair(33.0, 40.0, 0.734),
    OscillatorPair(33.0, 33.0, 18.5), OscillatorPair(20.0, 400.0, 50.0),
], ids=lambda p: f"{p.energy_initial:.1f}-{p.energy_final:.1f}-{p.displacement:.2f}")
@pytest.mark.parametrize("shape", [(0, 0), (1, 30), (30, 30), (12, 3), (30, 1)])
def test_table_is_bit_identical_to_one_recurrence_per_oscillator_and_rule(pair, shape):
    # One recurrence over both oscillators and both rules is elementwise the
    # same arithmetic, so values and errors match bit for bit; only entries
    # whose absolute sum underflowed carry the log-form bound instead.
    count = sum(shape) // 2 + 1
    with np.errstate(over="ignore", invalid="ignore"):
        (expected, l1), (other, other_l1) = (_one_rule_sums(pair, *shape, k) for k in (count, count + 1))
    l1 = np.maximum(l1, other_l1)
    expected_errors = np.abs(expected - other) + np.finfo(float).eps * l1
    values, errors = quadrature_overlap_table(pair, *shape)
    assert values.tobytes() == expected.tobytes()
    normal = l1 >= sys.float_info.min
    assert errors[normal].tobytes() == expected_errors[normal].tobytes()
    assert np.all(errors[~normal] >= np.abs(values[~normal]))


def test_float64_table_refuses_an_exponent_product_below_the_normal_range():
    # As fc_overlap_matrix does: A_i + A_f underflows (or A_i·A_f loses digits).
    for args in ((5e-324, 5e-324, 0.0), (5e-324, 33.0, 0.7), (1e-323, 33.0, 0.0)):
        with pytest.raises(CapabilityError, match="underflow double precision"):
            quadrature_overlap_table(OscillatorPair(*args), 1, 3)
    # The decimal backend factors e^-c out of its sum and still answers.
    _, error = quadrature_overlap_with_error(0, 1, OscillatorPair(5e-324, 33.0, 0.7), GridSpec(dps=30))
    assert math.isfinite(error)
    pair = OscillatorPair(1e-300, 33.0, 0.7)  # A_i·A_f = 1.9e-300 still answers
    values, errors = quadrature_overlap_table(pair, 1, 3)
    assert np.all(np.abs(values - fc_overlap_matrix(pair, 1, 3)) <= errors)
    assert errors[0, 0] <= 1e-13 * values[0, 0]


def test_entries_that_are_not_finite_are_refused_without_a_warning():
    # ΔQ·A_f overflows in the node positions, and 0·inf turns rows m >= 2 and the
    # log-form bound into NaN: every call below must refuse, not return it.
    pair = OscillatorPair(1e-310, 1e300, 1e12)
    calls = (lambda: fc_overlap(2, 2, pair), lambda: fc_overlap_matrix(pair, 3, 20),
             lambda: quadrature_overlap_table(pair, 3, 20), lambda: quadrature_overlap_oracle(2, 2, pair))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(CapabilityError, match="not finite in double precision"):
                call()
        assert np.isfinite(fc_overlap_matrix(pair, 1, 20)).all()  # rows m <= 1 still answer


def test_oracle_refuses_an_error_estimate_that_is_not_a_number(monkeypatch):
    monkeypatch.setattr(quadrature, "quadrature_overlap_with_error", lambda *args: (0.5, math.nan))
    with pytest.raises(AccuracyError, match="^quadrature error estimate nan exceeds"):
        quadrature_overlap_oracle(0, 0, OscillatorPair(33.0, 33.0, 0.0))


def test_underflow_bound_keeps_the_normalization_factor():
    # Every term of S[0, 1] underflows; sqrt(2/(A_i + A_f)) (A_i A_f)^(1/4)
    # is about 2.5e-154 here, so the bound is no longer of order one.
    pair = OscillatorPair(1e308, 1e-308, 1.0)
    values, errors = quadrature_overlap_table(pair, 1, 3)
    exact, _ = quadrature_overlap_with_error(0, 1, pair, GridSpec(dps=30))
    assert exact == pytest.approx(-9.78213338026192e-309, rel=1e-12, abs=0.0)
    assert abs(values[0, 1] - exact) <= errors[0, 1] <= 1e-150


def test_scalar_float64_oracle_is_the_table_entry():
    # One float64 path: the scalar oracle is the [m, n] entry of the table
    # summed at the same nodes (K for m + n), bit for bit.
    rng = np.random.default_rng(20260)
    for _ in range(40):
        energies = np.exp(rng.uniform(np.log(20.0), np.log(400.0), size=2))
        pair = OscillatorPair(float(energies[0]), float(energies[1]), float(rng.uniform(0.0, 1.0)))
        m, n = (int(k) for k in rng.integers(0, 31, size=2))
        values, errors = quadrature_overlap_table(pair, m, n)
        assert quadrature_overlap_with_error(m, n, pair) == (values[m, n], errors[m, n])


def test_accuracy_error_when_tolerance_unreachable(accepting_pair):
    with pytest.raises(AccuracyError):
        quadrature_overlap_oracle(1, 28, accepting_pair, GridSpec(abs_tol=1e-22))


def test_dps_error_covers_the_rounding_of_the_returned_float(accepting_pair):
    # At 30 digits the decimal estimate is ~1e-29, but the value comes back
    # as a float64 near 0.5: half an ulp of it (5.55e-17) is the true floor.
    value, error = quadrature_overlap_with_error(1, 0, accepting_pair, GridSpec(dps=30))
    assert 0.5 < value < 0.51
    assert error >= math.ulp(value) / 2 >= 5.55e-17
    with pytest.raises(AccuracyError):
        quadrature_overlap_oracle(1, 0, accepting_pair, GridSpec(dps=30, abs_tol=1e-20))


def test_grid_spec_minimums_enforced():
    with pytest.raises(DomainError):
        GridSpec(abs_tol=0.0)


def test_grid_spec_is_keyword_only_with_two_fields(accepting_pair):
    assert [field.name for field in dataclasses.fields(GridSpec)] == ["abs_tol", "dps"]
    assert GridSpec(abs_tol=14.0, dps=24) == GridSpec(dps=24, abs_tol=14.0)
    with pytest.raises(TypeError):
        GridSpec(14.0, 24.0)  # once turning_point_spans and points_per_wavelength
    with pytest.raises(TypeError):
        GridSpec(1e-10)
    for removed in ("turning_point_spans", "points_per_wavelength"):
        with pytest.raises(TypeError):
            GridSpec(**{removed: 30.0})
    # The bulk table is float64 on its fixed nodes: it takes no GridSpec.
    with pytest.raises(TypeError):
        quadrature_overlap_table(accepting_pair, 1, 3, GridSpec())
    with pytest.raises(TypeError):
        quadrature_overlap_table(accepting_pair, 1, 3, grid=GridSpec())


@pytest.mark.parametrize(
    "field,bad",
    [
        ("abs_tol", math.nan),
        ("abs_tol", math.inf),
        ("dps", 14),
        ("dps", 30.5),
        ("dps", True),
    ],
)
def test_grid_spec_rejects_non_finite_and_non_integer_fields(field, bad):
    with pytest.raises(DomainError):
        GridSpec(**{field: bad})


def test_oracle_quantum_number_limit(accepting_pair):
    # The oracle and the oscillator share one limit: 512 answers, 513 is refused.
    values, errors = quadrature_overlap_table(accepting_pair, 2, 512)
    assert values.shape == errors.shape == (3, 513) and np.all(errors < 1e-12)
    assert abs(quadrature_overlap_oracle(512, 0, accepting_pair)) < 1e-14  # the exact S is 1.4e-500
    assert fc_overlap_matrix(accepting_pair, 512, 2).shape == (513, 3)
    for call in (lambda: quadrature_overlap_table(accepting_pair, 2, 513),
                 lambda: quadrature_overlap_table(accepting_pair, 513, 0),
                 lambda: quadrature_overlap_oracle(0, 513, accepting_pair),
                 lambda: quadrature_overlap_with_error(513, 0, accepting_pair),
                 lambda: fc_overlap_matrix(accepting_pair, 513, 2)):
        with pytest.raises(CapabilityError, match="exceeds"):
            call()


@pytest.mark.parametrize("pair", [OscillatorPair(33.0, 359.0, 0.5)] + _seeded_pairs(20264, 2),
                         ids=lambda p: f"{p.energy_initial:.1f}-{p.displacement:.2f}")
@pytest.mark.parametrize("shape", [(2, 512), (1, 30)])
def test_swapped_pair_gives_the_transposed_table(pair, shape):
    # <chi_i_m | chi_f_n> = <chi_f_n | chi_i_m>: the pair (E_f, E_i, -ΔQ) carries the
    # long rows on the other oscillator, so the two tables agree within both errors.
    values, errors = quadrature_overlap_table(pair, *shape)
    swapped = OscillatorPair(pair.energy_final, pair.energy_initial, -pair.displacement)
    other, other_errors = quadrature_overlap_table(swapped, *shape[::-1])
    assert np.all(np.abs(values - other.T) <= errors + other_errors.T)


@pytest.mark.parametrize("pair", _seeded_pairs(20263, 8),
                         ids=lambda p: f"{p.energy_initial:.1f}-{p.displacement:.2f}")
def test_moment_rows_agree_with_the_oracle_entrywise_to_n_512(pair):
    # The rows the rates use, each entry to the limit, beyond which only sum rules
    # checked them.  Some entries near 1.2e-6 carry oracle errors of 1.2-1.4e-14,
    # just short of 1e-8 relative, so the bound on unresolved entries is 2e-6.
    table = quadrature_overlap_table(pair, 1, 512)
    assert _criterion7(fc_overlap_matrix(pair, 1, 512), *table, tiny=2e-6) > 20
