import dataclasses
import math

import numpy as np
import pytest

from multiphonon import (
    AccuracyError,
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


def test_agrees_with_analytic_recursion_across_parameter_box():
    energies = (20.0, 33.0, 359.0)
    displacements = (0.0, 0.366, 1.0)
    checked = 0
    for e_i in energies:
        for e_f in energies:
            for dq in displacements:
                pair = OscillatorPair(e_i, e_f, dq)
                analytic = fc_overlap_matrix(pair, 1, 30)
                values, errors = quadrature_overlap_table(pair, 1, 30)
                resolvable = errors <= REL_TOL * np.abs(values)
                deviation = np.abs(analytic - values)
                assert np.all(
                    deviation[resolvable] <= REL_TOL * np.abs(values[resolvable])
                )
                # Unresolvable entries are deep-tail overlaps: both routes
                # must agree they are tiny.
                assert np.all(np.abs(values[~resolvable]) < 1e-6)
                assert np.all(np.abs(analytic[~resolvable]) < 1e-6)
                assert np.all(deviation[~resolvable] <= errors[~resolvable])
                checked += int(np.sum(resolvable))
    assert checked > 1000  # the comparison is not vacuous


def test_general_row_recursion_against_oracle():
    # The matrix form supports arbitrary initial quantum numbers; certify a
    # generic high-row entry against the independent route.
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


def test_halving_step_is_converged(monkeypatch):
    pair = OscillatorPair(33.0, 359.0, 0.5)
    value, error = quadrature_overlap_with_error(1, 7, pair)
    assert error < 1e-12
    monkeypatch.setattr(quadrature, "_POINTS_PER_WAVELENGTH", 40.0)
    denser = quadrature_overlap_oracle(1, 7, pair)
    assert denser == pytest.approx(value, abs=10 * max(error, 1e-15))


def test_scalar_float64_oracle_is_the_table_entry():
    # One float64 path: the scalar oracle is the [m, n] entry of the table
    # built on the same grid (sized for max(m, n)), bit for bit.
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
    # The bulk table is float64 on the fixed grid: it takes no GridSpec.
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
    with pytest.raises(DomainError):
        quadrature_overlap_oracle(0, 31, accepting_pair)
