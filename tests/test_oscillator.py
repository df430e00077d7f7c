import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphonon import (
    CONSTANTS,
    CapabilityError,
    DomainError,
    OscillatorPair,
    fc_overlap,
    fc_overlap_matrix,
    ho_length_scale,
    huang_rhys_factor,
    load_reference_dataset,
    nonradiative_rate,
    rate_sweep,
    transition_moment,
    transition_moments,
)
from multiphonon import oscillator
from multiphonon.oscillator import MAX_CERTIFIED_N, _moment_rows
from references import mpmath_overlap_table

HSQ = CONSTANTS.hbar_sq_mev_amu_a2

# sqrt(HSQ / (2 E)) evaluated by 30-digit arithmetic.
LENGTH_33 = 0.251665942784
LENGTH_359 = 0.0763016963527
# Huang-Rhys factor of the accepting mode, 33.0 meV with dQ = 0.734.
S_ACCEPTING = 2.12658738383


def _overlap_calls(pair):
    """Every public overlap and moment function on *pair*."""
    return (lambda: fc_overlap(0, 3, pair), lambda: fc_overlap(1, 3, pair),
            lambda: fc_overlap_matrix(pair, 2, 3), lambda: transition_moments(pair, 3),
            lambda: transition_moment(3, pair))


class TestHoLengthScale:
    def test_reference_values(self):
        assert ho_length_scale(33.0) == pytest.approx(LENGTH_33, rel=1e-10)
        assert ho_length_scale(359.0) == pytest.approx(LENGTH_359, rel=1e-10)

    def test_quartering_energy_doubles_nothing_scaling_law(self):
        for energy in (5.0, 33.0, 359.0):
            assert ho_length_scale(4 * energy) == pytest.approx(
                ho_length_scale(energy) / 2, rel=1e-14
            )

    def test_strictly_decreasing_and_vanishing(self):
        energies = np.geomspace(1.0, 1e9, 40)
        lengths = [ho_length_scale(float(e)) for e in energies]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] < 1e-4

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            ho_length_scale(bad)

    def test_overflowing_length_refused_at_its_edge(self):
        # sqrt(ħ²/(2ħΩ)): the quotient overflows between 1.16e-308 and 1.17e-308 meV.
        assert ho_length_scale(1.17e-308) == pytest.approx(1.33656e154, rel=1e-5)
        for energy in (1.16e-308, 1e-310, 5e-324):
            with pytest.raises(CapabilityError, match="not finite"):
                ho_length_scale(energy)


class TestHuangRhysFactor:
    def test_overflowing_factor_refused_at_its_edge(self):
        # At ħΩ_f = 1e308 meV, S passes the float range between ΔQ = 3.876 and 3.88;
        # at ħΩ_f = 1e-20 meV and ΔQ = 1e160, S = 1.2e299 though ΔQ² overflows.
        assert huang_rhys_factor(OscillatorPair(33.0, 1e308, 3.876)) == pytest.approx(1.797e308, rel=1e-3)
        assert huang_rhys_factor(OscillatorPair(33.0, 1e-20, 1e160)) == pytest.approx(
            1e-20 / (2.0 * HSQ) * 1e160 * 1e160, rel=1e-15)
        for pair in (OscillatorPair(33.0, 1e308, 3.88), OscillatorPair(33.0, 1e308, 1e10),
                     OscillatorPair(33.0, 33.0, 1e200)):
            with pytest.raises(CapabilityError, match="not finite"):
                huang_rhys_factor(pair)


class TestPairValidation:
    def test_rejects_nonpositive_energies(self):
        with pytest.raises(DomainError):
            OscillatorPair(0.0, 33.0, 0.1)
        with pytest.raises(DomainError):
            OscillatorPair(33.0, -1.0, 0.1)

    def test_rejects_non_finite_displacement(self):
        with pytest.raises(DomainError):
            OscillatorPair(33.0, 33.0, math.inf)


class TestFcOverlap:
    def test_identical_oscillators_are_orthonormal(self):
        pair = OscillatorPair(100.0, 100.0, 0.0)
        table = fc_overlap_matrix(pair, 30, 30)
        assert np.max(np.abs(table - np.eye(31))) < 1e-12

    def test_trivial_cases(self):
        pair = OscillatorPair(33.0, 33.0, 0.0)
        assert fc_overlap(0, 0, pair) == pytest.approx(1.0, abs=1e-14)
        assert fc_overlap(0, 1, pair) == pytest.approx(0.0, abs=1e-14)

    def test_poisson_closed_form_for_equal_frequencies(self, accepting_pair):
        # Independent oracle: |<0|n>|^2 = exp(-S) S^n / n! for equal
        # frequencies, with S the Huang-Rhys factor.
        s_factor = huang_rhys_factor(accepting_pair)
        assert s_factor == pytest.approx(S_ACCEPTING, rel=1e-10)
        for n in range(0, 21):
            expected = math.exp(-s_factor) * s_factor**n / math.factorial(n)
            assert fc_overlap(0, n, accepting_pair) ** 2 == pytest.approx(
                expected, rel=1e-10, abs=1e-300
            )

    def test_poisson_zero_zero_value(self, accepting_pair):
        assert fc_overlap(0, 0, accepting_pair) ** 2 == pytest.approx(
            0.119243532698, rel=1e-10
        )

    def test_magnitude_bounded_by_one(self):
        for e_i in (20.0, 100.0, 400.0):
            for e_f in (20.0, 100.0, 400.0):
                for dq in (0.0, 0.3, 1.0):
                    table = fc_overlap_matrix(OscillatorPair(e_i, e_f, dq), 1, 64)
                    assert np.max(np.abs(table)) <= 1.0 + 1e-12

    @given(
        m=st.integers(0, 1),
        n=st.integers(0, 40),
        e_i=st.floats(20.0, 400.0),
        e_f=st.floats(20.0, 400.0),
        dq=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity(self, m, n, e_i, e_f, dq):
        plus = fc_overlap(m, n, OscillatorPair(e_i, e_f, dq))
        minus = fc_overlap(m, n, OscillatorPair(e_i, e_f, -dq))
        assert plus == (-1.0) ** (m + n) * minus  # exact, including signs
        assert plus**2 == minus**2

    def test_completeness_for_moderate_huang_rhys(self):
        # Sum over a complete final basis is 1; S <= 5 keeps n = 256 ample.
        cases = [
            OscillatorPair(33.0, 33.0, 0.734),
            OscillatorPair(33.0, 33.0, 1.125),  # S ~ 5
            OscillatorPair(358.0, 359.0, 0.001),
            OscillatorPair(262.0, 263.0, 0.002),
            OscillatorPair(50.0, 120.0, 0.4),
        ]
        for pair in cases:
            row = fc_overlap_matrix(pair, 0, 256)[0]
            assert np.sum(row**2) == pytest.approx(1.0, abs=1e-10)

    def test_refuses_beyond_certified_range(self, accepting_pair):
        with pytest.raises(CapabilityError):
            fc_overlap(0, 513, accepting_pair)
        # ... but serves the full certified range.
        assert math.isfinite(fc_overlap(0, 512, accepting_pair))

    def test_rows_m_at_least_2_are_the_table_entries(self, accepting_pair):
        # One limit for m and n: rows m >= 2 are the matrix's, and m = 513 is refused.
        assert fc_overlap(2, 3, accepting_pair) == fc_overlap_matrix(accepting_pair, 2, 3)[2, 3]
        with pytest.raises(CapabilityError):
            fc_overlap(513, 0, accepting_pair)

    def test_rejects_bad_quantum_numbers(self, accepting_pair):
        with pytest.raises(DomainError):
            fc_overlap(-1, 0, accepting_pair)
        with pytest.raises(DomainError):
            fc_overlap(0, -1, accepting_pair)

    @pytest.mark.parametrize("pair", [
        OscillatorPair(33.0, 33.0, 1e308),  # 2ΔQ overflows
    ])
    def test_non_finite_overlaps_refused(self, pair):
        for call in _overlap_calls(pair):
            with pytest.raises(CapabilityError, match="not finite in double precision"):
                call()

    @pytest.mark.parametrize("displacement", [18.946, 19.0, 40.0])
    def test_subnormal_or_zero_s00_refused(self, displacement):
        # S₀₀ = exp(-A ΔQ²/4) for equal frequencies: subnormal from ΔQ ≈ 18.946
        # (2.15e-308), exactly 0 at 40, where every entry would be a zero.
        pair = OscillatorPair(33.0, 33.0, displacement)
        for call in _overlap_calls(pair):
            with pytest.raises(CapabilityError, match="underflow double precision"):
                call()

    def test_just_normal_s00_answers(self):
        pair = OscillatorPair(33.0, 33.0, 18.945)
        table = fc_overlap_matrix(pair, 1, 3)
        assert sys.float_info.min <= table[0, 0] < 1.1 * sys.float_info.min
        assert np.isfinite(table).all() and fc_overlap(0, 0, pair) == table[0, 0]
        length = ho_length_scale(33.0)
        assert np.array_equal(transition_moments(pair, 3), length * table[1])
        assert transition_moment(3, pair) == length * table[1, 3]

    @pytest.mark.parametrize("args", [
        (1e-310, 33.0, 0.7), (1e-320, 33.0, 0.7),
        # A_i = E/ħ² underflows to 0, and with both, A_i + A_f: S₀₀ was 0/0 and the
        # recurrence raised a bare ZeroDivisionError.
        (5e-324, 33.0, 0.7), (33.0, 5e-324, 0.7), (5e-324, 5e-324, 0.0),
    ], ids=["1e-310", "1e-320", "initial-5e-324", "final-5e-324", "both-5e-324"])
    def test_subnormal_exponent_product_refused(self, args):
        # A_i·A_f is subnormal inside e; unrefused, S₀₀ was off by 2.2e-14
        # relative at 1e-310 and by 9.3e-5 at 1e-320.  One check refuses the
        # pair before any table or moment divides by A_i + A_f.
        pair = OscillatorPair(*args)
        for call in _overlap_calls(pair) + (lambda: fc_overlap_matrix(pair, 1, 1),):
            with pytest.raises(CapabilityError, match="underflow double precision: A_i·A_f"):
                call()

    def test_normal_exponent_product_answers(self):
        # S₀₀ = sqrt(e/2) exp(b d / 2e), by 50-digit arithmetic.
        pair = OscillatorPair(1e-300, 33.0, 0.7)
        exact = mpmath_overlap_table(pair, 0, 0, 50)[0][0]
        assert abs(fc_overlap(0, 0, pair) - exact) <= 1e-15 * exact


class TestTransitionMoment:
    def test_selection_rule_for_identical_oscillators(self):
        pair = OscillatorPair(33.0, 33.0, 0.0)
        assert transition_moment(1, pair) == pytest.approx(ho_length_scale(33.0), rel=1e-14)
        for n in (0, 2, 3, 7):
            assert transition_moment(n, pair) == 0.0

    def test_ch_stretch_first_moment(self, ch_stretch_pair):
        # dQ = 0.001 and a 1 meV frequency mismatch perturb M_1 from the
        # rigid-oscillator value sqrt(hbar/(2 Omega_e)) by well under 1%.
        moment = transition_moment(1, ch_stretch_pair)
        assert moment == pytest.approx(ho_length_scale(358.0), rel=1e-2)
        assert moment == pytest.approx(0.0764, rel=2e-3)

    def test_sum_rule_table_parameters(self, natural, deuterium):
        for config in (natural, deuterium):
            for mode in config.modes:
                pair = OscillatorPair(mode.energy_excited, mode.energy_ground, mode.displacement)
                moments = transition_moments(pair, 256)
                expected = HSQ / (2.0 * mode.energy_excited)
                assert np.sum(moments**2) == pytest.approx(expected, rel=1e-8)

    def test_sum_rule_generic_pairs(self):
        # A wide initial state needs ~ (A_final/A_initial) * (2n+1) narrow
        # basis states, so the 20x-mismatched pair is summed to the full
        # certified depth.
        for e_i, e_f, dq, n_top in [
            (400.0, 20.0, 0.5, 256),
            (20.0, 400.0, 1.0, 512),
            (97.0, 31.0, 0.8, 256),
        ]:
            pair = OscillatorPair(e_i, e_f, dq)
            moments = transition_moments(pair, n_top)
            assert np.sum(moments**2) == pytest.approx(HSQ / (2 * e_i), rel=1e-8)

    def test_squared_moments_invariant_under_displacement_sign(self, accepting_pair):
        flipped = OscillatorPair(
            accepting_pair.energy_initial,
            accepting_pair.energy_final,
            -accepting_pair.displacement,
        )
        for n in range(0, 12):
            assert transition_moment(n, accepting_pair) ** 2 == transition_moment(n, flipped) ** 2


# A pair at the float extremes, with what fc_overlap_matrix(pair, 1, n) says after "the
# overlaps of <pair>" and what nonradiative_rate says with it as the accepting mode; None
# where both answer.  ħΩ at 5e-324, 1e-310 and 1e308 on each side, ΔQ at ±0 and ±1e308,
# and equal energies, where c = −0.0.
_UNDERFLOW = "underflow double precision: A_i·A_f = {} must reach 2.2250738585072014e-308"
_NOT_FINITE = "are not finite in double precision"
_RATE_NOT_FINITE = "the rate through mode 'accepting' is not finite in double precision (got nan s⁻¹)"
_CUT_OFF = f"quantum number inf exceeds the certified recursion range (n <= {MAX_CERTIFIED_N})"
FLOAT_EXTREMES = [
    ((5e-324, 33.0, 0.734), _UNDERFLOW.format(0.0), _RATE_NOT_FINITE),
    ((33.0, 5e-324, 0.734), _UNDERFLOW.format(0.0), _CUT_OFF),
    ((1e-310, 33.0, 0.734), _UNDERFLOW.format(1.88854908894314e-310), _RATE_NOT_FINITE),
    ((33.0, 1e-310, 0.734), _UNDERFLOW.format(1.88854908894314e-310), _CUT_OFF),
    ((1e308, 33.0, 0.734), _NOT_FINITE, _CUT_OFF),
    ((33.0, 1e308, 0.734), _NOT_FINITE, _RATE_NOT_FINITE),
    ((33.0, 41.0, 0.0), None, None),
    ((33.0, 41.0, -0.0), None, None),
    ((33.0, 41.0, 1e308), _NOT_FINITE, _RATE_NOT_FINITE),
    ((33.0, 41.0, -1e308), _NOT_FINITE, _RATE_NOT_FINITE),
    ((33.0, 33.0, 0.734), None, None),
]


class TestBatchedMomentRows:
    """The batched m <= 1 rows against the scalar table, bit for bit."""

    @staticmethod
    def _pairs(seed, count):
        # Seeded pairs across the certification domain: ħΩ 20-400 meV, ΔQ 0-1.
        rng = np.random.default_rng(seed)
        energies = rng.uniform(20.0, 400.0, size=(2, count))
        return energies[0], energies[1], rng.uniform(0.0, 1.0, size=count)

    def test_batched_columns_equal_scalar_table_to_n_512(self):
        e_i, e_f, dq = self._pairs(7, 48)
        s0, s1 = _moment_rows(e_i, e_f, dq, MAX_CERTIFIED_N)
        assert s0.shape == s1.shape == (MAX_CERTIFIED_N + 1, 48)
        for g in range(48):
            pair = OscillatorPair(float(e_i[g]), float(e_f[g]), float(dq[g]))
            table = fc_overlap_matrix(pair, 1, MAX_CERTIFIED_N)
            assert np.array_equal(table[0], s0[:, g])
            assert np.array_equal(table[1], s1[:, g])

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 34, MAX_CERTIFIED_N])
    def test_single_pair_equals_scalar_table(self, n_max):
        e_i, e_f, dq = self._pairs(n_max, 12)
        for g in range(12):
            pair = OscillatorPair(float(e_i[g]), float(e_f[g]), float(dq[g]))
            s0, s1 = _moment_rows(e_i[g : g + 1], e_f[g], dq[g], n_max)
            table = fc_overlap_matrix(pair, 1, n_max)
            assert np.array_equal(table, np.stack([s0[:, 0], s1[:, 0]]))

    def test_shared_energies_broadcast_against_displacements(self):
        dq = np.linspace(-1.0, 1.0, 9)
        s0, s1 = _moment_rows(np.array([33.0]), 41.0, dq, 40)
        for g, value in enumerate(dq):
            table = fc_overlap_matrix(OscillatorPair(33.0, 41.0, float(value)), 1, 40)
            assert np.array_equal(table, np.stack([s0[:, g], s1[:, g]]))

    def test_prefix_does_not_depend_on_n_max(self):
        e_i, e_f, dq = self._pairs(3, 5)
        long0, long1 = _moment_rows(e_i, e_f, dq, 300)
        short0, short1 = _moment_rows(e_i, e_f, dq, 17)
        assert np.array_equal(long0[:18], short0) and np.array_equal(long1[:18], short1)

    def test_transition_moments_use_the_scalar_table_values(self, accepting_pair):
        table = fc_overlap_matrix(accepting_pair, 1, 64)
        length = ho_length_scale(accepting_pair.energy_initial)
        assert np.array_equal(transition_moments(accepting_pair, 64), length * table[1])

    @given(
        energies=st.lists(st.floats(-3.0, 4.0).map(lambda x: 10.0**x), min_size=6, max_size=6),
        displacements=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
        n_max=st.integers(0, MAX_CERTIFIED_N),
        g=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_lone_pair_equals_its_column_in_a_batch(self, energies, displacements, n_max, g):
        # One pair runs its n-recurrence on Python floats, which raise no
        # numpy RuntimeWarning, so the values alone must show that both
        # paths agree: compared as bytes, NaN and inf positions included.
        e_i, e_f, dq = np.array(energies[:3]), np.array(energies[3:]), np.array(displacements)
        with np.errstate(all="ignore"):
            batch = _moment_rows(e_i, e_f, dq, n_max)
            lone = _moment_rows(float(e_i[g]), float(e_f[g]), float(dq[g]), n_max)
        for rows, row in zip(batch, lone):
            assert row.shape == (n_max + 1, 1)
            assert rows[:, g].tobytes() == row[:, 0].tobytes()

    @pytest.mark.parametrize("n_max", [0, 1, 2, MAX_CERTIFIED_N])
    @pytest.mark.parametrize("case", [case for case, _, _ in FLOAT_EXTREMES], ids=str)
    def test_lone_pair_at_a_float_extreme_equals_its_column_in_a_batch(self, case, n_max):
        # One pair runs on Python floats unless A_i·A_f = 0, where Python's
        # ZeroDivisionError would replace numpy's inf or NaN: as bytes, both
        # routes must give the batch's column, signed zeros, NaN and inf included.
        batch = np.array([(33.0, 41.0, 0.734), case, (263.0, 262.0, 0.002)]).T
        with np.errstate(all="ignore"):
            rows = _moment_rows(*batch, n_max)
            lone = _moment_rows(*case, n_max)
        for column, row in zip(rows, lone):
            assert row.shape == (n_max + 1, 1)
            assert column[:, 1].tobytes() == row[:, 0].tobytes()

    @pytest.mark.parametrize("case, table_error, rate_error", FLOAT_EXTREMES,
                             ids=[str(case) for case, _, _ in FLOAT_EXTREMES])
    def test_float_extremes_are_refused_with_their_type_and_message(self, case, table_error, rate_error):
        pair = OscillatorPair(*case)
        for n_max in (0, 1, 2, MAX_CERTIFIED_N):
            if table_error is None:
                assert np.isfinite(fc_overlap_matrix(pair, 1, n_max)).all()
            else:
                with pytest.raises(CapabilityError) as refused:
                    fc_overlap_matrix(pair, 1, n_max)
                assert str(refused.value) == f"the overlaps of {pair} {table_error}"
        _, (natural, _) = load_reference_dataset()
        mode = replace(natural.mode("accepting"), energy_excited=case[0], energy_ground=case[1],
                       displacement=case[2])
        config = natural.with_mode(mode)
        rows = rate_sweep(config, "accepting", "coupling", [mode.coupling, 0.5 * mode.coupling])
        if rate_error is None:
            assert rows[0].rate == nonradiative_rate(config, "accepting").total_rate
        else:
            with pytest.raises(CapabilityError) as refused:
                nonradiative_rate(config, "accepting")
            assert str(refused.value) == rate_error
            assert [row.error for row in rows] == [rate_error, rate_error]

    def test_refuses_beyond_certified_range(self):
        # _moment_rows takes a checked n_max; its public route checks it.
        pair = OscillatorPair(33.0, 33.0, 0.7)
        with pytest.raises(CapabilityError):
            transition_moments(pair, MAX_CERTIFIED_N + 1)
        with pytest.raises(DomainError):
            transition_moments(pair, -1)


class TestCoefficientTables:
    """The import-time sqrt tables that both overlap recurrences slice."""

    TABLES = ("_SQRT_N", "_SQRT_2N", "_SQRT_BACK", "_SQRT_2_OVER_N")

    def test_every_prefix_equals_the_expression_it_replaces(self):
        for n_max in range(MAX_CERTIFIED_N + 1):
            n = np.arange(1.0, n_max + 1.0)
            expected = (np.sqrt(n), np.sqrt(2.0 * n), np.sqrt((n - 1.0) / n), np.sqrt(2.0 / n))
            for name, values in zip(self.TABLES, expected):
                assert np.array_equal(getattr(oscillator, name)[:n_max].view(np.int64), values.view(np.int64))
            back = np.array(oscillator._SQRT_BACK_TUPLE[:n_max], dtype=float)
            assert np.array_equal(back.view(np.int64), expected[2].view(np.int64))
        assert len(oscillator._SQRT_BACK_TUPLE) == MAX_CERTIFIED_N

    @pytest.mark.parametrize("name", TABLES)
    def test_tables_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(oscillator, name)[0] = 1.0
