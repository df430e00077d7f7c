import json
import math
import warnings

import mpmath
import pytest

from multiphonon import (
    CapabilityError,
    DomainError,
    ModeLookupError,
    VibrationalMode,
    configurations_config_json,
    isotope_scale_energy,
    load_reference_dataset,
    parse_defect_config,
    reduced_mass,
    reference_records_csv,
)
from multiphonon.modes import MASS_C12, MASS_H1, MASS_H2

# Independent arithmetic (30-digit) on the embedded atomic masses.
MU_CH = 0.929744623046
MU_CD = 1.72463447528


class TestReducedMass:
    def test_symmetric_and_halving(self):
        assert reduced_mass(7.25, 7.25) == pytest.approx(7.25 / 2, rel=1e-15)
        assert reduced_mass(3.0, 11.0) == reduced_mass(11.0, 3.0)

    def test_reference_values(self):
        assert reduced_mass(MASS_C12, MASS_H1) == pytest.approx(MU_CH, rel=1e-10)
        assert reduced_mass(MASS_C12, MASS_H2) == pytest.approx(MU_CD, rel=1e-10)

    def test_below_both_masses(self):
        for a, b in [(1.0, 1.0), (0.5, 100.0), (12.0, 13.00335)]:
            assert reduced_mass(a, b) < min(a, b)

    def test_product_past_the_float_range(self):
        # a·b overflows where the reduced mass itself fits in a double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reduced_mass(2.0, 1.7e308) == reduced_mass(1.7e308, 2.0) == 2.0
            assert reduced_mass(1.7e308, 1.7e308) == 8.5e307
            for a, b in [(3e200, 7e150), (1.7976931348623157e308, 1.5)]:
                exact = mpmath.mpf(a) * b / (mpmath.mpf(a) + b)
                assert reduced_mass(a, b) == pytest.approx(float(exact), rel=4e-16)
                assert reduced_mass(a, b) == reduced_mass(b, a)

    def test_product_underflowing_to_zero(self):
        # a·b = 1e-400 underflows to 0.0 where the reduced mass itself is normal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reduced_mass(1e-200, 1e-200) == 1e-200 / 2

    def test_product_underflowing_to_a_subnormal(self):
        # a·b = 1e-320 keeps only 10 of its 53 bits.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reduced_mass(1e-160, 1e-160) == 1e-160 / 2
            assert reduced_mass(1e-160, 3e-160) == pytest.approx(7.5e-161, rel=4e-16, abs=0.0)

    def test_reduced_mass_below_the_subnormals_is_refused(self):
        # 5e-324·5e-324/1e-323 = 2.5e-324 is a tie that rounds to even, 0.0; 5e-324 and
        # 1e-323 give 3.3e-324, which rounds up to 5e-324.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match="^the reduced mass of 5e-324 and 5e-324 underflows"):
                reduced_mass(5e-324, 5e-324)
            assert reduced_mass(5e-324, 1e-323) == reduced_mass(1e-323, 5e-324) == 5e-324

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reduced_mass(0.0, 1.0)
        with pytest.raises(DomainError):
            reduced_mass(1.0, -2.0)


class TestIsotopeScaleEnergy:
    def test_identity_and_reference_shift(self):
        assert isotope_scale_energy(359.0, 1.3, 1.3) == 359.0
        scaled = isotope_scale_energy(359.0, reduced_mass(MASS_C12, MASS_H1),
                                      reduced_mass(MASS_C12, MASS_H2))
        assert scaled == pytest.approx(263.589286546, rel=1e-10)
        # within half a percent of the tabulated deuterium mode energy
        assert abs(scaled - 263.0) / 263.0 < 5e-3

    def test_composition_is_transitive(self):
        one = isotope_scale_energy(100.0, 1.0, 1.7)
        two = isotope_scale_energy(one, 1.7, 2.9)
        direct = isotope_scale_energy(100.0, 1.0, 2.9)
        assert two == pytest.approx(direct, rel=1e-12)

    def test_monotone_and_homogeneous(self):
        assert isotope_scale_energy(100.0, 1.0, 2.0) < isotope_scale_energy(100.0, 1.0, 1.5)
        assert isotope_scale_energy(250.0, 1.1, 1.9) == pytest.approx(
            2.5 * isotope_scale_energy(100.0, 1.1, 1.9), rel=1e-14
        )

    def test_ratio_past_the_float_range(self):
        # mu_old/mu_new overflows where E_new itself fits in a double: 5e-324 is 2^-1074,
        # so E_new = sqrt(1e-12)·2^-537, rounded once.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isotope_scale_energy(5e-324, 1e-12, 5e-324) == math.ldexp(math.sqrt(1e-12), -537)
            for args in [(5e-324, 1.7e308, 5e-324), (1e-8, 1.7e308, 5e-324), (3.0, 1e300, 1e-300)]:
                energy, mu_old, mu_new = map(mpmath.mpf, args)
                exact = float(energy * mpmath.sqrt(mu_old / mu_new))
                assert isotope_scale_energy(*args) == pytest.approx(exact, rel=4e-16, abs=0.0)

    def test_ratio_underflowing_to_zero(self):
        # mu_old/mu_new = 5e-324/1.7e308 is 0.0 where E_new = 2.9e-8 is normal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = mpmath.mpf(1.7e308) * mpmath.sqrt(mpmath.mpf(5e-324) / mpmath.mpf(1.7e308))
            assert isotope_scale_energy(1.7e308, 5e-324, 1.7e308) == pytest.approx(
                float(exact), rel=4e-16, abs=0.0)

    def test_subnormal_ratio(self):
        # mu_old/mu_new = 1e-310 is subnormal and short of bits: E_new came out 7 ulp low.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = mpmath.sqrt(mpmath.mpf(1e-300) / mpmath.mpf(1e10))
            assert isotope_scale_energy(1.0, 1e-300, 1e10) == pytest.approx(float(exact), rel=4e-16,
                                                                           abs=0.0)

    def test_energy_past_the_float_range_is_refused(self):
        for args in [(1.7e308, 4.0, 1.0), (1e300, 1e20, 1e-20)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CapabilityError, match="^the scaled energy is not finite"):
                    isotope_scale_energy(*args)

    def test_energy_below_the_subnormals_is_refused(self):
        # E_new = 5e-324·sqrt(5e-324/1.7e308) is about 1.2e-478 (through the mantissas), and
        # 5e-324·sqrt(1e-300) about 5e-474 (through the plain product): both were 0.0.
        for args in [(5e-324, 5e-324, 1.7e308), (5e-324, 1e-300, 1.0)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CapabilityError, match="^the scaled energy of 5e-324 meV underflows"):
                    isotope_scale_energy(*args)
        assert isotope_scale_energy(5e-324, 1.0, 1.0) == 5e-324

    def test_domain_errors(self):
        for args in [(0.0, 1.0, 1.0), (10.0, 0.0, 1.0), (10.0, 1.0, math.nan)]:
            with pytest.raises(DomainError):
                isotope_scale_energy(*args)


class TestReferenceDataset:
    def test_record_values(self, dataset):
        records, _ = dataset
        by_label = {record.variant_label: record for record in records}
        assert by_label["deuterium"].lifetime_us == 4.807
        assert by_label["deuterium"].lifetime_err_us == 0.018
        assert by_label["weak-13c"].zpl_shift_uev == -3.47
        assert by_label["strong-13c"].zpl_shift_uev == 78.04
        assert by_label["natural"].zpl_shift_uev == 0.0
        assert by_label["natural"].lifetime_us == 0.885
        assert by_label["double-13c"].structure == (13, 13, 1)
        assert by_label["strong-13c"].structure == (13, 12, 1)

    def test_configuration_values(self, natural, deuterium):
        assert natural.zpl_energy == 935.0
        assert natural.mode("ch-stretch").energy_ground == 359.0
        assert natural.mode("ch-stretch").energy_excited == 358.0
        assert natural.mode("ch-stretch").coupling == 0.58
        assert natural.mode("accepting").displacement == 0.734
        assert deuterium.mode("ch-stretch").energy_ground == 263.0
        assert deuterium.mode("ch-stretch").displacement == 0.002
        assert deuterium.mode("ch-stretch").coupling == 0.70
        assert deuterium.mode("accepting") == natural.mode("accepting")

    def test_csv_reproduces_source_decimals(self):
        text = reference_records_csv()
        for token in ("0.885", "0.004", "0.904", "0.921", "0.929", "0.001",
                      "4.807", "0.018", "+78.04", "-3.47", "+75.28", "+745"):
            assert token in text
        lines = text.strip().split("\n")
        assert len(lines) == 6  # header + five records

    def test_config_json_reproduces_source_decimals(self):
        text = configurations_config_json()
        for token in ('"zpl_energy_mev": 935', '"hbar_omega_g_mev": 359',
                      '"hbar_omega_e_mev": 358', '"hbar_omega_g_mev": 263',
                      '"hbar_omega_e_mev": 262', '"delta_q": 0.734',
                      '"delta_q": 0.001', '"delta_q": 0.002',
                      '"w_eg": 9.23', '"w_eg": 0.58', '"w_eg": 0.70',
                      '"hbar_omega_g_mev": 33.0'):
            assert token in text

    def test_config_json_round_trips_to_dataset(self, natural, deuterium):
        documents = json.loads(configurations_config_json())
        parsed = [parse_defect_config(json.dumps(doc)) for doc in documents]
        assert parsed[0] == natural
        assert parsed[1] == deuterium

    def test_dataset_is_fresh_per_call(self):
        first = load_reference_dataset()
        second = load_reference_dataset()
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestTypes:
    def test_mode_validation(self):
        with pytest.raises(DomainError):
            VibrationalMode("m", -1.0, 33.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            VibrationalMode("m", 33.0, 33.0, 0.0, -1.0)
        with pytest.raises(DomainError):
            VibrationalMode("m", 33.0, 33.0, math.inf, 1.0)
        with pytest.raises(DomainError):
            VibrationalMode("", 33.0, 33.0, 0.0, 1.0)

    @pytest.mark.parametrize("label", ["", 5, None, True, b"ch"])
    def test_labels_must_be_non_empty_strings(self, natural, label):
        from multiphonon import DefectConfiguration

        with pytest.raises(DomainError, match="label must be a non-empty string"):
            VibrationalMode(label, 33.0, 33.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="variant_label must be a non-empty string"):
            DefectConfiguration(label, 935.0, natural.modes)

    def test_modes_must_be_vibrational_modes(self, natural):
        from multiphonon import DefectConfiguration

        with pytest.raises(DomainError, match="VibrationalMode"):
            DefectConfiguration("x", 935.0, (natural.modes[0], "ch-stretch"))

    def test_configuration_needs_a_mode(self):
        from multiphonon import DefectConfiguration

        with pytest.raises(DomainError, match="needs at least one vibrational mode"):
            DefectConfiguration("x", 935.0, ())

    def test_missing_mode_lookup(self, natural):
        with pytest.raises(ModeLookupError):
            natural.mode("breathing")

    def test_duplicate_mode_labels_rejected(self, natural):
        from multiphonon import DefectConfiguration

        mode = natural.mode("accepting")
        with pytest.raises(DomainError):
            DefectConfiguration("x", 935.0, (mode, mode))
