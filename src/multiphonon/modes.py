"""Defect configurations, vibrational modes, and the reference dataset.

The embedded dataset describes the silicon T centre: measured zero-phonon
line shifts and excited-state lifetimes for five isotopic variants, and
the computed single-mode parameters (displacement, ground/excited phonon
energies, electron-phonon coupling) for the natural and deuterium variants.
The tables themselves live in ``_tables``, free of ``dataclasses``, as
the original decimal strings so exports reproduce them digit for digit.
"""

import contextlib
import math
import sys
from dataclasses import dataclass, field, replace

from ._tables import _BOUNDS, _MODE_ROWS, _RECORD_ROWS, _ZPL_ENERGY_MEV
from ._tables import reference_records_csv  # noqa: F401  (re-exported)
from .errors import CapabilityError, DomainError, ModeLookupError, _finite_result, _label, _number

# Atomic masses in amu, rounded at 1e-5 from the AME2020 atomic mass
# evaluation (12C is exact by definition of the amu).
MASS_H1 = 1.00783
MASS_H2 = 2.01410
MASS_C12 = 12.0
MASS_C13 = 13.00335


def _store_numbers(instance):
    """Validate a dataclass's numeric fields by _BOUNDS and store them as floats."""
    for name, bound in _BOUNDS.items():
        if name in instance.__dataclass_fields__:
            object.__setattr__(instance, name, _number(getattr(instance, name), name, **bound))


@dataclass(frozen=True)
class VibrationalMode:
    """One effective vibrational mode of a defect transition.

    Attributes
    ----------
    label : str
        Mode name, e.g. ``"accepting"`` or ``"ch-stretch"``.
    energy_ground : float
        ħΩ_g in meV (final state of the emission transition).
    energy_excited : float
        ħΩ_e in meV (initial state).
    displacement : float
        Mass-weighted equilibrium offset ΔQ in amu^(1/2)·Å.
    coupling : float
        Electron-phonon coupling W in meV/(amu^(1/2)·Å).
    """

    label: str
    energy_ground: float
    energy_excited: float
    displacement: float
    coupling: float

    def __post_init__(self):
        _label(self.label, "label")
        _store_numbers(self)


@dataclass(frozen=True)
class DefectConfiguration:
    """ZPL energy plus the vibrational modes of one isotopic variant."""

    variant_label: str
    zpl_energy: float
    modes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _label(self.variant_label, "variant_label")
        _store_numbers(self)
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise DomainError("a configuration needs at least one vibrational mode")
        if not all(isinstance(mode, VibrationalMode) for mode in self.modes):
            raise DomainError("modes must be VibrationalMode instances")
        labels = [mode.label for mode in self.modes]
        if len(set(labels)) != len(labels):
            raise DomainError(f"mode labels must be unique, got {labels}")

    def mode(self, label):
        """Return the mode named *label* or raise :class:`ModeLookupError`."""
        for mode in self.modes:
            if mode.label == label:
                return mode
        raise ModeLookupError(
            f"no mode {label!r} in variant {self.variant_label!r}; "
            f"available: {[m.label for m in self.modes]}"
        )

    def with_mode(self, new_mode):
        """Copy of the configuration with the same-labelled mode replaced."""
        self.mode(new_mode.label)
        modes = tuple(new_mode if m.label == new_mode.label else m for m in self.modes)
        return replace(self, modes=modes)


@dataclass(frozen=True)
class ReferenceRecord:
    """Measured ZPL shift and lifetime of one isotopic variant.

    ``structure`` is the isotope triple (C_S, C_W, H) as mass numbers.
    """

    variant_label: str
    structure: tuple
    zpl_shift_uev: float
    lifetime_us: float
    lifetime_err_us: float


def reduced_mass(mass_a, mass_b):
    """Reduced mass mass_a·mass_b/(mass_a + mass_b) in amu; symmetric; refused if it underflows to 0.0."""
    mass_a = _number(mass_a, "mass_a", gt=0.0)
    mass_b = _number(mass_b, "mass_b", gt=0.0)
    product = mass_a * mass_b
    if product < sys.float_info.min:  # a·b underflows and would lose digits
        light, heavy = sorted((mass_a, mass_b))
        if mass := light / (1.0 + light / heavy):  # 0.0 only at 5e-324 twice: 2.5e-324 rounds to even
            return mass
        raise CapabilityError(f"the reduced mass of {mass_a!r} and {mass_b!r} underflows double precision")
    mass = product / (mass_a + mass_b)
    # Where a·b overflows, both masses are > 1, so 4/a and 4/b are normal: no digit is lost.
    return mass if math.isfinite(mass) else 4.0 / (4.0 / mass_a + 4.0 / mass_b)


def isotope_scale_energy(energy, mu_old, mu_new):
    """Rescale a local-mode energy for an isotope substitution.

    Treats the mode as a diatomic oscillator, whose frequency goes as the
    inverse square root of the reduced mass:

        E_new = E_old * sqrt(mu_old / mu_new).

    Composable: scaling mu1 -> mu2 -> mu3 equals scaling mu1 -> mu3.
    :class:`CapabilityError` if E_new overflows double precision or underflows to 0.0.
    """
    energy = _number(energy, "energy", gt=0.0)
    mu_old = _number(mu_old, "mu_old", gt=0.0)
    mu_new = _number(mu_new, "mu_new", gt=0.0)
    ratio = mu_old / mu_new
    scaled = energy * math.sqrt(ratio)
    # The ratio or E_new overflowed, or the ratio underflowed: scale mantissas and exponents apart.
    if math.isinf(scaled) or ratio < sys.float_info.min:
        (m_e, e_e), (m_o, e_o), (m_n, e_n) = map(math.frexp, (energy, mu_old, mu_new))
        half, odd = divmod(e_o - e_n, 2)
        with contextlib.suppress(OverflowError):  # the mantissas give (0.35, 2): E_new overflows
            scaled = math.ldexp(m_e * math.sqrt(math.ldexp(m_o, odd) / m_n), e_e + half)
    if not scaled:  # E_new rounds to 0.0: at most half the smallest subnormal, 2.5e-324
        raise CapabilityError(f"the scaled energy of {energy!r} meV underflows double precision")
    return _finite_result(scaled, "the scaled energy")


def load_reference_dataset():
    """The embedded measurements and model parameters.

    Returns
    -------
    (list of ReferenceRecord, list of DefectConfiguration)
        Five measured records (natural, strong/weak/double 13C, deuterium)
        and the two fully parameterized variants ("natural", "deuterium"),
        each with the "accepting" and "ch-stretch" modes.
    """
    records = [
        ReferenceRecord(
            variant_label=label,
            structure=structure,
            zpl_shift_uev=float(shift) if shift else 0.0,
            lifetime_us=float(lifetime),
            lifetime_err_us=float(err),
        )
        for label, structure, shift, lifetime, err in _RECORD_ROWS
    ]
    configs = [
        DefectConfiguration(
            variant_label=label,
            zpl_energy=float(_ZPL_ENERGY_MEV),
            modes=tuple(
                VibrationalMode(mode_label, *map(float, values))
                for mode_label, *values in _MODE_ROWS[label]
            ),
        )
        for label in ("natural", "deuterium")
    ]
    return records, configs
