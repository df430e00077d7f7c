"""Multiphonon nonradiative decay and emission kinetics of quantum emitters.

A numerical engine for the single-effective-mode model of multiphonon
nonradiative decay in solid-state emitters: stable Franck-Condon overlaps
between frequency-mismatched displaced harmonic oscillators, T = 0 decay
rates with Gaussian-broadened energy conservation, isotope scaling of
local-mode energies, radiative/nonradiative rate budgets (quantum
efficiency, ZPL fractions, Purcell-enhanced cyclicity), and lifetime
extraction from photon-counting transients.  Ships with a reference
dataset for the silicon T centre isotopic variants.

``import multiphonon`` loads no submodule.  Each public name is imported
from its submodule on first access (PEP 562), so numpy loads only once a
name that needs it is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> owning submodule, by submodule.
_EXPORTS = {
    "constants": ("CONSTANTS", "PhysicalConstants"),
    "errors": (
        "AccuracyError",
        "CapabilityError",
        "ConfigSyntaxError",
        "ConfigValidationError",
        "DegeneracyError",
        "DomainError",
        "FitError",
        "FitPreconditionError",
        "InfeasibleKineticsError",
        "ModeLookupError",
        "MultiphononError",
    ),
    "oscillator": (
        "MAX_CERTIFIED_N",
        "OscillatorPair",
        "fc_overlap",
        "fc_overlap_matrix",
        "ho_length_scale",
        "huang_rhys_factor",
        "transition_moment",
        "transition_moments",
    ),
    "quadrature": (
        "GridSpec",
        "quadrature_overlap_oracle",
        "quadrature_overlap_table",
        "quadrature_overlap_with_error",
    ),
    "modes": (
        "DefectConfiguration",
        "ReferenceRecord",
        "VibrationalMode",
        "isotope_scale_energy",
        "load_reference_dataset",
        "reduced_mass",
        "reference_records_csv",
    ),
    "rates": (
        "RateResult",
        "RateTerm",
        "SweepPoint",
        "gaussian_delta",
        "isotope_rate_ratio",
        "nonradiative_rate",
        "rate_sweep",
        "sweep_grid",
    ),
    "kinetics": (
        "KineticsResult",
        "cyclicity",
        "infer_radiative_rate",
        "purcell_radiative_efficiency",
        "total_lifetime",
        "zpl_emission_fraction",
    ),
    "transient": (
        "LifetimeFit",
        "TransientHistogram",
        "fit_lifetime",
        "read_histogram_csv",
        "simulate_transient",
        "write_histogram_csv",
    ),
    "config_io": (
        "configurations_config_json",
        "parse_defect_config",
        "serialize_defect_config",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
