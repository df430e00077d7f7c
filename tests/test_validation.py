"""One numeric input contract for every public entry point.

Reals are any finite ``numbers.Real`` (numpy scalars included) and come
back as Python floats; integers are anything ``operator.index`` accepts.
``bool`` is never a number, and every rejection is a ``DomainError``.
"""

import numpy as np
import pytest

from multiphonon import (
    DefectConfiguration,
    DomainError,
    GridSpec,
    OscillatorPair,
    VibrationalMode,
    cyclicity,
    fc_overlap,
    fc_overlap_matrix,
    fit_lifetime,
    gaussian_delta,
    ho_length_scale,
    infer_radiative_rate,
    isotope_scale_energy,
    nonradiative_rate,
    purcell_radiative_efficiency,
    quadrature_overlap_table,
    quadrature_overlap_with_error,
    reduced_mass,
    simulate_transient,
    sweep_grid,
    total_lifetime,
    transition_moment,
    transition_moments,
    zpl_emission_fraction,
)

PAIR = OscillatorPair(33.0, 33.0, 0.734)
HISTOGRAM = simulate_transient(0.885, 1e4, 10.0, 200, 10.0, seed=5)


def _mode(**field):
    values = dict(label="m", energy_ground=33.0, energy_excited=33.0, displacement=0.734,
                  coupling=9.23)
    return VibrationalMode(**dict(values, **field))


def _histogram_view(hist):
    return hist.counts.tolist(), hist.bin_edges.tolist(), hist.metadata


# (id, call with the value under test, a valid value, view of the result)
REALS = [
    ("mode.energy_ground", lambda v: _mode(energy_ground=v), 33.0, None),
    ("mode.energy_excited", lambda v: _mode(energy_excited=v), 33.0, None),
    ("mode.displacement", lambda v: _mode(displacement=v), 0.75, None),
    ("mode.coupling", lambda v: _mode(coupling=v), 9.5, None),
    ("config.zpl_energy", lambda v: DefectConfiguration("x", v, (_mode(),)), 935.0, None),
    ("pair.energy_initial", lambda v: OscillatorPair(v, 33.0, 0.5), 33.0, None),
    ("pair.energy_final", lambda v: OscillatorPair(33.0, v, 0.5), 33.0, None),
    ("pair.displacement", lambda v: OscillatorPair(33.0, 33.0, v), 0.5, None),
    ("ho_length_scale", ho_length_scale, 33.0, None),
    ("reduced_mass", lambda v: reduced_mass(v, 1.00783), 12.0, None),
    ("isotope_scale_energy.energy", lambda v: isotope_scale_energy(v, 1.0, 2.0), 359.0, None),
    ("isotope_scale_energy.mu", lambda v: isotope_scale_energy(359.0, v, 2.0), 0.875, None),
    ("gaussian_delta.detuning", lambda v: gaussian_delta(v, 2.0), 1.5, None),
    ("gaussian_delta.sigma", lambda v: gaussian_delta(1.5, v), 2.0, None),
    ("total_lifetime", lambda v: total_lifetime(v, 1e5), 2e5, None),
    ("infer_radiative_rate.lifetime", lambda v: infer_radiative_rate(v, 4.807e-6, 285.0),
     0.885e-6, None),
    ("infer_radiative_rate.nr_ratio", lambda v: infer_radiative_rate(0.885e-6, 4.807e-6, v),
     285.0, None),
    ("zpl_emission_fraction", lambda v: zpl_emission_fraction(v, 0.23), 0.25, None),
    ("purcell_radiative_efficiency.eta0", lambda v: purcell_radiative_efficiency(v, 10.0),
     0.1875, None),
    ("purcell_radiative_efficiency.purcell",
     lambda v: purcell_radiative_efficiency(0.1875, v), 10.0, None),
    ("cyclicity.eta0", lambda v: cyclicity(v, 1e6), 0.1875, None),
    ("cyclicity.purcell", lambda v: cyclicity(0.1875, v), 1e6, None),
    ("simulate_transient.lifetime", lambda v: simulate_transient(v, 100.0, 1.0, 50, 5.0, 0),
     1.5, _histogram_view),
    ("simulate_transient.amplitude", lambda v: simulate_transient(1.5, v, 1.0, 50, 5.0, 0),
     100.0, _histogram_view),
    ("simulate_transient.background", lambda v: simulate_transient(1.5, 100.0, v, 50, 5.0, 0),
     1.0, _histogram_view),
    ("simulate_transient.t_max", lambda v: simulate_transient(1.5, 100.0, 1.0, 50, v, 0),
     5.0, _histogram_view),
    ("sweep_grid.start", lambda v: sweep_grid(v, 2.0, 5), 1.0, None),
    ("sweep_grid.stop", lambda v: sweep_grid(1.0, v, 5), 2.0, None),
    ("grid_spec.abs_tol", lambda v: GridSpec(abs_tol=v), 0.125, None),
    ("fit_lifetime.fit_window", lambda v: fit_lifetime(HISTOGRAM, fit_window=(v, 9.5)), 0.25,
     None),
]

INTEGERS = [
    ("fc_overlap.m", lambda k: fc_overlap(k, 3, PAIR), 1, None),
    ("fc_overlap.n", lambda k: fc_overlap(1, k, PAIR), 3, None),
    ("fc_overlap_matrix.m_max", lambda k: fc_overlap_matrix(PAIR, k, 3), 2, np.ndarray.tolist),
    ("fc_overlap_matrix.n_max", lambda k: fc_overlap_matrix(PAIR, 2, k), 3, np.ndarray.tolist),
    ("transition_moment", lambda k: transition_moment(k, PAIR), 3, None),
    ("transition_moments", lambda k: transition_moments(PAIR, k), 3, np.ndarray.tolist),
    ("quadrature_overlap_table", lambda k: quadrature_overlap_table(PAIR, 1, k)[0], 3,
     np.ndarray.tolist),
    ("quadrature_overlap_with_error", lambda k: quadrature_overlap_with_error(1, k, PAIR), 3,
     None),
    ("simulate_transient.n_bins", lambda k: simulate_transient(1.5, 100.0, 1.0, k, 5.0, 0), 50,
     _histogram_view),
    ("sweep_grid.steps", lambda k: sweep_grid(1.0, 2.0, k), 5, None),
    ("grid_spec.dps", lambda k: GridSpec(dps=k), 20, None),
]

CASES = [pytest.param(call, value, view, np.float32, float, id=name)
         for name, call, value, view in REALS]
CASES += [pytest.param(call, value, view, np.int64, int, id=name)
          for name, call, value, view in INTEGERS]


def _same(one, two, view):
    if view is not None:
        one, two = view(one), view(two)
    return type(one) is type(two) and one == two


@pytest.mark.parametrize("call,value,view,numpy_type,python_type", CASES)
def test_numpy_scalars_give_the_python_number_result(call, value, view, numpy_type,
                                                     python_type):
    value = numpy_type(value)
    assert _same(call(value), call(python_type(value)), view)


@pytest.mark.parametrize("call,value,view,numpy_type,python_type", CASES)
@pytest.mark.parametrize("bad", [True, False, "x"])
def test_bool_and_non_numbers_are_domain_errors(call, value, view, numpy_type, python_type,
                                                bad):
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize(
    "build,fields",
    [
        (lambda v: _mode(energy_ground=v, energy_excited=v, displacement=v, coupling=v),
         ("energy_ground", "energy_excited", "displacement", "coupling")),
        (lambda v: DefectConfiguration("x", v, (_mode(),)), ("zpl_energy",)),
        (lambda v: OscillatorPair(v, v, v), ("energy_initial", "energy_final", "displacement")),
        (lambda v: GridSpec(abs_tol=v), ("abs_tol",)),
    ],
)
@pytest.mark.parametrize("value", [np.float32(33.0), np.int64(33), 33])
def test_constructors_store_python_floats(build, fields, value):
    built = build(value)
    assert all(type(getattr(built, field)) is float for field in fields)


def test_float32_config_rate_equals_the_float_one(natural):
    accepting = natural.mode("accepting")
    stretch = VibrationalMode("ch-stretch", np.float32(359.0), np.float32(358.0),
                              np.float32(0.001), np.float32(0.58))
    float_stretch = VibrationalMode("ch-stretch", 359.0, 358.0, float(np.float32(0.001)),
                                    float(np.float32(0.58)))
    single = DefectConfiguration("natural", np.float32(935.0), (accepting, stretch))
    double = DefectConfiguration("natural", 935.0, (accepting, float_stretch))
    assert single == double
    for label in ("accepting", "ch-stretch"):
        assert nonradiative_rate(single, label) == nonradiative_rate(double, label)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fc_overlap(1, True, PAIR),
        lambda: fc_overlap(True, 3, PAIR),
        lambda: fc_overlap(-1, 3, PAIR),
        lambda: fc_overlap_matrix(PAIR, 1.5, 3),
        lambda: fc_overlap_matrix(PAIR, 1, 3.0),
        lambda: transition_moments(PAIR, True),
        lambda: sweep_grid(0, 1, 2.5),
        lambda: sweep_grid(0, 1, True),
        lambda: sweep_grid(0, float("nan"), 3),
        lambda: quadrature_overlap_table(PAIR, -1, 3),
        lambda: gaussian_delta("x", 1.0),
        lambda: OscillatorPair(33, 33, "x"),
        lambda: reduced_mass(10**400, 1.0),
        lambda: total_lifetime(np.float64("inf"), 1.0),
    ],
    ids=["fc_overlap.n-bool", "fc_overlap.m-bool", "fc_overlap.m-2",
         "fc_overlap_matrix.m-float", "fc_overlap_matrix.n-float", "transition_moments.bool",
         "sweep_grid.steps-float", "sweep_grid.steps-bool", "sweep_grid.stop-nan",
         "quadrature_table.negative", "gaussian_delta.str", "pair.str", "reduced_mass.huge-int",
         "total_lifetime.inf"],
)
def test_inputs_that_used_to_slip_through_or_raise_type_errors(call):
    with pytest.raises(DomainError):
        call()
