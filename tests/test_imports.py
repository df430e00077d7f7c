"""Import hygiene of the package: lazy exports and numpy-free CLI paths.

Each check runs in a fresh interpreter, because the test session itself
has long since imported every submodule and numpy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import multiphonon

SRC = str(Path(multiphonon.__file__).resolve().parent.parent)

# The public API, written out here so that dropping a name from the
# package's export table fails a test.
PUBLIC_NAMES = (
    "AccuracyError", "CapabilityError", "ConfigSyntaxError", "ConfigValidationError",
    "CONSTANTS", "cyclicity", "DefectConfiguration", "DegeneracyError", "DomainError",
    "fc_overlap", "fc_overlap_matrix", "FitError", "FitPreconditionError", "fit_lifetime",
    "gaussian_delta", "GridSpec", "ho_length_scale", "huang_rhys_factor",
    "InfeasibleKineticsError", "infer_radiative_rate", "isotope_rate_ratio",
    "isotope_scale_energy", "KineticsResult", "LifetimeFit", "load_reference_dataset",
    "MAX_CERTIFIED_N", "ModeLookupError", "MultiphononError", "nonradiative_rate",
    "OscillatorPair", "parse_defect_config", "PhysicalConstants",
    "purcell_radiative_efficiency", "quadrature_overlap_oracle", "quadrature_overlap_table",
    "quadrature_overlap_with_error", "RateResult", "RateTerm", "rate_sweep",
    "read_histogram_csv", "reduced_mass", "ReferenceRecord", "reference_records_csv",
    "configurations_config_json", "serialize_defect_config", "simulate_transient",
    "sweep_grid", "SweepPoint", "total_lifetime", "TransientHistogram", "transition_moment",
    "transition_moments", "VibrationalMode", "write_histogram_csv", "zpl_emission_fraction",
)


def run_fresh(code):
    """Run *code* in a new interpreter that imports the package from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_package_loads_no_numpy_until_a_numeric_name_is_used():
    out = run_fresh("""
        import sys
        import multiphonon
        print("numpy" in sys.modules, multiphonon.__version__)
        print(multiphonon.rates.__name__, multiphonon.transient.fit_lifetime.__module__)
        print("numpy" in sys.modules)
    """)
    assert out.split() == ["False", multiphonon.__version__,
                           "multiphonon.rates", "multiphonon.transient", "True"]


@pytest.mark.parametrize("argv", [
    ["dataset"],
    ["dataset", "--format", "config"],
    ["kinetics", "--tau-a", "0.885", "--tau-b", "4.807", "--nr-ratio", "285",
     "--debye-waller", "0.23"],
    ["cyclicity", "--eta0", "0.9844", "--purcell", "1e6"],
])
def test_numpy_free_subcommands_do_not_import_numpy(argv):
    out = run_fresh(f"""
        import contextlib, io, sys
        from multiphonon.cli import run_command
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_command({argv!r})
        print(code, "numpy" in sys.modules)
    """)
    assert out.split() == ["0", "False"]


def test_every_public_name_resolves_star_import_and_dir():
    out = run_fresh(f"""
        import multiphonon
        names = {PUBLIC_NAMES!r}
        listed = dir(multiphonon)
        namespace = {{}}
        exec("from multiphonon import *", namespace)
        for name in names:
            value = getattr(multiphonon, name)
            assert namespace[name] is value, name
            assert name in listed, name
        assert sorted(multiphonon.__all__) == sorted(names)
        assert not hasattr(multiphonon, "no_such_name")
        assert multiphonon.quadrature.GridSpec is multiphonon.GridSpec
        from multiphonon.rates import SWEEP_CSV_HEADER, SWEEP_PARAMETERS
        print(len(names))
    """)
    assert out.split() == [str(len(PUBLIC_NAMES))]


def test_concurrent_first_access_gives_identical_objects():
    out = run_fresh(f"""
        import random, sys, threading
        import multiphonon

        names = {PUBLIC_NAMES!r}
        workers = 8
        barrier = threading.Barrier(workers)
        seen = [None] * workers

        def touch(index):
            order = list(names)
            random.Random(index).shuffle(order)
            barrier.wait(timeout=30)
            seen[index] = {{name: getattr(multiphonon, name) for name in order}}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name in names:
            assert all(result[name] is seen[0][name] for result in seen), name
            assert seen[0][name] is getattr(multiphonon, name), name
        print("ok")
    """)
    assert out.split() == ["ok"]
