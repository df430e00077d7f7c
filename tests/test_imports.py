"""Import hygiene of the package: lazy exports and per-subcommand CLI imports.

Each check runs in a fresh interpreter, because the test session itself
has long since imported every submodule and numpy.
"""

import contextlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import multiphonon
from multiphonon.cli import run_command

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


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A configuration and a histogram for the CLI calls, written beforehand."""
    from multiphonon import load_reference_dataset, serialize_defect_config
    from multiphonon.transient import simulate_transient, write_histogram_csv

    work = tmp_path_factory.mktemp("cli")
    (work / "natural.json").write_text(serialize_defect_config(load_reference_dataset()[1][0]))
    write_histogram_csv(simulate_transient(0.885, 1e4, 10.0, 500, 10.0, 7), work / "histogram.csv")
    return work


# One cli-session call per subcommand; {work} is the directory of cli_files.
SESSION_ARGV = {
    "dataset": ["dataset", "--format", "csv"],
    "dataset-config": ["dataset", "--format", "config"],
    "rate": ["rate", "--config", "{work}/natural.json", "--mode", "accepting"],
    "sweep": ["sweep", "--config", "{work}/natural.json", "--mode", "ch-stretch",
              "--vary", "zpl_energy", "--from", "880.1854785303741",
              "--to", "1169.9153679578228", "--steps", "25"],
    "kinetics": ["kinetics", "--tau-a", "0.885", "--tau-b", "4.807",
                 "--nr-ratio", "243.54943560314564", "--debye-waller", "0.18466528979451513"],
    "cyclicity": ["cyclicity", "--eta0", "0.8366553085001932", "--purcell", "285.2297479905831"],
    "simulate": ["simulate", "--tau", "4.807", "--amplitude", "13243.905315095892",
                 "--background", "6.2401600959380765", "--bins", "500",
                 "--tmax", "48.07000000000001", "--seed", "1858836762",
                 "--out", "{work}/{name}.csv"],
    "fit": ["fit", "--histogram", "{work}/histogram.csv", "--window", "0.2,9.5"],
}

NO_DATACLASSES = ("dataclasses", "inspect", "numpy")
NO_CONFIG = NO_DATACLASSES + ("multiphonon.modes", "multiphonon.config_io")
NO_RATES = ("multiphonon.config_io", "multiphonon.modes", "multiphonon.kinetics", "multiphonon.rates")
NO_TRANSIENT = ("multiphonon.kinetics", "multiphonon.transient")
NO_ORACLE = NO_TRANSIENT + ("multiphonon.quadrature",)

# Subcommand -> modules its call must leave out of sys.modules.
NOT_IMPORTED = {
    "dataset": NO_DATACLASSES,
    "dataset-config": NO_DATACLASSES,
    "kinetics": NO_CONFIG,
    "cyclicity": NO_CONFIG,
    "simulate": NO_RATES,
    "fit": NO_RATES,
    "rate": NO_ORACLE,
    "sweep": NO_ORACLE,
}


def session_argv(name, work):
    return [arg.format(work=work, name=name) for arg in SESSION_ARGV[name]]


@pytest.mark.parametrize("name", sorted(NOT_IMPORTED))
def test_each_subcommand_imports_only_what_it_runs(name, cli_files):
    out = run_fresh(f"""
        import contextlib, io, sys
        from multiphonon.cli import run_command
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_command({session_argv(name, cli_files)!r})
        print(code, [module for module in {NOT_IMPORTED[name]!r} if module in sys.modules])
    """)
    assert out.split(maxsplit=1) == ["0", "[]\n"]


def test_cold_tables_at_the_quantum_number_limit_stay_within_budget():
    # The first table at n = 512 builds its Gauss-Hermite rules; with one BLAS
    # thread, as in a CLI call, the eigenvalue starts do not contend for cores.
    out = run_fresh(f"""
        import os, time
        for name in {BLAS_THREAD_VARS!r}:
            os.environ.setdefault(name, "1")
        from multiphonon import OscillatorPair, fc_overlap_matrix, quadrature_overlap_table
        pair = OscillatorPair(33.0, 40.0, 0.734)
        start = time.perf_counter()
        fc_overlap_matrix(pair, 512, 512)
        middle = time.perf_counter()
        quadrature_overlap_table(pair, 1, 512)
        print(middle - start, time.perf_counter() - middle)
    """)
    table_s, row_s = map(float, out.split())
    assert table_s < 3.0 and row_s < 0.5, (table_s, row_s)


def test_concurrent_handlers_import_safely_and_match_a_serial_run(cli_files):
    # Every handler runs its own imports; eight threads entering them at
    # once must give what the same calls give one after another.  Each run
    # has its own directory, so the simulate outputs do not collide.
    runs = {}
    for run in ("threaded", "serial"):
        (cli_files / run).mkdir()
        for source in ("natural.json", "histogram.csv"):
            (cli_files / run / source).write_bytes((cli_files / source).read_bytes())
        runs[run] = {name: session_argv(name, cli_files / run) for name in SESSION_ARGV}
    out = run_fresh(f"""
        import io, sys, threading
        from multiphonon import cli

        runs = {runs!r}
        lazy = [m for m in sys.modules if m.split(".")[-1] in ("rates", "transient", "kinetics")]
        assert not lazy, lazy

        def call(name, argv, results, barrier=None):
            args = cli._build_parser().parse_args(argv)
            out, err = io.StringIO(), io.StringIO()
            if barrier is not None:
                barrier.wait(timeout=30)
            code = args.handler(args, out, err)
            results[name] = (code, out.getvalue().replace("threaded", "serial"), err.getvalue())

        threaded, barrier = {{}}, threading.Barrier(len(runs["threaded"]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(name, argv, threaded, barrier))
                       for name, argv in runs["threaded"].items()]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        serial = {{}}
        for name, argv in runs["serial"].items():
            call(name, argv, serial)
        assert threaded.keys() == serial.keys()
        for name in serial:
            assert threaded[name] == serial[name], name
            assert serial[name][0] == 0, name
        print("ok")
    """)
    assert out.split() == ["ok"]
    written = [(cli_files / run / "simulate.csv").read_bytes() for run in runs]
    assert written[0] == written[1]


def test_package_and_dps_oracle_run_without_mpmath(cli_files):
    # mpmath is a test dependency only: with every import of it failing,
    # the 30-digit oracle and a numpy CLI call still give the usual results.
    from multiphonon import GridSpec, OscillatorPair, load_reference_dataset
    from multiphonon import quadrature_overlap_oracle

    mode = load_reference_dataset()[1][0].mode("accepting")
    pair = (mode.energy_excited, mode.energy_ground, mode.displacement)
    grid = GridSpec(abs_tol=1e-19, dps=30)
    expected = quadrature_overlap_oracle(1, 28, OscillatorPair(*pair), grid)
    argv = session_argv("fit", cli_files)
    out = run_fresh(f"""
        import contextlib, io, sys
        sys.modules["mpmath"] = None
        import multiphonon
        from multiphonon.cli import run_command
        pair = multiphonon.OscillatorPair(*{pair!r})
        grid = multiphonon.GridSpec(abs_tol=1e-19, dps=30)
        print(repr(multiphonon.quadrature_overlap_oracle(1, 28, pair, grid)))
        with contextlib.redirect_stdout(io.StringIO()) as fit:
            code = run_command({argv!r})
        print(code, sys.modules["mpmath"], fit.getvalue().splitlines()[0])
    """)
    with contextlib.redirect_stdout(io.StringIO()) as fit:
        assert run_command(argv) == 0
    assert out.splitlines() == [repr(expected), f"0 None {fit.getvalue().splitlines()[0]}"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(argv, blas_threads=None):
    """stdout of ``python -m multiphonon.cli``, with the BLAS variables unset or all set."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, blas_threads))
    result = subprocess.run([sys.executable, "-m", "multiphonon.cli", *argv],
                            capture_output=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", sorted(SESSION_ARGV))
def test_stdout_does_not_depend_on_the_blas_thread_variables(name, cli_files):
    # Unset, main caps BLAS at one thread; set, the caller's two threads win.
    argv = session_argv(name, cli_files)
    runs = []
    for blas_threads in (None, "2"):
        stdout = run_cli(argv, blas_threads)
        written = (cli_files / f"{name}.csv").read_bytes() if name == "simulate" else b""
        runs.append((stdout, written))
    assert runs[0] == runs[1] and runs[0][0]


def test_main_caps_only_the_blas_variables_the_caller_left_unset():
    out = run_fresh(f"""
        import contextlib, io, os, sys
        for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.pop(name, None)
        os.environ["OPENBLAS_NUM_THREADS"] = "3"
        sys.argv = ["multiphonon", "cyclicity", "--eta0", "0.5", "--purcell", "10"]
        from multiphonon import cli
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main()
            except SystemExit as exc:
                code = exc.code
        print(code, *(os.environ[name] for name in {BLAS_THREAD_VARS!r}))
    """)
    assert out.split() == ["0", "3", "1", "1"]


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
