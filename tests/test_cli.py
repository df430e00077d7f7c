import json
from pathlib import Path

import numpy as np
import pytest

from multiphonon import (
    infer_radiative_rate,
    nonradiative_rate,
    reference_records_csv,
    simulate_transient,
)
from multiphonon.cli import run_command


@pytest.fixture()
def natural_config_path(tmp_path, natural):
    from multiphonon import serialize_defect_config

    path = tmp_path / "natural.json"
    path.write_text(serialize_defect_config(natural))
    return str(path)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDataset:
    def test_csv_matches_embedded_table(self, capsys):
        code, out, err = run(capsys, "dataset", "--format", "csv")
        assert code == 0
        assert out == reference_records_csv()
        assert err == ""

    def test_csv_is_default_format(self, capsys):
        code, out, _ = run(capsys, "dataset")
        assert code == 0
        assert out == reference_records_csv()

    def test_config_format_parses_and_carries_table_decimals(self, capsys):
        code, out, _ = run(capsys, "dataset", "--format", "config")
        assert code == 0
        documents = json.loads(out)
        assert [d["variant_label"] for d in documents] == ["natural", "deuterium"]
        for token in ("935", "0.734", "33.0", "9.23", "359", "358", "0.58",
                      "263", "262", "0.70", "0.001", "0.002"):
            assert token in out


class TestRate:
    @pytest.mark.parametrize("field, value, reason", [
        ("hbar_omega_g_mev", 5e-324, "quantum number inf exceeds"),
        ("hbar_omega_e_mev", 1e-310, "is not finite"),
        ("hbar_omega_e_mev", 5e-324, "is not finite"),
    ], ids=["ground-5e-324", "excited-1e-310", "excited-5e-324"])
    def test_extreme_energy_exits_1_with_one_error_line(self, capsys, tmp_path, field, value,
                                                        reason):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"variant_label": "natural", "zpl_energy_mev": 935, "modes": [
            dict({"label": "accepting", "hbar_omega_g_mev": 33.0, "hbar_omega_e_mev": 33.0,
                  "delta_q": 0.734, "w_eg": 9.23}, **{field: value})]}))
        code, out, err = run(capsys, "rate", "--config", str(path), "--mode", "accepting")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and reason in err

    def test_reports_total_at_full_precision(self, capsys, natural_config_path, natural):
        code, out, err = run(capsys, "rate", "--config", natural_config_path,
                             "--mode", "ch-stretch")
        assert code == 0 and err == ""
        expected = nonradiative_rate(natural, "ch-stretch")
        total_line = [l for l in out.splitlines() if l.startswith("total_rate_per_s ")][0]
        assert float(total_line.split()[1]) == expected.total_rate
        # term table: header + one row per phonon number
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == expected.n_max_used + 1

    def test_byte_identical_over_repeat_runs(self, capsys, natural_config_path):
        _, out1, _ = run(capsys, "rate", "--config", natural_config_path, "--mode", "accepting")
        _, out2, _ = run(capsys, "rate", "--config", natural_config_path, "--mode", "accepting")
        assert out1 == out2

    def test_missing_mode_exits_1_with_clean_stdout(self, capsys, natural_config_path):
        code, out, err = run(capsys, "rate", "--config", natural_config_path, "--mode", "nope")
        assert code == 1
        assert out == ""
        assert "no mode" in err

    def test_invalid_config_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"variant_label": "x"}')
        code, out, err = run(capsys, "rate", "--config", str(bad), "--mode", "m")
        assert code == 1 and out == "" and "required key" in err

    def test_ch_stretch_dwarfs_accepting_mode(self, capsys, natural_config_path):
        totals = {}
        for mode in ("accepting", "ch-stretch"):
            _, out, _ = run(capsys, "rate", "--config", natural_config_path, "--mode", mode)
            line = [l for l in out.splitlines() if l.startswith("total_rate_per_s ")][0]
            totals[mode] = float(line.split()[1])
        assert totals["ch-stretch"] >= 1e8 * totals["accepting"]


class TestSweep:
    def test_row_count_equals_steps(self, capsys, natural_config_path):
        code, out, err = run(capsys, "sweep", "--config", natural_config_path,
                             "--mode", "ch-stretch", "--vary", "zpl_energy",
                             "--from", "500", "--to", "1200", "--steps", "17")
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,value,rate_per_s,n_max,sigma_meV"
        assert len(lines) == 1 + 17

    def test_coupling_sweep_row_values(self, capsys, natural_config_path):
        code, out, _ = run(capsys, "sweep", "--config", natural_config_path,
                           "--mode", "ch-stretch", "--vary", "coupling",
                           "--from", "0.58", "--to", "1.16", "--steps", "2")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[1][2]) == pytest.approx(4 * float(rows[0][2]), rel=1e-12)

    def test_failed_rows_keep_csv_shape(self, capsys, natural_config_path):
        code, out, err = run(capsys, "sweep", "--config", natural_config_path,
                             "--mode", "accepting", "--vary", "energy_ground",
                             "--from", "0.5", "--to", "33.5", "--steps", "3")
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows, failures included
        assert code == 0  # some rows succeeded
        assert "row 0" in err
        assert lines[1].split(",")[2] == "nan"

    def test_deterministic_output(self, capsys, natural_config_path):
        args = ("sweep", "--config", natural_config_path, "--mode", "accepting",
                "--vary", "displacement", "--from", "-0.8", "--to", "0.8",
                "--steps", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestKinetics:
    def test_reference_output(self, capsys):
        code, out, err = run(capsys, "kinetics", "--tau-a", "0.885", "--tau-b", "4.807",
                             "--nr-ratio", "285", "--debye-waller", "0.23")
        assert code == 0 and err == ""
        fields = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
        expected = infer_radiative_rate(0.885e-6, 4.807e-6, 285.0)
        assert float(fields["radiative_lifetime_us"].split()[0]) == expected.radiative_lifetime_us
        assert float(fields["efficiency_a"].split()[0]) == expected.efficiency_a
        assert "%" in fields["efficiency_b"]
        assert float(fields["zpl_fraction_a"].split()[0]) == pytest.approx(0.0416837, rel=1e-5)
        assert float(fields["zpl_fraction_b"].split()[0]) == pytest.approx(0.2264110, rel=1e-5)

    def test_zpl_lines_absent_without_debye_waller(self, capsys):
        _, out, _ = run(capsys, "kinetics", "--tau-a", "0.885", "--tau-b", "4.807",
                        "--nr-ratio", "285")
        assert "zpl_fraction" not in out

    def test_infeasible_inputs_exit_1(self, capsys):
        code, out, err = run(capsys, "kinetics", "--tau-a", "4.807", "--tau-b", "0.885",
                             "--nr-ratio", "285")
        assert code == 1 and out == "" and "negative" in err


class TestCyclicity:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "cyclicity", "--eta0", "0.5", "--purcell", "3")
        assert code == 0
        fields = dict(line.split() for line in out.strip().splitlines())
        assert float(fields["purcell_radiative_efficiency"]) == 0.75
        assert float(fields["cyclicity"]) == 8.0

    def test_divergence_exits_1(self, capsys):
        code, out, err = run(capsys, "cyclicity", "--eta0", "1.0", "--purcell", "2")
        assert code == 1 and out == "" and "diverges" in err


class TestSimulateAndFit:
    def test_round_trip(self, capsys, tmp_path):
        out_path = str(tmp_path / "hist.csv")
        code, out, _ = run(capsys, "simulate", "--tau", "0.885", "--amplitude", "10000",
                           "--background", "10", "--bins", "500", "--tmax", "10",
                           "--seed", "7", "--out", out_path)
        assert code == 0 and out.startswith("wrote ")
        code, out, err = run(capsys, "fit", "--histogram", out_path)
        assert code == 0 and err == ""
        fields = dict(line.split() for line in out.strip().splitlines())
        truth = 0.885
        assert abs(float(fields["lifetime_us"]) - truth) < 3 * float(fields["lifetime_uncertainty_us"])

    def test_simulated_file_deterministic(self, capsys, tmp_path):
        paths = [str(tmp_path / f"h{i}.csv") for i in range(2)]
        for path in paths:
            run(capsys, "simulate", "--tau", "1.5", "--amplitude", "500",
                "--background", "2", "--bins", "64", "--tmax", "12",
                "--seed", "3", "--out", path)
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    @pytest.mark.parametrize("flag,value", [("--amplitude", "nan"), ("--background", "inf")])
    def test_non_finite_rate_exits_1_without_writing(self, capsys, tmp_path, flag, value):
        out_path = tmp_path / "hist.csv"
        argv = {"--tau": "0.885", "--amplitude": "10000", "--background": "10",
                "--bins": "500", "--tmax": "10", "--seed": "7", "--out": str(out_path)}
        argv[flag] = value
        code, out, err = run(capsys, "simulate", *(item for pair in argv.items() for item in pair))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_negative_seed_exits_1_without_writing(self, capsys, tmp_path):
        out_path = tmp_path / "hist.csv"
        code, out, err = run(capsys, "simulate", "--tau", "0.885", "--amplitude", "10000",
                             "--background", "10", "--bins", "500", "--tmax", "10",
                             "--seed", "-1", "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out_path.exists()

    def test_fit_window_flag(self, capsys, tmp_path):
        out_path = str(tmp_path / "hist.csv")
        run(capsys, "simulate", "--tau", "0.885", "--amplitude", "10000",
            "--background", "10", "--bins", "500", "--tmax", "10",
            "--seed", "7", "--out", out_path)
        code, out, _ = run(capsys, "fit", "--histogram", out_path, "--window", "0.3,9.5")
        assert code == 0
        assert "lifetime_us" in out

    def test_matches_library_simulation(self, capsys, tmp_path):
        out_path = str(tmp_path / "hist.csv")
        run(capsys, "simulate", "--tau", "2.0", "--amplitude", "100",
            "--background", "1", "--bins", "50", "--tmax", "20",
            "--seed", "11", "--out", out_path)
        from multiphonon import read_histogram_csv

        loaded = read_histogram_csv(out_path)
        direct = simulate_transient(2.0, 100.0, 1.0, 50, 20.0, seed=11)
        assert np.array_equal(loaded.counts, direct.counts)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, out, _ = run(capsys, "frobnicate")
        assert code == 2 and out == ""

    def test_missing_required_flag(self, capsys):
        code, out, _ = run(capsys, "rate", "--mode", "accepting")
        assert code == 2 and out == ""

    def test_bad_window_format(self, capsys):
        code, out, _ = run(capsys, "fit", "--histogram", "x.csv", "--window", "1;2")
        assert code == 2 and out == ""

    def test_bad_sweep_parameter(self, capsys, natural_config_path):
        code, out, _ = run(capsys, "sweep", "--config", natural_config_path,
                           "--mode", "accepting", "--vary", "temperature",
                           "--from", "1", "--to", "2", "--steps", "2")
        assert code == 2 and out == ""

    def test_missing_file_exits_1(self, capsys):
        code, out, err = run(capsys, "fit", "--histogram", "/nonexistent/h.csv")
        assert code == 1 and out == "" and err != ""
