"""Tests for the command-line interface: headers, values, formats,
exit codes, and determinism."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import wcs
from wcs.cli import _parse_grid, _parse_int_range, main
from wcs.errors import ParameterError


def run_cli(argv, env=None):
    """Invoke main() in-process, capturing stdout/stderr."""
    saved = {}
    if env:
        for k, v in env.items():
            saved[k] = os.environ.get(k)
            os.environ[k] = v
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def child_env():
    """The environment for a child interpreter that imports this wcs."""
    src = os.path.dirname(os.path.dirname(wcs.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def rows_of(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFactorial:
    def test_classical_column(self):
        code, out, _ = run_cli(["factorial", "--n", "0..5"])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["n", "log_factorial", "factorial_or_inf"]
        got = [float(r[2]) for r in rows]
        assert got == pytest.approx([1.0, 1.0, 2.0, 6.0, 24.0, 120.0], rel=1e-12)

    def test_single_values(self):
        code, out, _ = run_cli(["factorial", "--nu", "2", "--n", "3"])
        assert float(rows_of(out)[1][0][2]) == pytest.approx(60.0, rel=1e-12)
        code, out, _ = run_cli(
            ["factorial", "--alpha", "1", "--beta", "1", "--nu", "1", "--n", "3"]
        )
        assert float(rows_of(out)[1][0][2]) == pytest.approx(36.0, rel=1e-12)

    def test_overflow_sentinel(self):
        code, out, _ = run_cli(["factorial", "--n", "400"])
        assert code == 0
        header, rows = rows_of(out)
        assert rows[0][2] == "inf"
        assert float(rows[0][1]) == pytest.approx(math.lgamma(401.0), rel=1e-12)


class TestSpectrum:
    def test_contract_header(self):
        code, out, _ = run_cli(["spectrum", "--n", "0..3"])
        assert code == 0
        assert out.splitlines()[0] == "n,alpha,beta,nu,energy"

    def test_classical_energies(self):
        _, out, _ = run_cli(["spectrum", "--n", "0..3"])
        _, rows = rows_of(out)
        assert [float(r[4]) for r in rows] == pytest.approx([0.5, 1.5, 2.5, 3.5])

    def test_parameter_sweep_rows(self):
        _, out, _ = run_cli(["spectrum", "--alpha", "0,0.5,1", "--nu", "1", "--n", "0..2"])
        _, rows = rows_of(out)
        assert len(rows) == 9
        alphas = {r[1] for r in rows}
        assert alphas == {"0", "0.5", "1"}


class TestPdist:
    def test_normalized(self):
        code, out, _ = run_cli(["pdist", "--x", "1.5", "--nu", "0.5"])
        assert code == 0
        _, rows = rows_of(out)
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_numerical_failure_exit_code(self):
        code, _, err = run_cli(["pdist", "--beta", "0.25", "--x", "25"])
        assert code == 3
        assert err != ""


class TestMandel:
    def test_classical_row_is_poissonian(self):
        code, out, _ = run_cli(["mandel", "--x", "0.5:2:4"])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["x", "q_z", "q_m"]
        assert len(rows) == 4
        for r in rows:
            assert abs(float(r[1])) <= 1e-9
            assert abs(float(r[2])) <= 1e-9

    def test_super_poissonian_sign(self):
        _, out, _ = run_cli(["mandel", "--nu", "0.5", "--x", "1"])
        _, rows = rows_of(out)
        assert float(rows[0][1]) > 0.0

    def test_nonpositive_intensity_rejected(self):
        code, _, _ = run_cli(["mandel", "--x", "0"])
        assert code == 2


class TestUncertainty:
    def test_half_hbar_units(self):
        _, out, _ = run_cli(
            ["uncertainty", "--nu", "0,1", "--units", "half-hbar"]
        )
        _, rows = rows_of(out)
        assert [float(r[3]) for r in rows] == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_action_units(self):
        _, out, _ = run_cli(["uncertainty", "--nu", "0,1"])
        _, rows = rows_of(out)
        assert [float(r[3]) for r in rows] == pytest.approx([0.5, 1.0], rel=1e-12)

    def test_wright_point(self):
        _, out, _ = run_cli(
            ["uncertainty", "--alpha", "1", "--nu", "1", "--units", "half-hbar"]
        )
        _, rows = rows_of(out)
        assert float(rows[0][3]) == pytest.approx(1.0, rel=1e-12)


class TestWavefunction:
    def test_classical_values(self):
        _, out, _ = run_cli(["wavefunction", "--k", "0,1", "--x", "0,1"])
        header, rows = rows_of(out)
        assert header == ["k", "x", "psi", "cancellation"]
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("0", "0")] == pytest.approx(math.pi ** -0.25, rel=1e-10)
        assert table[("0", "1")] == pytest.approx(
            math.pi ** -0.25 * math.exp(-0.5), rel=1e-10
        )
        assert table[("1", "1")] == pytest.approx(
            math.sqrt(2.0) * math.pi ** -0.25 * math.exp(-0.5), rel=1e-10
        )
        assert all(r[3] == "false" for r in rows)

    def test_si_scales_out_to_five_oscillator_lengths(self):
        # the length sqrt(hbar / (m omega)) is 3.24e-11 m; the lattice is
        # summed in oscillator units, so no coefficient carries the scales
        si = ["--hbar", "1.05e-34", "--mass", "1e-27", "--omega", "1e14"]
        code, out, err = run_cli(["wavefunction", *si, "--k", "0..3", "--x", "0:1.62e-10:11"])
        assert (code, err) == (0, "")
        _, rows = rows_of(out)
        assert len(rows) == 44 and all(math.isfinite(float(r[2])) for r in rows)

    def test_scales_past_double_range_are_refused(self):
        code, _, err = run_cli(["wavefunction", "--hbar", "1e300", "--mass", "1e-300",
                                "--omega", "1e-300", "--k", "0", "--x", "1"])
        assert code == 2 and "mass * omega / hbar must lie in" in err


class TestWeight:
    def test_wright_bessel_value(self):
        _, out, _ = run_cli(
            ["weight", "--family", "wright", "--alpha", "1", "--nu", "1", "--x", "1"]
        )
        header, rows = rows_of(out)
        assert header == ["x", "u_tilde", "u", "err_est"]
        assert float(rows[0][1]) == pytest.approx(0.2277877454990668, rel=1e-7)

    def test_closed_form_value(self):
        _, out, _ = run_cli(
            ["weight", "--family", "ml-closed-form", "--nu", "0", "--x", "1"]
        )
        _, rows = rows_of(out)
        assert float(rows[0][1]) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert float(rows[0][2]) == pytest.approx(1.0 / math.pi, rel=1e-10)

    def test_unknown_family(self):
        code, _, _ = run_cli(["weight", "--family", "fox-h", "--x", "1"])
        assert code == 2

    def test_one_minus_beta_at_subnormal_x(self):
        code, out, _ = run_cli(
            ["weight", "--family", "one-minus-beta", "--beta", "0.5", "--nu", "0.3",
             "--x", "1e-310"]
        )
        assert code == 0
        _, rows = rows_of(out)
        assert float(rows[0][1]) == pytest.approx(7.886491227420736e-186, rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "wright", "--alpha", "0.3", "--nu", "1"],
            ["--family", "wright", "--nu", "1", "--alpha", "0"],
            ["--family", "one-minus-beta", "--alpha", "0", "--beta", "0.3", "--nu", "-0.1"],
            ["--family", "ml-closed-form", "--alpha", "0,1", "--nu", "0"],
        ],
    )
    def test_contradicting_alpha_rejected(self, argv):
        code, out, err = run_cli(["weight", "--x", "1"] + argv)
        assert code == 2
        assert out == ""
        assert "contradicts --family" in err

    def test_matching_alpha_accepted(self):
        for argv in (
            ["--family", "one-minus-beta", "--alpha", "0.7", "--beta", "0.3", "--nu", "-0.1"],
            ["--family", "ml-closed-form", "--alpha", "0", "--nu", "0"],
        ):
            code, _, _ = run_cli(["weight", "--x", "1"] + argv)
            assert code == 0


class TestMoments:
    def test_classical_verification_passes(self):
        code, out, _ = run_cli(
            ["moments", "--family", "ml-closed-form", "--nu", "0", "--nmax", "5"]
        )
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["n", "quadrature_moment", "target_factorial", "rel_error"]
        assert len(rows) == 6
        assert max(float(r[3]) for r in rows) <= 1e-9

    def test_threshold_exit_code(self):
        code, _, _ = run_cli(
            [
                "moments", "--family", "ml-closed-form", "--nu", "0",
                "--nmax", "3", "--threshold", "1e-30",
            ]
        )
        assert code == 4

    def test_contradicting_alpha_rejected(self):
        code, out, err = run_cli(
            ["moments", "--family", "wright", "--alpha", "0.3", "--beta", "0.5",
             "--nu", "1", "--nmax", "2"]
        )
        assert code == 2
        assert out == ""
        assert "contradicts --family wright" in err

    def test_matching_alpha_accepted(self):
        code, _, _ = run_cli(
            ["moments", "--family", "wright", "--alpha", "1", "--beta", "0.5",
             "--nu", "1", "--nmax", "2"]
        )
        assert code == 0

    def test_order_cap(self):
        code, _, _ = run_cli(
            ["moments", "--family", "ml-closed-form", "--nu", "0", "--nmax", "13"]
        )
        assert code == 2


class TestCarlemanCommand:
    def test_grid_rows(self):
        code, out, _ = run_cli(["carleman", "--alpha", "0,1", "--nu", "1"])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["alpha", "beta", "nu", "exponent", "determinate",
                          "series_divergent"]
        assert len(rows) == 2
        assert all(r[4] == "true" for r in rows)


class TestHankelCommand:
    def test_classical_value(self):
        code, out, _ = run_cli(["hankel", "--size", "3"])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["size", "offset", "sign", "scaled_det"]
        assert rows[0][2] == "1"
        assert float(rows[0][3]) == pytest.approx(1.0 / 12.0, rel=1e-9)


class TestFormats:
    def test_json_structure(self):
        code, out, _ = run_cli(["spectrum", "--n", "0..2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "rows"}
        assert doc["config"]["command"] == "spectrum"
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["energy"] == pytest.approx(0.5)

    def test_json_matches_csv(self):
        _, csv_out, _ = run_cli(["factorial", "--n", "0..4"])
        _, json_out, _ = run_cli(["factorial", "--n", "0..4", "--format", "json"])
        _, rows = rows_of(csv_out)
        doc = json.loads(json_out)
        for row, obj in zip(rows, doc["rows"]):
            assert float(row[2]) == pytest.approx(obj["factorial_or_inf"], rel=1e-15)

    def test_seventeen_digit_roundtrip(self):
        _, out, _ = run_cli(["pdist", "--x", "1", "--nu", "0.5"])
        _, rows = rows_of(out)
        from wcs import CoherentLabel, DeformationParams, photon_pdf

        lab = CoherentLabel.from_intensity(1.0)
        p = DeformationParams(0.0, 1.0, 0.5)
        assert float(rows[2][1]) == photon_pdf(2, lab, p)


class TestOutputFiles:
    def test_out_file_and_gnuplot(self, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            ["spectrum", "--n", "0..3", "--out", str(target), "--gnuplot"]
        )
        assert code == 0
        assert out == ""
        assert target.exists()
        script = tmp_path / "spec.csv.gp"
        assert script.exists()
        text = script.read_text()
        assert "plot " in text
        assert "set datafile separator ','" in text

    def test_gnuplot_requires_out(self):
        code, _, _ = run_cli(["spectrum", "--n", "0..3", "--gnuplot"])
        assert code == 2

    def test_gnuplot_requires_csv(self, tmp_path):
        code, _, _ = run_cli(
            ["spectrum", "--n", "0..3", "--format", "json",
             "--out", str(tmp_path / "x.json"), "--gnuplot"]
        )
        assert code == 2

    def test_unwritable_out_is_a_configuration_error(self, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(["factorial", "--n", "0..2", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"wcs: invalid configuration: cannot write output: [Errno 2]"
            f" No such file or directory: {str(target)!r}"
        ]

    def test_unwritable_gnuplot_script_is_a_configuration_error(self, tmp_path):
        target = tmp_path / "spec.csv"
        (tmp_path / "spec.csv.gp").mkdir()  # a directory cannot be opened for writing
        code, out, err = run_cli(
            ["spectrum", "--n", "0..3", "--out", str(target), "--gnuplot"]
        )
        assert (code, out) == (2, "")
        assert target.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith("wcs: invalid configuration: cannot write output: ")
        assert "spec.csv.gp" in err


class TestGnuplotNames:
    def test_a_quote_in_the_name_is_doubled(self, tmp_path):
        target = tmp_path / "it's.csv"
        code, out, _ = run_cli(["factorial", "--n", "0..2", "--out", str(target), "--gnuplot"])
        assert (code, out) == (0, "")
        lines = (tmp_path / "it's.csv.gp").read_text().splitlines()
        assert lines[0] == "# plot script for it's.csv"
        assert lines[-2:] == [
            "plot 'it''s.csv' using 1:2 with lines, \\",
            "     'it''s.csv' using 1:3 with lines",
        ]

    @pytest.mark.parametrize("name", ["a\nb.csv", "a\rb.csv"])
    def test_a_line_break_in_the_name_is_refused_before_writing(self, tmp_path, name):
        target = tmp_path / name
        code, out, err = run_cli(["factorial", "--n", "0..2", "--out", str(target), "--gnuplot"])
        assert (code, out) == (2, "")
        assert err == (
            "wcs: invalid configuration: --gnuplot cannot quote an --out name that holds"
            f" a line break, got {str(target)!r}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestDeterminismAndLogging:
    def test_repeat_runs_identical(self):
        a = run_cli(["mandel", "--nu", "0.5", "--x", "0.5:2:4"])
        b = run_cli(["mandel", "--nu", "0.5", "--x", "0.5:2:4"])
        assert a == b

    def test_debug_diagnostics_on_stderr_only(self):
        code, out, err = run_cli(["factorial", "--n", "0..3"], env={"WCS_LOG": "debug"})
        code2, out2, err2 = run_cli(["factorial", "--n", "0..3"])
        assert code == code2 == 0
        assert out == out2
        assert "DEBUG" in err
        assert err2 == ""

    def test_diagnostic_lines(self, tmp_path):
        target = tmp_path / "s.csv"
        argv = ["spectrum", "--n", "0..3", "--out", str(target), "--gnuplot"]
        # each run writes to the stderr current at the time, not the first one's
        for _ in range(2):
            code, out, err = run_cli(argv, env={"WCS_LOG": "debug"})
            assert (code, out) == (0, "")
            assert err.splitlines() == [
                "wcs:DEBUG: command=spectrum rows=4 columns=n,alpha,beta,nu,energy format=csv",
                f"wcs:INFO: wrote 4 rows to {target}",
                f"wcs:INFO: wrote gnuplot script {target}.gp",
            ]
        assert run_cli(argv, env={"WCS_LOG": "error"})[2] == ""
        code, _, err = run_cli(
            ["moments", "--family", "ml-closed-form", "--nu", "0.5", "--nmax", "4",
             "--threshold", "-1"], env={"WCS_LOG": "error"}
        )
        assert code == 4
        assert err.startswith("wcs:ERROR: moment verification failed: max rel error ")

    def test_invalid_log_level(self):
        code, _, _ = run_cli(["factorial", "--n", "1"], env={"WCS_LOG": "nonsense"})
        assert code == 2


class TestBadParameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["factorial", "--beta", "0", "--n", "1"],
            ["factorial", "--alpha", "2", "--n", "1"],
            ["factorial", "--nu", "-3", "--n", "1"],
            ["factorial", "--n", "5..1"],
            ["spectrum", "--n", "0..2", "--hbar", "-1"],
            ["mandel", "--x", "1:0:3"],
            ["hankel", "--size", "0"],
            # non-finite values are rejected, not carried through as nan/inf
            ["factorial", "--nu", "inf", "--n", "0..2"],
            ["uncertainty", "--hbar", "inf"],
            ["weight", "--family", "wright", "--alpha", "1", "--nu", "1", "--x", "inf"],
            ["weight", "--family", "ml-closed-form", "--nu", "0", "--x", "inf"],
            ["weight", "--family", "one-minus-beta", "--beta", "0.5", "--nu", "-0.25",
             "--x", "inf"],
            ["wavefunction", "--k", "0", "--x", "inf"],
        ],
    )
    def test_exit_code_two(self, argv):
        code, _, err = run_cli(argv)
        assert code == 2


class TestParsers:
    """The range, grid and list parsers behind --n, --k, --x and the
    parameter lists, one error path each."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:1", "must be lo:hi:count"),
            ("0:1:2:3", "must be lo:hi:count"),
            ("0:one:3", "cannot parse grid expression"),
            ("0:1:2.5", "cannot parse grid expression"),
            ("0:1:0", "grid count must be >= 1, got 0"),
            ("0:1:-4", "grid count must be >= 1, got -4"),
            ("1,,2", "as a number list"),
        ],
    )
    def test_bad_grid(self, text, message):
        with pytest.raises(ParameterError, match=message):
            _parse_grid(text)

    def test_one_point_grid_is_its_lower_end(self):
        assert _parse_grid("0.5:3:1") == (0.5,)

    @pytest.mark.parametrize("text", ["1..b", "0.5..3", "x", "1,two"])
    def test_bad_integer_range(self, text):
        with pytest.raises(ParameterError, match="as an integer range"):
            _parse_int_range(text)

    def test_bad_grid_exits_two(self):
        code, out, err = run_cli(["mandel", "--x", "0.1:10"])
        assert (code, out) == (2, "")
        assert "must be lo:hi:count" in err


class TestCountCeilings:
    """A count past its ceiling exits 2 with the limit in the message, before
    anything of its size is allocated."""

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["hankel", "--size", "100000"], "size must be an integer <= 1000,"),
            (["factorial", "--n", "0..1000000000"], "ceiling of 1000000"),
            (["spectrum", "--n", "0..1000000"], "ceiling of 1000000"),
            (["wavefunction", "--k", "0..3", "--x", "0:3:1000001"], "ceiling of 1000000"),
            (["mandel", "--x", "0.1:10:100000000"], "ceiling of 1000000"),
        ],
    )
    def test_refused_with_the_limit(self, argv, limit):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert limit in err


# each subcommand: a valid command line, and the options it accepts beyond
# the triple and the output options that every subcommand accepts
COMMON = {"alpha", "beta", "nu", "format", "out", "gnuplot"}
ACCEPTS = {
    "factorial": (["--n", "1"], {"n"}),
    "spectrum": (["--n", "0..1"], {"hbar", "omega", "n"}),
    "pdist": (["--x", "1"], {"x", "tail"}),
    "mandel": (["--x", "1"], {"tol", "x"}),
    "uncertainty": ([], {"hbar", "units"}),
    "wavefunction": (["--k", "0", "--x", "0"], {"hbar", "mass", "omega", "k", "x"}),
    "weight": (["--family", "ml-closed-form", "--x", "1"], {"tol", "family", "x"}),
    "moments": (["--family", "ml-closed-form", "--nmax", "2"], {"family", "nmax", "threshold"}),
    "carleman": ([], set()),
    "hankel": ([], {"size", "offset"}),
}
# a value each option would accept
VALUES = {
    "alpha": "0", "beta": "1", "nu": "0", "hbar": "1", "mass": "7", "omega": "1",
    "tol": "1e-30", "n": "1", "x": "1", "tail": "1e-10", "units": "action", "k": "0",
    "family": "wright", "nmax": "2", "threshold": "1e-5", "size": "2", "offset": "0",
}
UNREAD = [
    (command, flag)
    for command, (_, own) in ACCEPTS.items()
    for flag in sorted(set(VALUES) - COMMON - own)
]


class TestOptionsPerSubcommand:
    def test_settable_values(self):
        assert sum(len(COMMON | own) for _, own in ACCEPTS.values()) == 83

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}--{f}" for c, f in UNREAD])
    def test_unread_flag_exits_two(self, command, flag):
        argv = [command, *ACCEPTS[command][0]]
        assert run_cli(argv)[0] == 0
        code, out, err = run_cli(argv + [f"--{flag}", VALUES[flag]])
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --{flag}" in err

    @pytest.mark.parametrize("command", ACCEPTS)
    def test_json_config_is_the_parsed_command_line(self, command):
        argv, own = ACCEPTS[command]
        code, out, _ = run_cli([command, *argv, "--format", "json"])
        assert code == 0
        config = json.loads(out)["config"]
        computed = {"cutoff", "tail_mass"} if command == "pdist" else set()
        assert set(config) == {"command"} | COMMON | own | computed
        assert config["command"] == command

    def test_defaults_are_recorded(self):
        _, out, _ = run_cli(["mandel", *ACCEPTS["mandel"][0], "--format", "json"])
        assert json.loads(out)["config"]["tol"] == 1e-8
        _, out, _ = run_cli(["pdist", "--x", "1", "--format", "json"])
        assert json.loads(out)["config"]["tail"] == 1e-10
        # the family fixes alpha; none was given
        _, out, _ = run_cli(["weight", *ACCEPTS["weight"][0], "--format", "json"])
        assert json.loads(out)["config"]["alpha"] is None
        assert json.loads(out)["config"]["tol"] == 1e-11

    def test_control_characters_round_trip(self, tmp_path):
        # --n takes surrounding whitespace; \b, not whitespace, reaches the
        # config through the --out path
        path = tmp_path / "r\b\f\n\r\t.json"
        argv = ["factorial", "--n", "\t0..1\n\r\f", "--format", "json", "--out", str(path)]
        assert run_cli(argv)[0] == 0
        config = json.loads(path.read_text(encoding="utf-8"))["config"]
        assert (config["n"], config["out"]) == ("\t0..1\n\r\f", str(path))


class TestImportHygiene:
    """Which modules a child interpreter holds after an import or a
    command: a count read from sys.modules, the same on every machine."""

    @staticmethod
    def loaded(code):
        """The wcs modules, and logging if loaded, after code runs."""
        code += (
            "\nimport json, sys\nprint(json.dumps([m for m in sys.modules"
            " if m == 'logging' or m.startswith('wcs')]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_cli_import_loads_errors_and_params_only(self):
        assert self.loaded("import wcs.cli") == {"wcs", "wcs.cli", "wcs.errors", "wcs.params"}

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["factorial", "--n", "0..2"], {"series", "coherent", "moments", "quadrature"}),
            (["mandel", "--nu", "0.5", "--x", "1"], {"moments", "quadrature"}),
            (["moments", "--family", "ml-closed-form", "--nu", "0.5", "--nmax", "4"],
             {"coherent"}),
        ],
    )
    def test_a_command_loads_only_what_it_calls(self, argv, absent):
        mods = self.loaded(f"from wcs.cli import main\nassert main({argv!r}) == 0")
        assert not mods & ({f"wcs.{name}" for name in absent} | {"logging"})

    def test_factorials_leave_series_unloaded(self):
        mods = self.loaded("import wcs.factorials")
        assert "wcs.factorials" in mods
        assert "wcs.series" not in mods

    def test_oracles_stay_out_of_the_runtime(self):
        # scipy, mpmath and hypothesis are test oracles; importing the
        # library and its CLI must not load them
        code = (
            "import sys, wcs, wcs.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath', 'hypothesis') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wcs.cli", "factorial", "--n", "0..2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n,log_factorial,factorial_or_inf"
