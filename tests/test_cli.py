"""Command line behavior: exit codes, output files, determinism."""

import shutil
import subprocess

import pytest

from timerq import harness
from timerq.cli import (EXIT_ABORT, EXIT_BADFILE, EXIT_DIVERGED, EXIT_OK,
                        EXIT_USAGE, main)
from timerq.harness import load_trace
from timerq.oracle import OpScript
from conftest import CORPORA

RUN_FLAGS = ["--flows", "8", "--packets", "40", "--seed", "5",
             "--duration-ns", "1500", "--to", "25", "--precision", "1",
             "--wr", "9", "--wo", "7", "--wid", "6", "--capacity", "32"]


def stats_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestGen:
    def test_gen_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["gen-trace", "--flows", "6", "--packets", "30",
                   "--seed", "9", "--duration-ns", "2000", "--out", str(out)])
        assert rc == EXIT_OK
        assert "wrote 30 packets" in capsys.readouterr().out
        packets, skipped = load_trace(out)
        assert (len(packets), skipped) == (30, 0)

    def test_gen_script(self, tmp_path, capsys):
        out = tmp_path / "s.script"
        rc = main(["gen-script", "--seed", "3", "--ops", "60",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert "wrote 60 ops" in capsys.readouterr().out
        assert len(OpScript.load(out).ops) == 60


class TestRun:
    def test_run_prints_stats_and_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "stats.txt"
        log = tmp_path / "pops.csv"
        rc = main(["run", *RUN_FLAGS, "--out", str(out),
                   "--dequeue-log", str(log)])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert out.read_text() == text
        stats = stats_dict(text)
        assert stats["final_occupancy"] == "0"
        assert int(stats["pops"]) >= 8
        lines = log.read_text().splitlines()
        assert lines[0] == "tick,id"
        assert len(lines) - 1 == int(stats["pops"])

    def test_run_deterministic(self, capsys):
        assert main(["run", *RUN_FLAGS]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["run", *RUN_FLAGS]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_run_backends_agree_via_cli(self, capsys):
        outputs = []
        for backend in ("behavioral", "systolic"):
            assert main(["run", *RUN_FLAGS, "--backend", backend]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_run_from_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--flows", "8", "--packets", "40", "--seed", "5",
              "--duration-ns", "1500", "--out", str(trace)])
        capsys.readouterr()
        rc = main(["run", "--trace", str(trace), *RUN_FLAGS[8:]])
        assert rc == EXIT_OK
        via_flags_rc = main(["run", *RUN_FLAGS])
        outs = capsys.readouterr().out
        assert via_flags_rc == EXIT_OK
        half = len(outs) // 2
        assert outs[:half] == outs[half:]

    def test_run_params_file_with_generator_extras(self, tmp_path, capsys):
        params = tmp_path / "mini.params"
        params.write_text(
            "timeout = 25\nprecision = 1\ndata_width = 9\n"
            "timeout_width = 7\nid_width = 6\ncapacity = 32\n"
            "flows = 8\npackets = 40\nseed = 5\nduration_ns = 1500\n")
        rc = main(["run", "--params", str(params)])
        assert rc == EXIT_OK
        from_params = capsys.readouterr().out
        assert main(["run", *RUN_FLAGS]) == EXIT_OK
        assert from_params == capsys.readouterr().out

    def test_params_file_takes_queue_flags(self, tmp_path, capsys):
        params = tmp_path / "mini.params"
        params.write_text(
            "timeout = 25\nprecision = 1\ndata_width = 9\n"
            "timeout_width = 7\nid_width = 6\ncapacity = 32\n"
            "flows = 8\npackets = 40\nseed = 5\nduration_ns = 1500\n")
        flags = ["--precision", "2", "--cycle-ns", "4", "--wr", "10",
                 "--wo", "6", "--wid", "7", "--capacity", "48"]
        assert main(["run", "--params", str(params), *flags]) == EXIT_OK
        from_params = capsys.readouterr().out
        assert main(["run", *RUN_FLAGS, *flags]) == EXIT_OK
        assert from_params == capsys.readouterr().out
        assert main(["run", *RUN_FLAGS]) == EXIT_OK
        assert from_params != capsys.readouterr().out

    def test_run_params_file_backend_honored(self, tmp_path, monkeypatch,
                                             capsys):
        seen = []
        real_run = harness.run

        def recording_run(params, packets, **kwargs):
            seen.append(params.backend)
            return real_run(params, packets, **kwargs)

        monkeypatch.setattr(harness, "run", recording_run)
        params = tmp_path / "wide.params"
        params.write_text(
            "timeout = 25\nprecision = 1\ndata_width = 9\n"
            "timeout_width = 7\nid_width = 6\ncapacity = 32\n"
            "backend = wide\n"
            "flows = 8\npackets = 40\nseed = 5\nduration_ns = 1500\n")
        assert main(["run", "--params", str(params)]) == EXIT_OK
        assert main(["run", "--params", str(params),
                     "--backend", "systolic"]) == EXIT_OK
        assert main(["run", *RUN_FLAGS]) == EXIT_OK
        assert seen == ["wide", "systolic", "behavioral"]

    def test_run_params_file_geometry_override(self, tmp_path, monkeypatch,
                                               capsys):
        seen = []
        real_run = harness.run

        def recording_run(params, packets, **kwargs):
            seen.append((params.n_units, params.m_blocks))
            return real_run(params, packets, **kwargs)

        monkeypatch.setattr(harness, "run", recording_run)
        params = tmp_path / "mini.params"
        params.write_text(
            "timeout = 25\nprecision = 1\ndata_width = 9\n"
            "timeout_width = 7\nid_width = 6\ncapacity = 32\n"
            "flows = 8\npackets = 40\nseed = 5\nduration_ns = 1500\n")
        assert main(["run", "--params", str(params), "--backend", "systolic",
                     "--units", "16", "--blocks", "2"]) == EXIT_OK
        assert main(["run", "--params", str(params)]) == EXIT_OK
        assert seen == [(16, 2), (0, 0)]

    def test_partial_geometry_is_derived(self, tmp_path, monkeypatch,
                                         capsys):
        """--units or --blocks given alone, on the command line or in a
        params file, leaves the geometry to be derived from the
        capacity, as SimParams.geometry does."""
        seen = []
        real_run = harness.run

        def recording_run(params, packets, **kwargs):
            seen.append(params.geometry())
            return real_run(params, packets, **kwargs)

        monkeypatch.setattr(harness, "run", recording_run)
        assert main(["run", *RUN_FLAGS, "--backend", "systolic",
                     "--units", "64"]) == EXIT_OK
        assert main(["run", *RUN_FLAGS, "--backend", "systolic",
                     "--blocks", "3"]) == EXIT_OK
        params = tmp_path / "units.params"
        params.write_text(
            "timeout = 25\nprecision = 1\ndata_width = 9\n"
            "timeout_width = 7\nid_width = 6\ncapacity = 32\n"
            "n_units = 4\nbackend = systolic\n"
            "flows = 8\npackets = 40\nseed = 5\nduration_ns = 1500\n")
        assert main(["run", "--params", str(params)]) == EXIT_OK
        # the file's n_units and a --blocks override make a full geometry
        assert main(["run", "--params", str(params),
                     "--blocks", "8"]) == EXIT_OK
        assert seen == [(8, 4), (8, 4), (8, 4), (4, 8)]
        assert main(["check", "--script", str(CORPORA / "short_to.script"),
                     "--right", "systolic", "--units", "4"]) == EXIT_OK

    def test_run_params_missing_generator_values(self, tmp_path, capsys):
        params = tmp_path / "bare.params"
        params.write_text("timeout = 25\n")
        rc = main(["run", "--params", str(params)])
        assert rc == EXIT_BADFILE
        assert "no trace and no generator values" in capsys.readouterr().err

    def test_run_missing_trace_file(self, capsys):
        rc = main(["run", "--trace", "/nonexistent/t.csv", *RUN_FLAGS[8:]])
        assert rc == EXIT_BADFILE

    def test_run_missing_params_file(self, capsys):
        rc = main(["run", "--params", "/nonexistent/x.params"])
        assert rc == EXIT_BADFILE

    def test_run_capacity_abort_exit_code(self, capsys):
        rc = main(["run", "--flows", "40", "--packets", "40", "--seed", "5",
                   "--duration-ns", "100", "--to", "100", "--precision", "1",
                   "--wr", "9", "--wo", "7", "--wid", "6", "--capacity", "16"])
        assert rc == EXIT_ABORT
        assert "aborted" in capsys.readouterr().err


class TestCheck:
    def test_agreeing_backends_exit_zero(self, capsys):
        rc = main(["check", "--script", str(CORPORA / "short_to.script")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "behavioral and wide agree" in out
        assert "wide_bits_needed=" in out

    def test_mixed_timeouts_diverge_from_wide_oracle(self, tmp_path, capsys):
        """Two timeout classes in one queue sit outside the design
        envelope: a short timeout can produce a small unwrapped value
        behind a large head, which the grouping reads as wrapped."""
        script = tmp_path / "mixed.script"
        script.write_text(
            "params data_width=9 timeout_width=7 id_width=6 "
            "capacity=16 precision=1\n"
            "150 push 1 120\n"
            "151 push 2 2\n")
        rc = main(["check", "--script", str(script)])
        assert rc == EXIT_DIVERGED
        assert "diverges at index 0" in capsys.readouterr().out

    def test_systolic_right_side(self, capsys):
        rc = main(["check", "--script", str(CORPORA / "short_to.script"),
                   "--right", "systolic", "--units", "4", "--blocks", "4"])
        assert rc == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_bad_script_path(self, capsys):
        rc = main(["check", "--script", "/nonexistent/s.script"])
        assert rc == EXIT_BADFILE


SCRIPT_HEAD = ("params data_width=9 timeout_width=7 id_width=6 "
               "capacity=16 precision=1\n")


class TestBadInput:
    """Malformed input exits 5, and an array geometry that does not fit
    the capacity exits 2, with one stderr line, before simulating."""

    @staticmethod
    def _one_line_error(rc, capsys, needle, code=EXIT_BADFILE):
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and needle in lines[0]
        assert "Traceback" not in captured.err

    def test_short_script_row(self, tmp_path, capsys):
        script = tmp_path / "short.script"
        script.write_text(SCRIPT_HEAD + "3 push\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, "line 2")

    def test_backward_script_ticks(self, tmp_path, capsys):
        script = tmp_path / "backward.script"
        script.write_text(SCRIPT_HEAD + "5 push 1 9\n3 push 2 9\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, "line 3")

    def test_script_ident_out_of_range(self, tmp_path, capsys):
        script = tmp_path / "ident.script"
        script.write_text(SCRIPT_HEAD + "0 push 99 10\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, "line 2: ident 99")

    def test_script_timeout_out_of_range(self, tmp_path, capsys):
        script = tmp_path / "timeout.script"
        script.write_text(SCRIPT_HEAD + "0 push 3 200\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, "line 2: timeout 200")

    def test_script_params_rejected_by_config(self, tmp_path, capsys):
        script = tmp_path / "widths.script"
        script.write_text("params data_width=7 timeout_width=7 id_width=6 "
                          "capacity=16 precision=1\n0 push 3 20\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, "line 1: data_width 7")

    def test_script_params_not_integer(self, tmp_path, capsys):
        script = tmp_path / "params.script"
        script.write_text("params data_width=x\n0 push 3 20\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, "line 1: invalid literal")

    def test_script_second_params_line(self, tmp_path, capsys):
        # the ops were checked under the first params line only
        script = tmp_path / "two_params.script"
        script.write_text(
            SCRIPT_HEAD + "0 push 5 100\n3 push 6 100\n"
            "params data_width=6 timeout_width=4 id_width=6 capacity=16 "
            "precision=1\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, "line 4: second params line")

    def test_check_geometry_mismatch(self, capsys):
        rc = main(["check", "--script", str(CORPORA / "short_to.script"),
                   "--right", "systolic", "--units", "3", "--blocks", "5"])
        self._one_line_error(rc, capsys, "geometry 3x5 != capacity 16",
                             code=EXIT_USAGE)

    def test_run_geometry_mismatch(self, capsys):
        rc = main(["run", "--params", "univ_scale", "--backend", "systolic",
                   "--units", "3", "--blocks", "5"])
        self._one_line_error(rc, capsys, "geometry 3x5 != capacity 4096",
                             code=EXIT_USAGE)

    def test_params_geometry_mismatch(self, tmp_path, capsys):
        params = tmp_path / "geometry.params"
        params.write_text("timeout = 25\ncapacity = 32\nid_width = 6\n"
                          "n_units = 3\nm_blocks = 5\n")
        rc = main(["run", "--params", str(params)])
        self._one_line_error(rc, capsys, "geometry 3x5 != capacity 32")

    def test_params_without_timeout(self, tmp_path, capsys):
        params = tmp_path / "notimeout.params"
        params.write_text("precision = 1\nflows = 8\npackets = 40\n")
        rc = main(["run", "--params", str(params)])
        self._one_line_error(rc, capsys, str(params))

    @pytest.mark.parametrize("body,needle", [
        ("backend = bogus\n", ":2: backend 'bogus' not in"),
        ("capacity = 1\n", ":2: capacity must be at least 2"),
        ("timeout = 600\n", ":1: timeout 600 outside (0, 511]"),
        ("cycle_time_ns = inf\n",
         ":2: cycle_time_ns inf is not a finite positive number"),
    ], ids=["backend", "capacity", "timeout_range", "cycle_time"])
    def test_params_file_rejected_with_line(self, tmp_path, capsys, body,
                                            needle):
        params = tmp_path / "bad.params"
        params.write_text(("" if body.startswith("timeout") else
                           "timeout = 25\n") + body + "flows = 8\n"
                          "packets = 40\nseed = 5\nduration_ns = 1500\n")
        rc = main(["run", "--params", str(params)])
        self._one_line_error(rc, capsys, str(params) + needle)

    def test_params_non_numeric_value(self, tmp_path, capsys):
        params = tmp_path / "abc.params"
        params.write_text("precision = 1\ntimeout = abc\n")
        rc = main(["run", "--params", str(params)])
        self._one_line_error(rc, capsys,
                             f"{params}:2: timeout = 'abc' is not a number")

    @pytest.mark.parametrize("flags,needle", [
        (["--to", "0"], "timeout 0 outside (0, 127]"),
        (["--to", "600", "--wo", "9", "--wr", "12"],
         "timeout 600 outside (0, 511]"),
        (["--precision", "0"], "precision must be a positive cycle count"),
        (["--cycle-ns", "nan"],
         "cycle_time_ns nan is not a finite positive number"),
        (["--wr", "0"], "data_width 0 must be at least 1"),
    ], ids=["to_zero", "to_above_wo", "precision_zero", "cycle_ns_nan",
            "wr_zero"])
    def test_run_bad_flag(self, capsys, flags, needle):
        rc = main(["run", *RUN_FLAGS, *flags])
        self._one_line_error(rc, capsys, needle, code=EXIT_USAGE)

    @pytest.mark.parametrize("to", ["0", "600"])
    def test_params_file_bad_flag(self, capsys, to):
        # the file is fine; the flag is at fault, so it is a usage error
        rc = main(["run", "--params", "univ_scale", "--to", to])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == f"error: timeout {to} outside (0, 511]\n"

    @pytest.mark.parametrize("flags,needle", [
        (["--wr", "0"], "data_width 0 must be at least 1"),
        (["--wo", "-1"], "timeout_width -1 must be at least 1"),
        (["--wo", "11"], "data_width 12 must exceed timeout_width 11"),
        (["--wid", "0"], "id_width 0 must be at least 1"),
        (["--capacity", "1"], "capacity must be at least 2"),
        (["--capacity", "8192"], "id_width 13 cannot address capacity 8192"),
        (["--precision", "0"], "precision must be a positive cycle count"),
        (["--cycle-ns", "0"], "cycle_time_ns 0.0 is not a finite positive"),
        (["--wo", "7"], "timeout 191 outside (0, 127]"),
    ], ids=["wr", "wo", "wo_against_file_wr", "wid", "capacity",
            "capacity_against_file_wid", "precision", "cycle_ns",
            "wo_against_file_timeout"])
    def test_params_file_bad_queue_flag(self, capsys, flags, needle):
        # the file is fine, so only a flag that reaches the run fails it
        rc = main(["run", "--params", "univ_scale", *flags])
        self._one_line_error(rc, capsys, needle, code=EXIT_USAGE)

    def test_gen_script_width_below_one(self, tmp_path, capsys):
        out = tmp_path / "s.script"
        rc = main(["gen-script", "--wo", "-1", "--out", str(out)])
        self._one_line_error(rc, capsys, "timeout_width -1 must be at least 1",
                             code=EXIT_USAGE)
        assert not out.exists()

    @pytest.mark.parametrize("flags,needle", [
        (["--pool", "0"], "pool 0 outside [1, 16]"),
        (["--ops", "-5"], "ops -5 must be at least 0"),
        (["--remove-rate", "1.5"], "remove_rate 1.5 outside [0, 1]"),
    ], ids=["pool_zero", "ops_negative", "remove_rate_above_one"])
    def test_gen_script_bad_flag(self, tmp_path, capsys, flags, needle):
        out = tmp_path / "s.script"
        rc = main(["gen-script", *flags, "--out", str(out)])
        self._one_line_error(rc, capsys, needle, code=EXIT_USAGE)
        assert not out.exists()

    def test_script_not_utf8(self, tmp_path, capsys):
        script = tmp_path / "binary.script"
        script.write_bytes(SCRIPT_HEAD.encode() + b"0 push 3 2\xff0\n")
        rc = main(["check", "--script", str(script)])
        self._one_line_error(rc, capsys, f"{script}:2: not UTF-8")

    def test_params_not_utf8(self, tmp_path, capsys):
        params = tmp_path / "binary.params"
        params.write_bytes(b"precision = 1\ntimeout = 2\xff5\n")
        rc = main(["run", "--params", str(params)])
        self._one_line_error(rc, capsys, f"{params}:2: not UTF-8")

    def test_trace_not_utf8(self, tmp_path, capsys):
        trace = tmp_path / "binary.csv"
        trace.write_bytes(b"arrival_ns,src,dst,sport,dport,proto\n"
                          b"10,10.0.0.1,10.0.0.2,1,2,6\n"
                          b"20,10.0.0.\xff,10.0.0.2,1,2,6\n")
        rc = main(["run", "--trace", str(trace), *RUN_FLAGS[8:]])
        self._one_line_error(rc, capsys, f"{trace}:3: not UTF-8")

    def test_gen_trace_zero_flows(self, tmp_path, capsys):
        rc = main(["gen-trace", "--flows", "0", "--packets", "10",
                   "--duration-ns", "100", "--out", str(tmp_path / "t.csv")])
        self._one_line_error(rc, capsys, "at least one packet per flow",
                             code=EXIT_USAGE)

    def test_gen_trace_negative_duration(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["gen-trace", "--flows", "5", "--packets", "20",
                   "--duration-ns", "-1000", "--out", str(out)])
        self._one_line_error(rc, capsys, "duration_ns -1000 is negative",
                             code=EXIT_USAGE)
        assert not out.exists()


class TestBench:
    def test_bench_reports_saturation(self, capsys):
        rc = main(["bench", "--count", "20000"])
        assert rc == EXIT_OK
        stats = stats_dict(capsys.readouterr().out)
        assert stats["accepted"] == "20000"
        assert stats["ceiling_mpps"] == "166.6667"
        assert float(stats["cycles_per_op"]) <= 3.01
        assert float(stats["modeled_mpps"]) >= 0.99 * 166.6667

    @pytest.mark.parametrize("flags, needle", [
        (["--cycle-ns", "0"], "cycle_time_ns 0.0"),
        (["--cycle-ns", "nan"], "cycle_time_ns nan"),
        (["--count", "0"], "count 0"),
        (["--count", "-1"], "count -1"),
        (["--units", "1", "--blocks", "1"], "capacity must be at least 2"),
        (["--wr", "5", "--wo", "7"], "data_width 5"),
        (["--pool", "0"], "pool 0"),
        (["--pool", "20"], "pool 20"),
        # a pool that overfills a 2x2 array would drop pushes silently
        (["--pool", "5", "--units", "2", "--blocks", "2"], "pool 5"),
        (["--wo", "0"], "timeout_width 0 must be at least 1"),
        (["--wid", "-1"], "id_width -1 must be at least 1"),
    ])
    def test_bad_flag_is_usage_error(self, flags, needle, capsys):
        rc = main(["bench", "--count", "30", *flags])
        TestBadInput._one_line_error(rc, capsys, needle, code=EXIT_USAGE)


class TestUsage:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.skipif(shutil.which("timerq") is None,
                        reason="console script not installed")
    def test_console_script_entry_point(self):
        proc = subprocess.run(["timerq", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "gen-trace" in proc.stdout
