"""Command line behavior: exit codes, output files, determinism."""

import shutil
import subprocess

import pytest

from timerq import harness
from timerq.cli import EXIT_ABORT, EXIT_BADFILE, EXIT_DIVERGED, EXIT_OK, main
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
    """Malformed input exits 5 with one stderr line, before simulating."""

    @staticmethod
    def _one_line_error(rc, capsys, needle):
        assert rc == EXIT_BADFILE
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

    def test_params_without_timeout(self, tmp_path, capsys):
        params = tmp_path / "notimeout.params"
        params.write_text("precision = 1\nflows = 8\npackets = 40\n")
        rc = main(["run", "--params", str(params)])
        self._one_line_error(rc, capsys, str(params))


class TestBench:
    def test_bench_reports_saturation(self, capsys):
        rc = main(["bench", "--count", "20000"])
        assert rc == EXIT_OK
        stats = stats_dict(capsys.readouterr().out)
        assert stats["accepted"] == "20000"
        assert stats["ceiling_mpps"] == "166.6667"
        assert float(stats["cycles_per_op"]) <= 3.01
        assert float(stats["modeled_mpps"]) >= 0.99 * 166.6667


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
