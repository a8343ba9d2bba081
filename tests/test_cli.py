"""Tests for the ``python -m repro`` command-line interface."""

import pytest

import repro.litmus
from repro.__main__ import main
from repro.harness import read_run_log


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep the CLI's default result cache out of the working tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestCli:
    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "litmus" in out

    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        for experiment in ("nope", "bench"):
            assert main([experiment]) == 2
            assert "unknown experiment" in capsys.readouterr().out

    def test_table3_runs(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "store counter" in out
        assert "area_mm2" in out

    def test_fig9_accepts_panel_argument(self, capsys):
        # Reduced check: the panel name flows through to the title.
        assert main(["fig9", "fanout"]) == 0
        out = capsys.readouterr().out
        assert "fanout" in out

    @pytest.mark.parametrize("experiment, argument, choice", [
        ("fig8", "bogus", "fanout"),
        ("fig9", "bogus", "fanout"),
        ("breakdown", "NOPE", "CR"),
        ("energy", "NOPE", "CR"),
    ], ids=["fig8", "fig9", "breakdown", "energy"])
    def test_unknown_argument_fails(self, capsys, experiment, argument,
                                    choice):
        # Rejected before anything runs, naming the valid choices.
        assert main([experiment, argument]) == 2
        out = capsys.readouterr().out
        assert repr(argument) in out and choice in out
        assert "[executor]" not in out

    @pytest.mark.parametrize("argv", [
        ["table3", "bogus", "extra"],
        ["fig8", "store", "bogus"],
        ["fig9", "fanout", "bogus"],
        ["breakdown", "CR", "bogus"],
        ["energy", "CR", "bogus", "extra"],
    ], ids=["table3", "fig8", "fig9", "breakdown", "energy"])
    def test_stray_positional_arguments_fail(self, capsys, argv):
        # Only fig8/fig9 (panel) and breakdown/energy (app) take one.
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "positional" in out
        assert "'bogus'" in out
        if "extra" in argv:
            assert "'extra'" in out
        assert "==" not in out  # no experiment printed a table
        assert "[executor]" not in out


def _table(out):
    """CLI output minus the executor summary line."""
    return [line for line in out.splitlines()
            if not line.startswith("[executor]")]


class TestBreakdownAndEnergyCli:
    """Both commands run through the executor, so its flags apply."""

    def test_breakdown_applies_faults(self, capsys):
        assert main(["breakdown", "CR", "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert main(["breakdown", "CR", "--no-cache",
                     "--faults", "drop+dup"]) == 0
        faulted = capsys.readouterr().out
        assert "wt_ack" in _table(plain)[-1]  # so's last row
        assert _table(faulted)[:3] == _table(plain)[:3]  # title + header
        assert _table(faulted) != _table(plain)
        assert "[executor] jobs=1 cache=off hits=0 misses=3" in faulted

    def test_energy_logs_its_three_runs(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        assert main(["energy", "CR", "--cache-dir", str(tmp_path / "cache"),
                     "--run-log", str(log)]) == 0
        assert "misses=3" in capsys.readouterr().out
        runs = read_run_log(log)
        assert [run["protocol"] for run in runs] == ["mp", "cord", "so"]
        assert all(run["experiment"] == "energy" and run["workload"] == "CR"
                   and not run["cached"] for run in runs)


class TestLitmusCli:
    def test_failing_sweep_exits_one(self, monkeypatch, capsys):
        cases = [repro.litmus.CheckSpec(test=test, protocol="mp")
                 for test in repro.litmus.classic_tests()
                 if test.name.startswith("ISA2.")]
        monkeypatch.setattr(repro.litmus, "full_suite", lambda: cases)
        with pytest.raises(SystemExit) as exit_info:
            main(["litmus", "--no-cache"])
        assert exit_info.value.code == 1
        out = capsys.readouterr().out
        assert "FAILED ISA2.split@mp" in out
        assert "forbidden outcome reached" in out
        assert "ALL PASSED" not in out

    def test_full_sweep_passes_then_serves_from_cache(self, tmp_path,
                                                      capsys):
        log = tmp_path / "runs.jsonl"
        args = ["litmus", "--cache-dir", str(tmp_path / "cache"),
                "--run-log", str(log)]
        assert main(args) == 0
        assert "ALL PASSED" in capsys.readouterr().out
        cold = read_run_log(log)
        assert cold and not any(entry["cached"] for entry in cold)

        assert main(args) == 0
        assert f"hits={len(cold)} misses=0" in capsys.readouterr().out
        warm = read_run_log(log)[len(cold):]
        assert len(warm) == len(cold)
        assert all(entry["cached"] for entry in warm)


class TestModelcheckFlags:
    """A flag that would change nothing is a usage error, not a no-op."""

    def test_spill_threshold_needs_visited_db(self, capsys):
        assert main(["modelcheck", "quick", "--no-cache",
                     "--spill-threshold", "1"]) == 2
        out = capsys.readouterr().out
        assert "--spill-threshold" in out and "--visited-db" in out
        assert "modelcheck[quick]" not in out  # nothing was checked

    @pytest.mark.parametrize("flag", [
        ["--gen-count", "3"], ["--gen-seed", "1"], ["--gen-threads", "3"],
        ["--gen-locs", "3"], ["--gen-values", "3"], ["--gen-ops", "2"],
        ["--gen-atomics"],
    ], ids=lambda flag: flag[0])
    def test_gen_flags_need_the_generated_suite(self, capsys, flag):
        for suite in (["quick"], []):  # [] is the default full suite
            assert main(["modelcheck", *suite, "--no-cache", *flag]) == 2
            out = capsys.readouterr().out
            assert flag[0] in out and "generated" in out
            assert "modelcheck[" not in out

    def test_gen_flags_shape_the_generated_suite(self, capsys):
        assert main(["modelcheck", "generated", "--no-cache",
                     "--gen-count", "2", "--gen-seed", "5",
                     "--gen-ops", "2", "--gen-atomics"]) == 0
        out = capsys.readouterr().out
        assert "modelcheck[generated]: 6 cases" in out  # 2 tests x 3

    def test_spilling_sweep_is_served_from_an_in_memory_cache(
            self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        spill = ["--visited-db", str(tmp_path / "visited"),
                 "--spill-threshold", "0"]
        assert main(["modelcheck", "quick", *cache]) == 0
        capsys.readouterr()
        log = tmp_path / "warm.jsonl"
        assert main(["modelcheck", "quick", *cache, *spill,
                     "--run-log", str(log)]) == 0
        assert "ALL PASSED" in capsys.readouterr().out
        warm = read_run_log(log)
        assert warm and all(entry["cached"] for entry in warm)
        assert main(["modelcheck", "quick", "--no-cache", *spill]) == 0
        assert "ALL PASSED" in capsys.readouterr().out


class TestScaleCli:
    def test_quick_sweep_writes_a_valid_run_table(self, tmp_path, capsys):
        from repro.harness import validate_run_table
        out = tmp_path / "scale"
        assert main(["scale", "--quick", "--reps", "1", "--no-cache",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "crossover" in stdout
        assert "run_table.csv" in stdout
        # 3 protocols x 3 sizes x 2 loads x 1 rep, all schema-valid.
        assert validate_run_table(out / "run_table.csv") == 18
        assert (out / "run_table.columns.md").exists()

    def test_bad_reps_value_fails(self, capsys):
        assert main(["scale", "--reps", "zero"]) == 2
        assert "--reps" in capsys.readouterr().out

    def test_rejects_positional_arguments(self, capsys):
        assert main(["scale", "--quick", "bogus"]) == 2
        assert "positional" in capsys.readouterr().out

    def test_help_documents_scale_options(self, capsys):
        main(["--help"])
        out = capsys.readouterr().out
        assert "scale" in out and "--reps" in out


class TestFlagPlacement:
    """One parser: flags read alike before or after any command."""

    @pytest.mark.parametrize("argv", [
        ["--no-cache", "--help"], ["scale", "--help"], ["modelcheck", "-h"],
        ["fig9", "--help"],
    ], ids=" ".join)
    def test_help_anywhere_prints_usage(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Usage" in out and "--reps" in out

    def test_modelcheck_after_executor_flags(self, capsys):
        assert main(["--no-cache", "modelcheck", "quick"]) == 0
        out = capsys.readouterr().out
        assert "ALL PASSED" in out
        assert "[executor] jobs=1 cache=off hits=0 misses=" in out

    def test_scale_after_executor_flags(self, tmp_path, capsys):
        from repro.harness import validate_run_table
        out = tmp_path / "scale"
        assert main(["--jobs", "2", "--no-cache", "scale", "--quick",
                     "--reps", "1", "--out", str(out)]) == 0
        assert "[executor] jobs=2 cache=off" in capsys.readouterr().out
        assert validate_run_table(out / "run_table.csv") == 18

    def test_second_modelcheck_suite_fails(self, capsys):
        assert main(["modelcheck", "classic", "quick"]) == 2
        out = capsys.readouterr().out
        assert "'classic'" in out and "'quick'" in out
        assert "modelcheck[" not in out  # nothing was checked

    @pytest.mark.parametrize("flags", [
        ["--faults", "drop"], ["--trace-out", "traces"],
    ], ids=lambda flags: flags[0])
    def test_modelcheck_rejects_timed_flags_anywhere(self, capsys, flags):
        assert main([*flags, "modelcheck", "quick"]) == 2
        assert f"unknown option {flags[0]!r}" in capsys.readouterr().out


class TestExecutorFlags:
    def test_bad_jobs_value_fails(self, capsys):
        assert main(["--jobs", "zero", "fig9"]) == 2
        assert "--jobs" in capsys.readouterr().out
        assert main(["--jobs", "0", "fig9"]) == 2

    def test_missing_flag_value_fails(self, capsys):
        assert main(["fig9", "--cache-dir"]) == 2
        assert "requires a value" in capsys.readouterr().out

    def test_unknown_flag_fails(self, capsys):
        assert main(["--frobnicate", "fig9"]) == 2
        assert "unknown option" in capsys.readouterr().out

    def test_help_documents_executor_flags(self, capsys):
        main(["--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out and "--cache-dir" in out

    def test_cache_round_trip_and_summary_line(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold_log = tmp_path / "cold.jsonl"
        warm_log = tmp_path / "warm.jsonl"
        flags = ["--cache-dir", str(cache)]

        assert main(["fig9", "fanout", *flags,
                     "--run-log", str(cold_log)]) == 0
        cold_out = capsys.readouterr().out
        cold = read_run_log(cold_log)
        assert cold and not any(line["cached"] for line in cold)
        assert f"misses={len(cold)}" in cold_out

        assert main(["fig9", "fanout", *flags,
                     "--run-log", str(warm_log)]) == 0
        warm_out = capsys.readouterr().out
        warm = read_run_log(warm_log)
        assert len(warm) == len(cold)
        assert all(line["cached"] for line in warm)  # zero new simulations
        assert f"hits={len(cold)} misses=0" in warm_out

    def test_no_cache_disables_cache(self, tmp_path, capsys):
        assert main(["--no-cache", "fig9", "fanout"]) == 0
        assert "cache=off" in capsys.readouterr().out


class TestTraceFlags:
    def test_trace_out_exports_validating_traces(self, tmp_path, capsys):
        import json
        from repro.trace import validate_chrome_trace

        traces = tmp_path / "traces"
        log = tmp_path / "runs.jsonl"
        assert main(["fig9", "fanout", "--no-cache",
                     "--trace-out", str(traces),
                     "--run-log", str(log)]) == 0
        assert f"traces={traces}" in capsys.readouterr().out

        lines = read_run_log(log)
        assert lines and all(line["trace_path"] for line in lines)
        files = sorted(traces.glob("*.trace.json"))
        assert files
        for path in files[:3]:
            validate_chrome_trace(json.loads(path.read_text()))

    def test_trace_flag_uses_default_directory(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig9", "fanout", "--no-cache", "--trace"]) == 0
        assert "traces=.repro-traces" in capsys.readouterr().out
        assert list((tmp_path / ".repro-traces").glob("*.trace.json"))

    def test_missing_trace_out_value_fails(self, capsys):
        assert main(["fig9", "--trace-out"]) == 2
        assert "requires a value" in capsys.readouterr().out
