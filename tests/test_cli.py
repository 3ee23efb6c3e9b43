"""Tests for the ``python -m repro`` command-line interface."""

import sys

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig_6_18" in out and "heterogeneity" in out
        # the list subcommand covers the registries too
        assert "experiments:" in out and "ablations:" in out
        assert "schemes:" in out and "synts" in out and "online" in out
        assert "benchmarks:" in out
        assert "radix" in out and "[reported]" in out
        assert "fft" in out and "[excluded]" in out

    def test_list_benchmarks_sees_registrations(self, capsys):
        from repro.workloads import register_synthetic, unregister_workload

        register_synthetic("synth_cli", heterogeneity=2.0)
        try:
            assert main(["list"]) == 0
            assert "synth_cli" in capsys.readouterr().out
        finally:
            unregister_workload("synth_cli")

    def test_run_single(self, capsys):
        assert main(["run", "fig_4_7"]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out.lower()

    def test_run_dict_result(self, capsys):
        assert main(["run", "fig_6_17"]) == 0
        out = capsys.readouterr().out
        assert "radix" in out and "fmm" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig_9_99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_ablation(self, capsys):
        assert main(["ablation", "sync_topology"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out

    def test_ablation_unknown(self, capsys):
        assert main(["ablation", "nope"]) == 2
        assert "unknown ablation" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestEngineCLI:
    def test_experiment_shorthand(self, capsys):
        """``python -m repro fig_4_7`` == ``python -m repro run fig_4_7``."""
        assert main(["fig_4_7"]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out.lower()

    def test_value_flag_before_shorthand_experiment(self, tmp_path, capsys):
        """`--cache-dir D table_5_1`: the flag's value must not be
        mistaken for the experiment token."""
        cache = str(tmp_path / "cache")
        assert main(["--cache-dir", cache, "table_5_1", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "table_5_1" in captured.out
        assert f"store tier jsondir({cache})" in captured.err

    def test_store_flag_before_subcommand(self, tmp_path, capsys):
        """Pre-subcommand engine flags must actually reach the engine
        (subparser defaults must not clobber them)."""
        cache = str(tmp_path / "cache")
        assert main(["--cache-dir", cache, "--stats", "run", "fig_4_7"]) == 0
        captured = capsys.readouterr()
        assert "sampling" in captured.out.lower()
        assert "store tier memory" in captured.err
        assert "store tier jsondir" in captured.err

    def test_cache_dir_warm_run_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", "fig_4_7", "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert main(["run", "fig_4_7", "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_stats_flag_reports_cache(self, capsys):
        assert main(["run", "fig_4_7", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "cache:" in captured.err

    def test_stats_reports_cells_computed_and_reused(self, tmp_path, capsys):
        """`run all` reuses cells across figures within the session
        (headline's are fig_6_18's); --stats counts both kinds, and the
        cache dir keeps only experiment results, so a rerun computes
        and reuses no cell."""
        import json

        cache = tmp_path / "cache"
        args = ["run", "all", "--cache-dir", str(cache), "--stats"]
        assert main([*args, "--log-json"]) == 0
        err = capsys.readouterr().err
        events = [json.loads(ln) for ln in err.splitlines() if ln[:1] == "{"]
        kinds = [event["event"] for event in events]
        computed = kinds.count("cell_computed")
        reused = sum(
            event["n_cached"]
            for event in events
            if event["event"] == "batch_started"
        )
        assert computed > 0 and reused > 0
        assert (
            f"cells: computed {computed}, reused {reused} in this session"
            in err
        )
        entries = list(cache.glob("??/*.json"))
        assert len(entries) == kinds.count("experiment_computed")

        assert main(args) == 0
        err = capsys.readouterr().err
        assert "cells: computed 0, reused 0 in this session" in err

    def test_stats_names_the_serial_backend(self, capsys):
        assert main(["fig_4_7", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "(backend=serial)" in err
        # no cache dir: one memory store, no disk tier
        assert "store tier memory" in err and "jsondir" not in err

    def test_unknown_backend_rejected(self):
        """--workers alone selects the remote backend: there is no
        --backend choice left, known name or not."""
        for name in ("quantum", "serial"):
            with pytest.raises(SystemExit):  # argparse: unrecognized
                main(["run", "fig_4_7", "--backend", name])

    @pytest.mark.parametrize("flag", ("--jobs", "-j"))
    def test_removed_jobs_flag_rejected(self, flag):
        """Cells run serially unless --workers names remote workers:
        the process pool's --jobs is gone."""
        with pytest.raises(SystemExit):  # argparse: unrecognized
            main(["run", "fig_4_7", flag, "2"])

    def test_progress_flag_streams_to_stderr(self, capsys):
        assert main(["run", "fig_6_17", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "repro engine:" in captured.err
        assert "repro engine:" not in captured.out

    def test_log_json_flag_streams_events(self, capsys):
        import json

        assert main(["run", "fig_1_2", "--log-json"]) == 0
        captured = capsys.readouterr()
        lines = [ln for ln in captured.err.splitlines() if ln.startswith("{")]
        assert lines, "expected JSON event lines on stderr"
        events = [json.loads(ln)["event"] for ln in lines]
        assert "experiment_computed" in events or "experiment_cached" in events


class TestBootstrapCLI:
    """A ``REPRO_BOOTSTRAP`` hook that cannot run stops the CLI cleanly:
    exit 2 and one ``repro:`` line naming the spec, no traceback."""

    @pytest.fixture
    def failing_hook(self, tmp_path, monkeypatch):
        module = "repro_test_failing_hook"
        (tmp_path / f"{module}.py").write_text(
            "def register():\n"
            "    raise ValueError('registration refused')\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        yield f"{module}:register"
        sys.modules.pop(module, None)

    def _list_with_bootstrap(self, spec, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BOOTSTRAP", spec)
        assert main(["list"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ")
        assert repr(spec) in line
        return line

    def test_unimportable_hook_module(self, monkeypatch, capsys):
        line = self._list_with_bootstrap(
            "repro_no_such_hook_module:register", monkeypatch, capsys
        )
        assert "cannot import bootstrap module" in line

    def test_raising_hook(self, failing_hook, monkeypatch, capsys):
        line = self._list_with_bootstrap(failing_hook, monkeypatch, capsys)
        assert "registration refused" in line


class TestCacheCLI:
    def _warm(self, cache_dir):
        assert main(["run", "fig_4_7", "--cache-dir", cache_dir]) == 0

    def test_info_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out and str(tmp_path) in out

    def test_info_after_run_counts_entries(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        self._warm(cache)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" not in out and "entries:" in out

    def test_prune_and_clear(self, tmp_path, capsys):
        import json

        cache = str(tmp_path / "c")
        self._warm(cache)
        capsys.readouterr()
        # nothing is older than a week
        assert main(
            ["cache", "prune", "--older-than", "7d", "--cache-dir", cache]
        ) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        # everything is older than zero seconds
        assert main(
            ["cache", "prune", "--older-than", "0s", "--cache-dir", cache]
        ) == 0
        out = capsys.readouterr().out
        assert "pruned" in out and "pruned 0 entries" not in out
        # a pruned store rebuilds cleanly and clear empties it
        self._warm(cache)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache]) == 0
        assert "entries: 0" in capsys.readouterr().out
        # the on-disk layout stayed plain JSON throughout
        self._warm(cache)
        entries = list((tmp_path / "c").rglob("*.json"))
        assert entries and all(
            json.loads(p.read_text()) for p in entries
        )

    def test_prune_requires_older_than(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_prune_rejects_bad_duration(self, tmp_path, capsys):
        assert main(
            [
                "cache",
                "prune",
                "--older-than",
                "fortnight",
                "--cache-dir",
                str(tmp_path),
            ]
        ) == 2
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "action", [["info"], ["clear"], ["prune", "--older-than", "7d"]]
    )
    def test_missing_dir_is_refused_not_created(self, tmp_path, capsys, action):
        missing = tmp_path / "typo"
        assert main(["cache", *action, "--cache-dir", str(missing)]) == 2
        err = capsys.readouterr().err
        assert f"repro cache: no cache directory at {missing}" in err
        assert not missing.exists()

    def test_prune_checks_older_than_before_the_dir(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        assert main(["cache", "prune", "--cache-dir", str(missing)]) == 2
        assert "--older-than" in capsys.readouterr().err
        assert not missing.exists()

    def test_run_still_creates_a_new_cache_dir(self, tmp_path, capsys):
        new = tmp_path / "new"
        self._warm(str(new))
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(new)]) == 0
        assert "entries: 0" not in capsys.readouterr().out

    def test_cache_without_dir_is_actionable(self, capsys):
        assert main(["cache", "info"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_cache_dir_before_subcommand_survives(self, tmp_path, capsys):
        """`repro --cache-dir D cache info` must see D (subparser
        defaults must not clobber pre-subcommand engine flags)."""
        assert main(["--cache-dir", str(tmp_path), "cache", "info"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_duration_parsing(self):
        from repro.__main__ import _parse_duration

        assert _parse_duration("3600") == 3600.0
        assert _parse_duration("30s") == 30.0
        assert _parse_duration("15m") == 900.0
        assert _parse_duration("12h") == 43200.0
        assert _parse_duration("7d") == 604800.0
        with pytest.raises(ValueError, match="duration"):
            _parse_duration("7w")
        with pytest.raises(ValueError, match="non-negative"):
            _parse_duration("-5m")
        # nan/inf must error, not silently prune nothing
        with pytest.raises(ValueError, match="duration"):
            _parse_duration("nan")
        with pytest.raises(ValueError, match="duration"):
            _parse_duration("inf")
