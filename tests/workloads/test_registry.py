"""Workload registry: seeding, fingerprints and entry immutability,
synthetics, and the end-to-end guarantee that a registered workload
flows through the drivers with no code change.

The registration discipline both registries share is checked in
``tests/test_registries.py``."""

import math

import pytest

from repro.workloads import (
    HETEROGENEOUS_BENCHMARKS,
    SPLASH2_PROFILES,
    WORKLOAD_REGISTRY,
    build_benchmark,
    register_synthetic,
    register_workload,
    reported_benchmarks,
    synthetic_profile,
    unregister_workload,
)


@pytest.fixture
def fresh_names():
    """Snapshot the registry; unregister anything a test added."""
    before = set(WORKLOAD_REGISTRY.names())
    yield
    for name in set(WORKLOAD_REGISTRY.names()) - before:
        unregister_workload(name)


class TestSeeding:
    def test_splash2_profiles_registered(self):
        assert set(SPLASH2_PROFILES) <= set(WORKLOAD_REGISTRY.names())

    def test_reported_set_matches_paper(self):
        assert reported_benchmarks() == HETEROGENEOUS_BENCHMARKS

    def test_excluded_benchmarks_not_reported(self):
        for name in ("fft", "ocean", "water_sp"):
            assert name in WORKLOAD_REGISTRY
            assert not WORKLOAD_REGISTRY.get(name).reported


class TestRegistrationDiscipline:
    def test_fingerprint_tracks_registrations(self, fresh_names):
        before = WORKLOAD_REGISTRY.fingerprint()
        register_synthetic("synth_fp_probe")
        assert WORKLOAD_REGISTRY.fingerprint() != before
        unregister_workload("synth_fp_probe")
        assert WORKLOAD_REGISTRY.fingerprint() == before

    def test_fingerprint_tracks_content_not_just_names(self, fresh_names):
        register_synthetic("synth_fp_content", heterogeneity=2.0)
        first = WORKLOAD_REGISTRY.fingerprint()
        register_synthetic(
            "synth_fp_content", heterogeneity=8.0, replace=True
        )
        assert WORKLOAD_REGISTRY.fingerprint() != first

    def test_fingerprint_digests_each_entry_once(self, monkeypatch):
        """Experiment keys fingerprint the registry on every call; an
        unchanged entry hands back its memoised digest, no new
        ``asdict`` walk."""
        import repro.workloads.registry as registry

        first = WORKLOAD_REGISTRY.fingerprint()
        walked = []
        real_asdict = registry.asdict
        monkeypatch.setattr(
            registry, "asdict", lambda obj: walked.append(obj) or real_asdict(obj)
        )
        second = WORKLOAD_REGISTRY.fingerprint()
        assert walked == []
        assert [name for name, _ in second] == [name for name, _ in first]
        assert all(a is b for (_, a), (_, b) in zip(first, second))

    def test_replacement_changes_experiment_keys(self, fresh_names):
        """``replace=True`` installs a new entry, hence a new digest: the
        memo never carries the old parameters into experiment keys."""
        from repro.experiments.common import Experiment
        from repro.serialization import content_key

        class KeyEngine:
            def experiment(self, key_parts, thunk):
                return content_key("experiment", list(key_parts))

        @Experiment("probe", "probe", "probe").define
        def probe():
            raise AssertionError("keying never runs the driver")

        register_synthetic("synth_fp_memo", heterogeneity=2.0)
        fingerprint = WORKLOAD_REGISTRY.fingerprint()
        key = probe(engine=KeyEngine())
        assert probe(engine=KeyEngine()) == key
        register_synthetic("synth_fp_memo", heterogeneity=8.0, replace=True)
        assert WORKLOAD_REGISTRY.fingerprint() != fingerprint
        assert probe(engine=KeyEngine()) != key

    def test_stage_shapes_are_copied_at_registration(self, fresh_names):
        """Changing the caller's shapes dict after registration moves
        neither the cell key nor the built benchmark (regression: the
        entry held the dict by reference but memoised its digest)."""
        from dataclasses import replace

        from repro.engine import CellSpec
        from repro.workloads import STAGE_SHAPES

        shapes = dict(STAGE_SHAPES)
        entry = register_workload(
            replace(SPLASH2_PROFILES["radix"], name="radix_x"),
            stage_shapes=shapes,
        )
        spec = CellSpec("radix_x", "decode", "synts")
        key = spec.key()
        tail = build_benchmark("radix_x").intervals[0].threads[0]
        a = tail.error_functions["decode"].a
        shapes["decode"] = replace(shapes["decode"], a=11.0)
        del shapes["complex_alu"]
        assert spec.key() == key
        rebuilt = build_benchmark("radix_x")
        assert rebuilt.intervals[0].threads[0].error_functions["decode"].a == a == 5.5
        assert set(rebuilt.intervals[0].threads[0].error_functions) == set(STAGE_SHAPES)
        assert entry.digest()["stage_shapes"]["decode"]["a"] == 5.5
        with pytest.raises(TypeError):
            entry.stage_shapes["decode"] = shapes["decode"]

    def test_profile_sequences_are_copied_at_construction(self, fresh_names):
        """A profile built from lists keeps tuples: changing the list
        later moves neither the cell key nor the built benchmark."""
        from repro.engine import CellSpec
        from repro.workloads import BenchmarkProfile

        multipliers = [4.0, 2.0, 1.5, 1.0]
        register_workload(
            BenchmarkProfile(
                name="listed_x",
                thread_multipliers=multipliers,
                error_scale=1.0,
                instructions=[500_000] * 4,
                cpi_base=[1.2] * 4,
            )
        )
        spec = CellSpec("listed_x", "decode", "synts")
        key = spec.key()
        built = build_benchmark("listed_x").intervals[0].threads[0]
        multipliers[0] = 9.0
        assert spec.key() == key
        rebuilt = build_benchmark("listed_x").intervals[0].threads[0]
        assert rebuilt.error_functions == built.error_functions
        profile = WORKLOAD_REGISTRY.get("listed_x").profile
        assert profile.thread_multipliers == (4.0, 2.0, 1.5, 1.0)

    def test_reregistration_never_serves_stale_cells(self, fresh_names):
        """Same name, different parameters -> different cell cache
        keys, so a shared engine/cache can never return yesterday's
        numbers (regression: keys used to hash the name only)."""
        from repro.engine import CellSpec, ExperimentEngine

        eng = ExperimentEngine()
        register_synthetic("synth_stale", heterogeneity=2.0)
        spec = CellSpec("synth_stale", "decode", "synts")
        key_low = spec.key()
        (low,) = eng.run_cells([spec])
        unregister_workload("synth_stale")
        register_synthetic("synth_stale", heterogeneity=8.0)
        spec = CellSpec("synth_stale", "decode", "synts")
        assert spec.key() != key_low
        (high,) = eng.run_cells([spec])
        assert high.energy != low.energy
        assert eng.cells_computed == 2  # nothing served stale


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = synthetic_profile("s", n_threads=6, heterogeneity=3.0)
        b = synthetic_profile("s", n_threads=6, heterogeneity=3.0)
        assert a == b

    def test_heterogeneity_spread_honoured(self):
        profile = synthetic_profile("s", n_threads=8, heterogeneity=4.0)
        assert profile.n_threads == 8
        assert math.isclose(profile.heterogeneity, 4.0, rel_tol=1e-4)
        # thread 0 is the timing-speculation-critical thread (Fig. 3.5)
        assert profile.thread_multipliers[0] == max(
            profile.thread_multipliers
        )

    def test_interval_count_parameterized(self):
        profile = synthetic_profile("s", n_intervals=5)
        assert profile.n_intervals == 5
        assert len(profile.interval_drift) == 5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            synthetic_profile("s", n_threads=0)
        with pytest.raises(ValueError):
            synthetic_profile("s", heterogeneity=0.5)
        with pytest.raises(ValueError):
            synthetic_profile("s", n_intervals=0)

    def test_registered_synthetic_builds_and_runs(self, fresh_names):
        register_synthetic("synth_build", n_threads=6, heterogeneity=3.0)
        bm = build_benchmark("synth_build")
        assert bm.heterogeneous
        assert len(bm.intervals) == 3
        assert len(bm.intervals[0].threads) == 6

    def test_stage_scale_gives_custom_shapes(self, fresh_names):
        register_synthetic("synth_hot", stage_scale={"decode": 2.0})
        hot = build_benchmark("synth_hot", stages=["decode"])
        register_synthetic("synth_ref")
        ref = build_benchmark("synth_ref", stages=["decode"])
        err_hot = hot.intervals[0].threads[0].error_functions["decode"]
        err_ref = ref.intervals[0].threads[0].error_functions["decode"]
        assert err_hot(0.6) > err_ref(0.6)

    def test_unknown_stage_scale_rejected(self, fresh_names):
        with pytest.raises(KeyError, match="unknown stages"):
            register_synthetic("synth_bad", stage_scale={"fetch": 2.0})


class TestEndToEnd:
    def test_synthetic_runs_through_engine_cells(self, fresh_names):
        from repro.engine import ExperimentEngine, benchmark_specs, totalize

        register_synthetic("synth_cells", heterogeneity=3.0)
        eng = ExperimentEngine()
        totals = totalize(
            eng.run_cells(list(benchmark_specs("synth_cells", "decode", "synts")))
        )
        assert totals.total_energy > 0 and totals.total_time > 0

    def test_synthetic_flows_through_headline_cli(self, fresh_names, capsys):
        """Acceptance: a registered synthetic workload runs end-to-end
        through ``python -m repro headline`` with no driver changes."""
        from repro.__main__ import main
        from repro.experiments import headline

        register_synthetic(
            "synth_headline", reported=True, heterogeneity=3.5
        )
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "headline" in out
        # and the synthetic genuinely participated in the comparison
        gains = headline.stage_gains("decode")
        assert "synth_headline" in gains
        per_core_gain, no_ts_gain = gains["synth_headline"]
        assert per_core_gain > 0.0  # heterogeneity 3.5x: SynTS wins

    def test_synthetic_joins_fig_6_18_rows(self, fresh_names):
        """The reported flag puts a synthetic benchmark into every
        reported-set driver, keyed so memoised figures do not go
        stale."""
        from repro.engine import engine_session
        from repro.experiments import fig_6_18

        with engine_session():
            baseline = fig_6_18.run()
            register_synthetic("synth_618", reported=True, heterogeneity=3.0)
            extended = fig_6_18.run()
        base_names = {row[1] for row in baseline.rows}
        ext_names = {row[1] for row in extended.rows}
        assert "synth_618" not in base_names
        assert "synth_618" in ext_names
        assert len(extended.rows) == len(baseline.rows) + 3  # 3 stages
