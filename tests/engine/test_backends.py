"""Executor backends: factory, sharding determinism, event stream."""

import pytest

from repro.engine import (
    CellSpec,
    EventLog,
    ExperimentEngine,
    ProcessBackend,
    SerialBackend,
    backend_names,
    benchmark_specs,
    group_cells,
    make_backend,
)
from repro.engine.backends import null_emit, register_backend
from repro.engine.backends.remote import shard_of_batch
from repro.engine.cells import CellBatch

from .conftest import cells_experiment, store_entries


def _specs():
    return list(
        benchmark_specs("radix", "decode", "synts")
        + benchmark_specs("fmm", "decode", "nominal")
    )


class TestFactory:
    def test_in_tree_backends_registered(self):
        assert {"serial", "process", "remote"} <= set(
            backend_names()
        )

    def test_make_by_name(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=3), ProcessBackend)

    def test_unknown_backend_error_is_actionable(self):
        with pytest.raises(KeyError) as err:
            make_backend("quantum")
        message = str(err.value)
        assert "quantum" in message
        assert "serial" in message
        assert "register_backend" in message

    def test_duplicate_backend_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("serial", lambda workers: SerialBackend())

    def test_engine_accepts_backend_instance(self):
        backend = SerialBackend()
        eng = ExperimentEngine(backend=backend)
        assert eng.backend is backend

    def test_engine_default_backend_tracks_jobs(self):
        assert isinstance(ExperimentEngine().backend, SerialBackend)
        eng = ExperimentEngine(jobs=2)
        assert isinstance(eng.backend, ProcessBackend)
        eng.close()

    def test_explicit_single_worker_is_honoured(self):
        """--jobs 1 --backend process must not be bumped to 2 workers."""
        assert make_backend("process", workers=1).workers == 1

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)


class TestSharding:
    def test_shard_assignment_is_content_keyed(self):
        batch = CellBatch(specs=(CellSpec("radix", "decode", "synts"),))
        again = CellBatch(specs=(CellSpec("radix", "decode", "synts"),))
        assert shard_of_batch(batch, 7) == shard_of_batch(again, 7)
        assert 0 <= shard_of_batch(batch, 7) < 7
        with pytest.raises(ValueError):
            shard_of_batch(batch, 0)


class _DroppingBackend(SerialBackend):
    """Loses the last cell of every batch, or the whole last batch."""

    def __init__(self, whole_batch=False):
        self.whole_batch = whole_batch

    def run_batches(self, batches, emit=null_emit):
        results = super().run_batches(batches, emit)
        if self.whole_batch:
            return results[:-1]
        return [cells[:-1] for cells in results]


class TestShortBackendResult:
    @pytest.mark.parametrize("whole_batch", (False, True))
    def test_short_result_raises_naming_the_backend(self, whole_batch):
        eng = ExperimentEngine(backend=_DroppingBackend(whole_batch))
        with pytest.raises(RuntimeError, match="backend serial returned"):
            eng.run_cells(_specs())
        assert eng.cells_computed == 0


class TestEventStream:
    def test_batch_and_cache_events(self):
        eng = ExperimentEngine()
        log = eng.subscribe(EventLog())
        specs = _specs()
        eng.run_cells(specs)
        (batch,) = log.of_kind("batch_started")
        assert batch.get("n_cells") == len(specs)
        assert batch.get("n_pending") == len(specs)
        assert batch.get("backend") == "serial"
        computed = log.of_kind("cell_computed")
        assert len(computed) == len(specs)
        assert all(e.get("seconds") >= 0 for e in computed)
        assert len(log.of_kind("batch_finished")) == 1

        # warm rerun: everything is a cache hit
        eng.run_cells(specs)
        assert len(log.of_kind("cell_cached")) == len(specs)
        assert len(log.of_kind("cell_computed")) == len(specs)

    def test_no_subscribers_is_the_default(self):
        eng = ExperimentEngine()
        assert eng.run_cells(_specs()[:1])  # no crash, no output

    def test_unsubscribe(self):
        eng = ExperimentEngine()
        log = eng.subscribe(EventLog())
        eng.unsubscribe(log)
        eng.run_cells(_specs()[:1])
        assert log.events == []

    def test_experiment_memo_events(self):
        from repro.experiments.common import ExperimentResult

        eng = ExperimentEngine()
        log = eng.subscribe(EventLog())
        thunk = lambda: ExperimentResult(experiment_id="t", title="t")  # noqa: E731
        eng.experiment(("probe", 1), thunk)
        eng.experiment(("probe", 1), thunk)
        assert [e.get("experiment") for e in log.of_kind("experiment_computed")] == [
            "probe"
        ]
        assert [e.get("experiment") for e in log.of_kind("experiment_cached")] == [
            "probe"
        ]

    def test_json_lines_printer_emits_valid_json(self):
        import io
        import json

        from repro.engine import JsonLinesPrinter

        buffer = io.StringIO()
        eng = ExperimentEngine()
        eng.subscribe(JsonLinesPrinter(buffer))
        eng.run_cells(_specs()[:3])
        lines = [ln for ln in buffer.getvalue().splitlines() if ln]
        records = [json.loads(ln) for ln in lines]
        assert records[0]["event"] == "batch_started"
        assert any(r["event"] == "cell_computed" for r in records)

    def test_progress_printer_renders_batches(self):
        import io

        from repro.engine import ProgressPrinter

        buffer = io.StringIO()
        eng = ExperimentEngine()
        eng.subscribe(ProgressPrinter(buffer))
        eng.run_cells(_specs()[:2])
        text = buffer.getvalue()
        assert "2 cells" in text
        assert "radix/decode/synts#0" in text


class TestEngineCacheDetachment:
    def test_closed_engine_stops_receiving_corrupt_events(self, tmp_path):
        """close() must detach the engine from a shared store: no
        ghost events into dead sessions, previous callback restored."""
        from repro.engine import ResultCache

        seen = []
        original = lambda k, p, e: seen.append(k)  # noqa: E731
        cache = ResultCache(cache_dir=tmp_path)
        cache.on_corrupt = original
        spec = _specs()[0]
        first = ExperimentEngine(store=cache)
        cells_experiment(first, [spec])
        first_log = first.subscribe(EventLog())
        first.close()
        assert cache.on_corrupt is original  # caller's callback restored

        cache.tiers[0].clear()  # force the disk path on the next lookup
        (path,) = store_entries(tmp_path)
        path.write_text("{broken")
        second = ExperimentEngine(store=cache)
        second_log = second.subscribe(EventLog())
        cells_experiment(second, [spec])
        assert first_log.of_kind("cache_corrupt") == []  # no ghosts
        assert len(second_log.of_kind("cache_corrupt")) == 1  # live one does
        assert seen == [path.stem]  # original callback survived


class TestProcessBackendRegistryVisibility:
    def test_late_registration_fails_actionably_before_dispatch(self):
        """A workload registered after the worker pool exists is
        invisible to the workers (always under spawn; under fork, for
        anything registered post-fork).  The up-front registry probe
        must surface that as an actionable RuntimeError *before* any
        cell ships -- naming the bootstrap hook remedy -- not as a raw
        pickled KeyError traceback mid-run.  Two cell groups force
        real pool dispatch (a single batch is evaluated in-process
        and would mask the worker-side miss)."""
        from repro.engine import EventLog
        from repro.workloads import register_synthetic, unregister_workload

        eng = ExperimentEngine(jobs=2, backend="process")
        log = eng.subscribe(EventLog())
        # spin the workers up on built-in cells first (two groups, so
        # the batched dispatch really creates the pool)
        eng.run_cells(
            list(
                benchmark_specs("radix", "decode", "nominal")
                + benchmark_specs("fmm", "decode", "nominal")
            )
        )
        n_warmup = len(log.of_kind("cell_computed"))
        register_synthetic("synth_proc_late", heterogeneity=2.0)
        try:
            specs = list(
                benchmark_specs("synth_proc_late", "decode", "synts")
                + benchmark_specs("synth_proc_late", "simple_alu", "synts")
            )
            with pytest.raises(RuntimeError, match="use the serial backend") as err:
                eng.run_cells(specs)
            assert "REPRO_BOOTSTRAP" in str(err.value)
            # the probe fired before dispatch: no synthetic cell ran
            assert len(log.of_kind("cell_computed")) == n_warmup
        finally:
            eng.close()
            unregister_workload("synth_proc_late")

    def test_single_batch_runs_in_process(self):
        """One pending batch skips the pool round-trip entirely -- so
        even late runtime registrations work for single-group runs."""
        from repro.workloads import register_synthetic, unregister_workload

        eng = ExperimentEngine(jobs=2, backend="process")
        eng.run_cells(list(benchmark_specs("radix", "decode", "nominal")))
        register_synthetic("synth_proc_single", heterogeneity=2.0)
        try:
            specs = list(
                benchmark_specs("synth_proc_single", "decode", "synts")
            )
            assert len(eng.run_cells(specs)) == len(specs)
        finally:
            eng.close()
            unregister_workload("synth_proc_single")
