"""Executor backends: engine selection, sharding determinism, event
stream."""

import pytest

from repro.engine import (
    CellSpec,
    EventLog,
    ExperimentEngine,
    RemoteBackend,
    SerialBackend,
    benchmark_specs,
)
from repro.engine.backends import null_emit
from repro.engine.backends.remote import shard_of_batch
from repro.engine.cells import CellBatch

from .conftest import cells_experiment, store_entries


def _specs():
    return list(
        benchmark_specs("radix", "decode", "synts")
        + benchmark_specs("fmm", "decode", "nominal")
    )


class TestFactory:
    def test_engine_accepts_backend_instance(self):
        backend = SerialBackend()
        eng = ExperimentEngine(backend=backend)
        assert eng.backend is backend

    def test_engine_default_backend_is_serial(self):
        assert isinstance(ExperimentEngine().backend, SerialBackend)

    def test_explicit_single_worker_is_honoured(self):
        """One worker address is one shard; a repeated address is
        still one worker (two drain threads must never share a
        socket)."""
        for workers in ("h:7700", "h:7700,h:7700"):
            with ExperimentEngine(remote_workers=workers) as eng:
                assert eng.backend.describe() == "remote[1]"

    def test_invalid_worker_counts_rejected(self):
        for workers in ("", [], " , "):
            with pytest.raises(ValueError, match="--workers"):
                ExperimentEngine(remote_workers=workers)
            with pytest.raises(ValueError, match="at least one"):
                RemoteBackend(workers)


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
