"""Tests for the unified telemetry layer (src/repro/telemetry/).

The load-bearing guarantee is that telemetry is *observation only*:
for fixed seeds, results are byte-identical with tracing and recording
enabled or disabled, across every simulation method and worker count —
the span/record/metric paths never touch the engine's RNG.  On top of
that: trace trees have the documented shape (every shard dispatch and
worker warm-up exactly once, parents correct), and records survive torn
lines.
"""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backends import FakeGuadalupe
from repro.circuits import QuantumCircuit
from repro.telemetry import __main__ as telemetry_cli
from repro.telemetry import (
    TelemetryError,
    clear_metrics,
    collect_records,
    collect_trace,
    current_span,
    inc,
    iter_records,
    merge_snapshot,
    metrics_baseline,
    metrics_delta,
    metrics_snapshot,
    observe,
    record,
    record_span,
    render_trace,
    set_gauge,
    set_record_sink,
    span,
    summarize_records,
    tracing_enabled,
)

SHOTS = 64


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Telemetry state is process-global: every test starts clean."""
    clear_metrics()
    set_record_sink(None)
    yield
    clear_metrics()
    set_record_sink(None)


@pytest.fixture(scope="module")
def backend():
    backend = FakeGuadalupe()
    yield backend
    backend.close_services()


def generic_circuit(num_qubits: int, seed: int) -> QuantumCircuit:
    """Seeded random layered circuit (deliberately non-Clifford)."""
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, num_qubits)
    for layer in range(2):
        for q in range(num_qubits):
            qc.rz(float(rng.uniform(0, 2 * np.pi)), q)
            qc.sx(q)
        for q in range(layer % 2, num_qubits - 1, 2):
            qc.cx(q, q + 1)
    for q in range(num_qubits):
        qc.measure(q, q)
    return qc


def counts_of(result):
    return [dict(e.counts) for e in result.experiments]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_disabled_span_yields_none(self):
        assert not tracing_enabled()
        with span("anything", attr=1) as s:
            assert s is None
        assert current_span() is None
        assert record_span("event") is None

    def test_nesting_and_attributes(self):
        with collect_trace("t") as trace:
            with span("outer", level=0) as outer:
                with span("inner") as inner:
                    inner.annotate(found=True)
                assert current_span() is outer
        assert [root.name for root in trace.roots] == ["outer"]
        (outer,) = trace.roots
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.attributes == {"level": 0}
        assert outer.children[0].attributes == {"found": True}
        assert outer.wall_seconds >= outer.children[0].wall_seconds >= 0.0

    def test_record_span_grafts_children(self):
        payload = {
            "name": "remote",
            "wall_seconds": 0.5,
            "attributes": {"pid": 42},
            "children": [{"name": "leaf", "attributes": {}}],
        }
        with collect_trace() as trace:
            with span("parent"):
                record_span("dispatch", wall_seconds=1.0,
                            children=[payload], jobs=3)
        (dispatch,) = trace.find("dispatch")
        assert dispatch.attributes == {"jobs": 3}
        assert dispatch.wall_seconds == 1.0
        (remote,) = dispatch.children
        assert remote.attributes == {"pid": 42}
        assert [s.name for s in remote.iter_spans()] == ["remote", "leaf"]

    def test_traces_do_not_nest(self):
        with collect_trace():
            with pytest.raises(TelemetryError):
                with collect_trace():
                    pass  # pragma: no cover
        # the failed inner attempt must not have torn down the state
        assert not tracing_enabled()

    def test_exception_still_closes_span(self):
        with collect_trace() as trace:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (doomed,) = trace.roots
        assert doomed.name == "doomed"
        assert current_span() is None

    def test_serialization_roundtrip_and_render(self, tmp_path):
        with collect_trace("roundtrip") as trace:
            with span("a", x=1):
                with span("b"):
                    pass
        path = tmp_path / "trace.json"
        trace.save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-telemetry-trace-v1"
        assert payload["roots"][0]["name"] == "a"
        assert payload["roots"][0]["children"][0]["name"] == "b"
        text = render_trace(trace)
        assert "a" in text and "b" in text


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counters_gauges_histograms(self):
        inc("requests", method="x")
        inc("requests", 2, method="x")
        set_gauge("depth", 7.0)
        observe("latency", 0.5)
        observe("latency", 1.5)
        snap = metrics_snapshot()
        assert snap["counters"]["requests{method=x}"] == 3
        assert snap["gauges"]["depth"] == 7.0
        hist = snap["histograms"]["latency"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(2.0)
        assert hist["min"] == 0.5 and hist["max"] == 1.5

    def test_delta_and_merge_roundtrip(self):
        inc("jobs", 5)
        observe("wall", 1.0)
        base = metrics_baseline()
        inc("jobs", 3)
        observe("wall", 2.0)
        delta = metrics_delta(base)
        assert delta["counters"]["jobs"] == 3
        assert delta["histograms"]["wall"]["count"] == 1
        assert delta["histograms"]["wall"]["sum"] == pytest.approx(2.0)
        # merging the delta into a clean slate reproduces the new work
        clear_metrics()
        merge_snapshot(delta)
        snap = metrics_snapshot()
        assert snap["counters"]["jobs"] == 3
        assert snap["histograms"]["wall"]["count"] == 1

    def test_merge_tolerates_none_and_empty(self):
        merge_snapshot(None)
        merge_snapshot({})
        assert metrics_snapshot()["counters"] == {}


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

class TestRecords:
    def test_sink_roundtrip_and_summary(self, tmp_path):
        sink = set_record_sink(tmp_path)
        assert sink.endswith("records.jsonl")
        record("execute", method="statevector", qubits=4,
               wall_seconds=0.25)
        record("execute", method="statevector", qubits=4,
               wall_seconds=0.75)
        record("batch", jobs=2, workers=2, shards=2, wall_seconds=1.0)
        set_record_sink(None)
        rows = list(iter_records(sink))
        assert [row["kind"] for row in rows] == [
            "execute", "execute", "batch"
        ]
        assert all("ts" in row for row in rows)
        summary = summarize_records(rows)
        assert summary["total_records"] == 3
        bucket = summary["methods"]["statevector/q4"]
        assert bucket["count"] == 2
        assert bucket["wall_seconds"] == pytest.approx(1.0)
        assert summary["batches"] == {
            "count": 1, "jobs": 2, "wall_seconds": 1.0
        }

    def test_disabled_recording_is_a_noop(self, tmp_path):
        record("execute", method="x")
        assert list(iter_records(tmp_path / "missing.jsonl")) == []

    def test_iter_records_skips_torn_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        good = json.dumps({"kind": "execute", "method": "sv"})
        path.write_text(good + "\n" + '{"kind": "exec' + "\n" +
                        good + "\n")
        rows = list(iter_records(path))
        assert len(rows) == 2

    def test_collect_records_buffers_instead_of_writing(self, tmp_path):
        sink = set_record_sink(tmp_path)
        with collect_records() as buffered:
            record("execute", method="sv")
        assert len(buffered) == 1
        # nothing hit the file while the buffer was active
        assert list(iter_records(sink)) == []


class TestReportCLI:
    def test_report_prints_counts_of_a_recorded_run(
        self, backend, tmp_path, capsys
    ):
        sink = set_record_sink(tmp_path)
        backend.run(
            generic_circuit(3, 0), shots=SHOTS, seed=5,
            method="density_matrix",
        )
        set_record_sink(None)
        rows = list(iter_records(sink))
        assert [row["kind"] for row in rows] == ["execute"]
        assert telemetry_cli.main(["report", sink]) == 0
        out = capsys.readouterr().out
        assert "telemetry records: 1" in out
        assert "density_matrix/q3: 1 runs" in out

    def test_report_on_missing_path_fails_loudly(self, tmp_path, capsys):
        missing = tmp_path / "no-such-file.jsonl"
        assert telemetry_cli.main(["report", str(missing)]) != 0
        captured = capsys.readouterr()
        assert "no-such-file.jsonl" in captured.err
        assert "telemetry records" not in captured.out

    @staticmethod
    def _sink(tmp_path, rows, tail=""):
        path = tmp_path / "records.jsonl"
        path.write_text(
            "".join(json.dumps(row) + "\n" for row in rows) + tail
        )
        return str(path)

    ROWS = [
        {"kind": "execute", "method": "statevector", "qubits": 4,
         "wall_seconds": 0.25},
        {"kind": "execute", "method": "statevector", "qubits": 4,
         "wall_seconds": 0.75},
        {"kind": "batch", "jobs": 6, "workers": 2, "shards": 2,
         "wall_seconds": 1.5},
        {"kind": "batch", "jobs": 2, "workers": 2, "shards": 2,
         "wall_seconds": 0.5},
    ]

    def test_report_json_matches_summary(self, tmp_path, capsys):
        sink = self._sink(tmp_path, self.ROWS)
        assert telemetry_cli.main(["report", sink, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == summarize_records(self.ROWS)

    def test_report_prints_method_and_batch_totals(self, tmp_path, capsys):
        sink = self._sink(tmp_path, self.ROWS)
        assert telemetry_cli.main(["report", sink]) == 0
        out = capsys.readouterr().out
        assert "telemetry records: 4" in out
        assert (
            "statevector/q4: 2 runs, mean 500.00 ms, max 750.00 ms" in out
        )
        assert "batches: 2 runs, 8 jobs, 2.00 s total" in out
        assert "faults" not in out

    def test_report_on_empty_sink_reports_zero(self, tmp_path, capsys):
        sink = self._sink(tmp_path, [])
        assert telemetry_cli.main(["report", sink]) == 0
        out = capsys.readouterr().out
        assert out == "telemetry records: 0\n"

    def test_report_skips_torn_lines(self, tmp_path, capsys):
        sink = self._sink(tmp_path, self.ROWS[:1], tail='{"kind": "exe')
        assert telemetry_cli.main(["report", sink]) == 0
        assert "telemetry records: 1" in capsys.readouterr().out

    def test_report_on_directory_fails_loudly(self, tmp_path, capsys):
        assert telemetry_cli.main(["report", str(tmp_path)]) != 0
        captured = capsys.readouterr()
        assert str(tmp_path) in captured.err
        assert captured.out == ""

    def test_calibrate_subcommand_is_gone(self, tmp_path, capsys):
        sink = self._sink(tmp_path, self.ROWS)
        with pytest.raises(SystemExit) as exit_info:
            telemetry_cli.main(["calibrate", sink])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_module_entry_point_exit_code(self, tmp_path):
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        missing = str(tmp_path / "missing.jsonl")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report", missing],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 1
        assert f"cannot read {missing}" in completed.stderr
        assert completed.stdout == ""


def _span_payload(name, wall, children=()):
    return {
        "name": name,
        "started_at": 0.0,
        "wall_seconds": wall,
        "cpu_seconds": 0.0,
        "attributes": {},
        "children": list(children),
    }


class TestProfileCLI:
    #: two levels, binary fractions so every sum is exact: ``evaluate``
    #: runs twice under one ``workload`` root, ``prepare`` once
    TRACE = {
        "format": "repro-telemetry-trace-v1",
        "name": "synthetic",
        "started_at": 0.0,
        "roots": [
            _span_payload(
                "workload",
                2.0,
                [
                    _span_payload("evaluate", 0.5),
                    _span_payload("evaluate", 0.75),
                    _span_payload("prepare", 0.25),
                ],
            )
        ],
    }
    PROFILE = {
        "evaluate": {"count": 2, "total_seconds": 1.25, "self_seconds": 1.25},
        "workload": {"count": 1, "total_seconds": 2.0, "self_seconds": 0.5},
        "prepare": {"count": 1, "total_seconds": 0.25, "self_seconds": 0.25},
    }

    def _trace(self, tmp_path, payload=None):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload or self.TRACE))
        return str(path)

    def test_json_totals_and_self_times(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        assert telemetry_cli.main(["profile", path, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == self.PROFILE
        assert list(printed) == ["evaluate", "workload", "prepare"]

    def test_table_sorted_by_self_time(self, tmp_path, capsys):
        assert telemetry_cli.main(["profile", self._trace(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines[1:]] == [
            ["evaluate", "2", "1.2500", "1.2500"],
            ["workload", "1", "2.0000", "0.5000"],
            ["prepare", "1", "0.2500", "0.2500"],
        ]

    def test_saved_trace_round_trips(self, tmp_path, capsys):
        with collect_trace("t") as trace:
            with span("outer"):
                with span("inner"):
                    pass
        path = tmp_path / "saved.json"
        trace.save(path)
        assert telemetry_cli.main(["profile", str(path), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert {name: row["count"] for name, row in printed.items()} == {
            "outer": 1,
            "inner": 1,
        }

    def test_missing_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-trace.json")
        assert telemetry_cli.main(["profile", missing]) == 1
        captured = capsys.readouterr()
        assert missing in captured.err
        assert captured.out == ""

    def test_other_format_exits_1(self, tmp_path, capsys):
        path = self._trace(tmp_path, dict(self.TRACE, format="other-v2"))
        assert telemetry_cli.main(["profile", path]) == 1
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [[TRACE], "trace", 3])
    def test_non_object_top_level_exits_1(self, tmp_path, capsys, payload):
        path = self._trace(tmp_path, payload)
        assert telemetry_cli.main(["profile", path]) == 1
        captured = capsys.readouterr()
        assert path in captured.err
        assert captured.out == ""


# ---------------------------------------------------------------------------
# byte-identity: telemetry is observation only
# ---------------------------------------------------------------------------

#: (method kwargs, circuit family) per back-end and dispatch path:
#: ``auto`` resolves the noisy batch to the density matrix, and
#: ``statevector_readout`` pins the noiseless escape hatch under the
#: device noise, so only its readout error applies; 3 qubits keeps the
#: density-matrix cells cheap and every method in budget
_IDENTITY_CASES = {
    "auto": (dict(method="auto", with_noise=True), generic_circuit),
    "density_matrix": (
        dict(method="density_matrix", with_noise=True), generic_circuit
    ),
    "statevector": (
        dict(method="statevector", with_noise=False), generic_circuit
    ),
    "statevector_readout": (
        dict(method="statevector", with_noise=True), generic_circuit
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("method", sorted(_IDENTITY_CASES))
class TestByteIdentity:
    def _run(self, backend, method, jobs, telemetry, tmp_path):
        kwargs, family = _IDENTITY_CASES[method]
        circuits = [family(3, seed) for seed in range(6)]
        if not telemetry:
            result = backend.run(
                circuits, shots=SHOTS, seed=7, jobs=jobs, **kwargs
            )
            return counts_of(result)
        set_record_sink(tmp_path / f"{method}-{jobs}")
        try:
            with collect_trace(method) as trace:
                result = backend.run(
                    circuits, shots=SHOTS, seed=7, jobs=jobs, **kwargs
                )
        finally:
            set_record_sink(None)
        # the traced run must actually have traced something
        assert trace.roots, "telemetry-on run collected no spans"
        return counts_of(result)

    def test_inline_counts_identical(self, backend, method, tmp_path):
        plain = self._run(backend, method, 1, False, tmp_path)
        traced = self._run(backend, method, 1, True, tmp_path)
        assert traced == plain

    def test_pooled_counts_identical(self, backend, method, tmp_path):
        inline = self._run(backend, method, 1, False, tmp_path)
        pooled_plain = self._run(backend, method, 4, False, tmp_path)
        pooled_traced = self._run(backend, method, 4, True, tmp_path)
        assert pooled_plain == inline
        assert pooled_traced == inline


# ---------------------------------------------------------------------------
# trace-tree shape
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestTraceShape:
    def test_pooled_dispatch_tree(self, backend, tmp_path):
        circuits = [generic_circuit(3, seed) for seed in range(8)]
        set_record_sink(tmp_path)
        try:
            with collect_trace("pooled") as trace:
                backend.run(circuits, shots=SHOTS, seed=3, jobs=4)
        finally:
            set_record_sink(None)
        (root,) = trace.roots
        assert root.name == "backend.run"
        dispatches = [
            child for child in root.children
            if child.name == "shard.dispatch"
        ]
        # every dispatch span sits directly under backend.run, and
        # together they cover the batch, two contiguous circuits each
        assert dispatches == trace.find("shard.dispatch")
        assert [d.attributes["circuits"] for d in dispatches] == [2] * 4
        for dispatch in dispatches:
            (worker_run,) = dispatch.children
            assert worker_run.name == "backend.run"
            assert worker_run.attributes["circuits"] == 2
            assert len(
                [s for s in dispatch.iter_spans()
                 if s.name == "engine.execute"]
            ) == 2
        # worker-side engine spans arrived, one per circuit
        assert len(trace.find("engine.execute")) == 8
        # the record sink got one execute row per circuit plus the batch
        rows = list(iter_records(tmp_path / "records.jsonl"))
        kinds = [row["kind"] for row in rows]
        assert kinds.count("execute") == 8
        (batch,) = [row for row in rows if row["kind"] == "batch"]
        assert (batch["jobs"], batch["workers"], batch["shards"]) == (
            8, 4, 4
        )

    def test_worker_warm_is_a_dispatch_sibling(self, tmp_path):
        """A worker's warm-up runs before its first shard, outside that
        dispatch's wall: it sits beside the dispatch, once per worker,
        and no self time in the profile goes negative."""
        fresh = FakeGuadalupe()  # a new pool, so its workers warm up
        circuits = [generic_circuit(2, seed) for seed in range(2)]
        try:
            with collect_trace("pooled-warm") as trace:
                fresh.run(circuits, shots=SHOTS, seed=5, jobs=2)
        finally:
            fresh.close_services()
        path = tmp_path / "trace.json"
        trace.save(path)
        rows = telemetry_cli.profile_trace(json.loads(path.read_text()))
        assert all(row["self_seconds"] >= 0 for row in rows.values()), rows
        warms = trace.find("worker.warm")
        dispatches = trace.find("shard.dispatch")
        warm_pids = [warm.attributes["worker_pid"] for warm in warms]
        assert sorted(warm_pids) == sorted(
            {dispatch.attributes["worker_pid"] for dispatch in dispatches}
        )
        assert all(warm.attributes["error"] is None for warm in warms)
        (root,) = trace.roots
        assert all(warm in root.children for warm in warms)
        assert all(
            span_.name != "worker.warm"
            for dispatch in dispatches
            for span_ in dispatch.iter_spans()
        )


# ---------------------------------------------------------------------------
# logging etiquette (satellite)
# ---------------------------------------------------------------------------

class TestLogging:
    def test_repro_root_logger_has_only_a_nullhandler(self):
        import repro  # noqa: F401  (import installs the handler)

        root = logging.getLogger("repro")
        assert any(
            isinstance(h, logging.NullHandler) for h in root.handlers
        )
        assert all(
            isinstance(h, logging.NullHandler) for h in root.handlers
        )

    def test_child_loggers_have_no_handlers_and_propagate(self):
        for name in ("repro.telemetry",):
            child = logging.getLogger(name)
            assert child.handlers == []
            assert child.propagate
