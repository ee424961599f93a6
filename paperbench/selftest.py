"""Tests of the benchmark's own logic.

    python3 -m pytest paperbench/selftest.py -q

Not collected by the repository's tier-1 run (the file name does not
match ``test_*.py``); the smoke tests run every workload at tiny
settings (maxiter 2, 64 shots) and take about three minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from paperbench import harness, layers  # noqa: E402
from paperbench.tracing import (  # noqa: E402
    Probe,
    Recorder,
    Span,
    installed,
    self_times,
    totals_by_name,
)
from paperbench.workloads import (  # noqa: E402
    WORKLOADS,
    check_summary,
    compare_summaries,
    table2_backends,
    table2_grid,
)
from repro.experiments import table2  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "density.passes_per_eval",
    "pulse.cr_propagators_per_eval",
    "m3.apply_calls",
    "backends.run_calls",
)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_times_subtract_children_and_hot_calls():
    spans = [
        Span("workload", 0.0, 10.0, None),
        Span("stage", 1.0, 4.0, 0, hot=0.5),
        Span("evaluate", 2.0, 3.0, 1),
        Span("stage", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 1.0, 2.0])
    totals = totals_by_name(spans)
    assert totals["stage"] == pytest.approx(
        {"count": 2, "total": 5.0, "self": 3.5}
    )


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),
        Span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_builds_parent_chain():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("workload"):
        with recorder.span("evaluate", items=2):
            recorder.add_hot("density.unitary", 0.25, passes=2, nbytes=64)
    root, child = recorder.spans
    assert child.parent == 0 and root.parent is None
    assert child.items == 2 and child.hot == 0.25
    assert recorder.passes["density.unitary"] == 2
    assert recorder.bytes["density.unitary"] == 64


def test_coverage_sums_layer_self_times_and_leaves_out_stage_glue():
    recorder = Recorder()
    recorder.spans = [
        Span("workload", 0.0, 10.0, None),
        Span("stage", 0.0, 10.0, 0),
        Span("evaluate", 1.0, 9.0, 1),
        Span("backend.run", 2.0, 8.0, 2, hot=1.5),
    ]
    recorder.add_hot("density.unitary", 1.5, passes=2, nbytes=64)
    metrics = layers.layer_metrics(recorder, 4, 10.0, (0, 0))
    assert metrics["workflow.stage_self_s"] == pytest.approx(2.0)
    assert metrics["pipeline.evaluate_self_s"] == pytest.approx(2.0)
    assert metrics["backends.run_s"] == pytest.approx(4.5)
    assert metrics["density.pass_s"] == pytest.approx(1.5)
    assert metrics["trace.coverage"] == pytest.approx(0.8)


def test_log_centre_moves_smoothly_with_the_mix():
    # the plain median of these two samples jumps from 10 to 30 ms
    fewer_slow = [10.0] * 51 + [30.0] * 49
    more_slow = [10.0] * 49 + [30.0] * 51
    low, high = (harness.log_centre(s) for s in (fewer_slow, more_slow))
    assert 17.0 < low < high < 1.05 * low
    assert harness.log_centre([2.0, 8.0]) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# wrapper install and restore
# ---------------------------------------------------------------------------

class _Target:
    def work(self, values):
        return len(values)

    @classmethod
    def build(cls, n):
        return cls() if n else None

    def kernel(self):
        return "k"


def _probes():
    return (
        Probe(_Target, "work", "work", items=lambda a, k: len(a[1])),
        Probe(_Target, "build", "build"),
        Probe(_Target, "kernel", "kernel", kind="hot",
              work=lambda a, k: (2, 32)),
    )


def test_wrappers_record_and_restore():
    originals = {name: vars(_Target)[name] for name in ("work", "build", "kernel")}
    recorder = Recorder()
    with installed(_probes(), recorder):
        assert vars(_Target)["work"] is not originals["work"]
        assert isinstance(_Target.build(1), _Target)
        assert _Target().work([1, 2, 3]) == 3
        with recorder.span("outer"):
            assert _Target().kernel() == "k"
    assert [s.name for s in recorder.spans] == ["build", "work", "outer"]
    assert recorder.spans[1].items == 3
    assert recorder.calls["kernel"] == 1 and recorder.passes["kernel"] == 2
    assert recorder.spans[2].hot > 0
    for name, original in originals.items():
        assert vars(_Target)[name] is original


def test_wrappers_restored_after_error():
    original = vars(_Target)["work"]
    with pytest.raises(RuntimeError):
        with installed(_probes(), Recorder()):
            raise RuntimeError("boom")
    assert vars(_Target)["work"] is original


def test_table2_backends_restored_after_error():
    original = table2.BACKENDS
    with pytest.raises(RuntimeError):
        with table2_backends(("toronto",)):
            assert table2.BACKENDS == ("toronto",)
            raise RuntimeError("boom")
    assert table2.BACKENDS is original


def test_layer_probes_restore_program_functions():
    saved = [(p.owner, p.attr, vars(p.owner)[p.attr]) for p in layers.LAYER_PROBES]
    with installed(layers.LAYER_PROBES, Recorder()):
        assert any(vars(o)[a] is not f for o, a, f in saved)
    for owner, attr, function in saved:
        assert vars(owner)[attr] is function


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_summary():
    call = harness.run_call(
        WORKLOADS["table2-quick-jobs2"], 5, traced=False, tiny=True
    )
    return call.summary


@pytest.mark.parametrize(
    "part, key, value",
    [
        ("ars", "toronto/hybrid/raw", 1.25),
        ("ars", "toronto/gate/cvar", math.nan),
        ("raw_mixer_dt", "toronto/gate", 288),
        ("po_mixer_dt", "toronto/hybrid", 100),
        ("po_mixer_dt", "toronto/hybrid", 352),
        ("evaluations", None, 0),
    ],
)
def test_checks_reject_corrupted_result(tiny_summary, part, key, value):
    assert check_summary(tiny_summary) == []
    corrupted = json.loads(json.dumps(tiny_summary))
    if key is None:
        corrupted[part] = value
    else:
        corrupted[part][key] = value
    assert check_summary(corrupted)


def test_corrupted_call_counts_as_failed(tiny_summary):
    def corrupting(config):
        summary = json.loads(json.dumps(tiny_summary))
        summary["ars"]["toronto/gate/raw"] = -0.5
        return summary

    workload = replace(WORKLOADS["table2-quick-jobs2"], call=corrupting)
    outcome = harness.Outcome()
    outcome.attempt("call", lambda: harness.run_call(workload, 5, traced=False))
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_workload_equals_the_table2_column(tiny_summary):
    assert set(tiny_summary["raw_mixer_dt"]) == {"toronto/gate", "toronto/hybrid"}
    config = WORKLOADS["table2-quick-jobs2"].config(5, tiny=True)
    try:
        grid = table2_grid(config)
    finally:
        config.close()
    for part in ("ars", "raw_mixer_dt", "po_mixer_dt"):
        column = {
            key: value
            for key, value in grid[part].items()
            if key.startswith("toronto/")
        }
        assert column == tiny_summary[part]


def test_repetitions_must_match(tiny_summary):
    other = json.loads(json.dumps(tiny_summary))
    assert compare_summaries(tiny_summary, other, "rep") == []
    other["evaluations"] += 1
    assert compare_summaries(tiny_summary, other, "rep")


# ---------------------------------------------------------------------------
# contract and smoke runs
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        harness.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        layers.LAYER_UNITS
    )


def _main(capsys, workload: str, traced: bool) -> tuple[int, dict]:
    code = harness.main(workload, 3, 0.0, traced, tiny=True)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(capsys, workload):
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        code, result = _main(capsys, workload, traced)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        names = [m["name"] for m in BENCHMARK[section]]
        assert list(result["metrics"]) == names
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    if workload == "fig5-toronto":
        assert result["metrics"]["m3.apply_calls"]["value"] == 0
    else:
        assert result["metrics"]["m3.apply_calls"]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(capsys, workload):
    runs = [_main(capsys, workload, traced=True)[1] for _ in range(2)]
    for name in EXACT_COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]
    if workload == "table2-quick-jobs2":
        assert runs[0]["metrics"]["m3.apply_calls"]["value"] > 0


def test_low_coverage_makes_the_traced_run_incorrect(capsys, monkeypatch):
    monkeypatch.setattr(harness, "MIN_COVERAGE", 1.01)
    code, result = _main(capsys, "fig5-toronto", traced=True)
    assert code == 1 and not result["correct"]
    assert result["failed"] == 0
