"""Tests of the benchmark itself: metric names, output checks, tracing.

Run from the repository root::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import menulearn  # noqa: E402
import menulearn.cli  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import REQUIRED, WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_pinned_required_axioms_match_the_program():
    program = {
        criterion: tuple(sorted(axiom.value for axiom in menulearn.REQUIRED_AXIOMS[criterion]))
        for criterion in REQUIRED
    }
    assert program == REQUIRED


def _check_result(completed: subprocess.CompletedProcess, expected: list) -> None:
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    for name, unit in expected:
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    completed = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    _check_result(completed, list(run.END_TO_END))
    assert "result_digest " in completed.stdout


def test_smoke_traced_run_prints_every_per_layer_metric():
    completed = _bench("--workload", "rank_documents", "--seed", "3", "--seconds", "0.5",
                       "--trace", "1")
    _check_result(completed, run.per_layer_metrics())
    spans = json.loads((ROOT / ".bench_out" / "SPANS_rank_documents_seed3_trace1.json").read_text())
    kinds = {row["op_kind"] for row in spans["summary"]}
    assert kinds == {f"op.{name}" for name in WORKLOADS}


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench("--workload", "audit_matrix", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def _fail_first_axiom(real):
    def fake(cmp, corpus, config):
        report = real(cmp, corpus, config)
        first = dataclasses.replace(report.results[0], status="fail")
        return menulearn.AuditReport((first,) + report.results[1:])
    return fake


def _overstate_values(real):
    def fake(*args, **kwargs):
        return [dataclasses.replace(e, value=e.band.high + 1) for e in real(*args, **kwargs)]
    return fake


def _inject(monkeypatch, workload: str) -> None:
    if workload == "audit_matrix":
        monkeypatch.setattr(menulearn, "audit", _fail_first_axiom(menulearn.audit))
    elif workload == "comparative_statics":
        monkeypatch.setattr(menulearn, "credal_subset", lambda *args, **kwargs: False)
    else:
        wrong = _overstate_values(menulearn.rank_menus)
        monkeypatch.setattr(menulearn, "rank_menus", wrong)
        monkeypatch.setattr(menulearn.cli, "rank_menus", wrong)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_injected_wrong_verdict_is_counted(monkeypatch, tmp_path, workload):
    _inject(monkeypatch, workload)
    spec = WORKLOADS[workload]
    source = run.Source(spec, menulearn, 5, tmp_path)
    result = run.timed_run(spec, menulearn, source, seconds=0.001, setup_s=0.0)
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0
    traced = run.drive(spec, menulearn, source, ops=2, tracer=Tracer(), traced=lambda i: True)
    assert traced.failed == traced.attempted == 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_ops_give_the_untraced_outputs(tmp_path, workload):
    spec = WORKLOADS[workload]
    plain = run.drive(spec, menulearn, run.Source(spec, menulearn, 7, tmp_path), ops=3,
                      digest_ops=3)
    traced = run.drive(spec, menulearn, run.Source(spec, menulearn, 7, tmp_path), ops=3,
                       tracer=Tracer(), traced=lambda i: True, digest_ops=3)
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest


def test_summary_splits_busy_self_and_uncovered_time():
    tracer = Tracer()
    tracer.spans = [
        ["op.x", 0.0, 10.0, None, 1],
        ["layer.a", 1.0, 4.0, 0, 1],
        ["layer.b", 5.0, 6.0, 0, 1],
    ]
    rows = {row["span"]: row for row in tracer.summary()}
    assert rows["op.x"]["uncovered_s"] == pytest.approx(6.0)
    assert rows["layer.a"]["busy_s"] == rows["layer.a"]["self_s"] == pytest.approx(3.0)
    assert rows["layer.a"]["share_of_op_wall"] == pytest.approx(0.3)


def test_op_sizes_repeat_every_period_whatever_the_seed():
    from workloads import PERIOD, Draw

    first = Draw(menulearn, "a", 1, 5)
    later = Draw(menulearn, "a", 2, 5 + PERIOD)
    assert len(first.inst.states) == len(later.inst.states)
    assert [first.sizes.random() for _ in range(4)] == [later.sizes.random() for _ in range(4)]


def test_calibration_scales_wall_time_by_the_reference_times_around_it(monkeypatch):
    import calibrate

    readings = iter([2 * calibrate.REFERENCE_S, 4 * calibrate.REFERENCE_S, calibrate.REFERENCE_S])
    monkeypatch.setattr(calibrate, "measure", lambda: next(readings))
    calibrator = calibrate.Calibrator()
    assert calibrator.scale(0.3) == pytest.approx(0.1)
    assert calibrator.scale(0.5) == pytest.approx(0.2)
