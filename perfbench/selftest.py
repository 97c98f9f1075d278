"""Self-tests for the benchmark, at tiny sizes.

    python3 -m pytest perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

DEFINITION = json.loads(run.DEFINITION.read_text(encoding="utf-8"))


def _result_line(text: str) -> dict:
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, plan=workloads.tiny_plan()) == 0
    out = capsys.readouterr().out
    result = _result_line(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = DEFINITION["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in out.splitlines()
        )
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_corrupted_server_reply_counts_as_failed(monkeypatch, tmp_path):
    original = workloads.ServerProcess.request
    suggest_calls = []

    def corrupting(self, method, params=None):
        request_id, reply, seconds = original(self, method, params)
        if method == workloads.ldiag.SUGGEST_METHOD:
            suggest_calls.append(request_id)
            if len(suggest_calls) == 3:  # in the first timed round; a tiny round is 2 requests
                reply = dict(reply, id=request_id + 1000)
        return request_id, reply, seconds

    monkeypatch.setattr(workloads.ServerProcess, "request", corrupting)
    result = workloads.run("serve", 3, 0.2, False, tmp_path / "work", workloads.tiny_plan())
    assert result.counts.failed == 1
    assert result.counts.attempted > result.counts.failed


def test_tracer_wraps_names_callers_look_up():
    from lemname import model, nn

    original = nn.backward
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert model.backward is nn.backward is not original
        assert model.backward.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert model.backward is nn.backward is original


def test_missing_boundary_is_absent_not_an_error():
    tracer = spans.Tracer()
    tracer.install([
        spans.Boundary("model.gone", "lemname.model", "LemmaNameModel.gone"),
        spans.Boundary("gone.module", "lemname.gone", "anything"),
    ])
    tracer.uninstall()
    assert tracer.absent == ["model.gone", "gone.module"]


def test_self_time_subtracts_direct_children():
    spans_ = [
        ("outer", 0.0, 10.0, -1, 1, None),
        ("inner", 1.0, 5.0, 0, 1, None),
        ("leaf", 2.0, 3.0, 1, 1, None),
        ("inner", 6.0, 8.0, 0, 1, None),
    ]
    summary = spans.summarize(spans_)
    assert summary.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert summary.self_s == {"outer": 4.0, "inner": 5.0, "leaf": 1.0}


def test_self_time_counts_only_inside_the_intervals():
    spans_ = [
        ("wait", 0.0, 4.0, -1, None, None),  # idle before the request at 3
        ("work", 4.0, 9.0, -1, 1, None),
        ("inner", 5.0, 6.0, 1, 1, None),
        ("wait", 10.5, 11.5, -1, None, None),  # wholly between requests
    ]
    summary = spans.summarize(spans_, within=spans.Intervals([(3.0, 10.0), (12.0, 13.0)]))
    assert summary.calls == {"wait": 1, "work": 1, "inner": 1}
    assert summary.self_s == {"wait": 1.0, "work": 4.0, "inner": 1.0}


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.DEFINITION, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
