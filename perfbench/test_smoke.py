"""Smoke test of the benchmark itself at tiny sizes (outside the Tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload shrunk to seconds through ``run.main`` in both modes
and checks that each metric in BENCHMARK.json is printed with its unit,
that spans nest and self times are >= 0, and that the command fails
without printing a result when the library sources are absent.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.SRC = os.path.join(ROOT, "src")
run.BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
run._import_program()

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

with open(run.BENCHMARK_JSON) as fh:
    SPEC = json.load(fh)


@pytest.fixture()
def tiny_workloads(monkeypatch):
    work = os.path.join(ROOT, ".perfbench_work", f"smoke-{os.getpid()}")
    monkeypatch.setattr(run, "WORK_ROOT", os.path.join(work, "work"))
    monkeypatch.setattr(run, "OUT_ROOT", os.path.join(work, "out"))
    # the pinned numbers belong to the full-size workloads
    monkeypatch.setattr(checks, "REFERENCE_PATH", os.path.join(work, "reference.json"))
    monkeypatch.setattr(inputs, "WORKLOADS",
                        {k: inputs.tiny(w) for k, w in inputs.WORKLOADS.items()})
    yield os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)


def _main(*argv) -> tuple[int, list]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    return code, buf.getvalue().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny_workloads, workload, trace):
    code, lines = _main("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", str(trace))
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith(f"digest {workload} ") for line in lines)
    if trace:
        _check_spans(os.path.join(tiny_workloads, f"spans-{workload}-s3.jsonl"), workload)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_environment_cannot_override_pinned_workers(tiny_workloads, monkeypatch):
    monkeypatch.setenv("ADSLAB_WORKERS", "1")
    code, lines = _main("--workload", "shared_task1_small", "--seed", "3", "--seconds", "0",
                        "--trace", "0")
    assert code == 0
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["workers"] == inputs.WORKLOADS["shared_task1_small"].workers == 2


def _check_spans(path, workload):
    with open(path) as fh:
        recorded = [spans.Span(d["id"], d["name"], d["start"], d["end"], d["parent"],
                               d["key"], d["attrs"]) for d in map(json.loads, fh)]
    assert recorded
    by_id = {s.sid: s for s in recorded}
    assert spans.nesting_problems(recorded) == []
    roots = [s for s in recorded if s.parent == -1]
    call = "emit_report" if inputs.WORKLOADS[workload].kind == "report" else "run_experiment"
    assert [s.name for s in roots] == [f"harness.{call}"]
    # the root is the program call itself, not a wrapper around a second span of it
    assert all(s.name != roots[0].name for s in recorded if s.parent == roots[0].sid)
    assert all(v >= 0 for v in spans.self_times(recorded).values())
    runs = [s for s in recorded if s.name == "clrun.run_scenario"]
    for s in recorded:
        p = by_id.get(s.parent)
        if p is not None and p.name == "clrun.run_scenario":
            assert s.key == p.key
    assert all(len(s.key) == 3 for s in runs)


def test_self_time_subtracts_covered_union():
    mk = spans.Span
    recorded = [mk(0, "harness.x", 0.0, 10.0, -1, None, {}),
                mk(1, "clrun.a", 1.0, 4.0, 0, None, {}),
                mk(2, "clrun.b", 3.0, 6.0, 0, None, {}),
                mk(3, "nncore.c", 8.0, 9.0, 0, None, {}),
                mk(4, "nncore.d", 2.0, 3.0, 1, None, {})]
    st = spans.self_times(recorded)
    assert st == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert spans.layer_self_times(recorded)["nncore"] == 2.0


def test_reference_catches_a_wrong_number_but_not_rounding():
    def numbers(v):
        return {"correlation.csv": {"header": ["scenario", "spearman"], "rows": [["mf", v]]}}

    assert checks.compare_reference(numbers(0.5 + 1e-12), numbers(0.5)) == []
    assert checks.compare_reference(numbers(0.51), numbers(0.5)) != []
    assert checks.compare_reference({}, numbers(0.5)) != []


def test_fails_without_library_sources():
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.BENCHMARK_JSON, bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "report_n500", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
