"""The benchmark's own tests: python3 -m pytest perfbench -q

Each workload runs end to end at the tiny size, untraced and traced, and
must report every metric BENCHMARK.json names, with its unit. The gate is fed
tampered records and must count each as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "reference", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def tiny_run():
    from remlab import cli

    steps = workloads.steps("quenched-sk", "tiny")
    outputs = workloads.execute(steps, workloads.cli_seeds(steps, 0), threads=1)
    pin = gate.make_pin(outputs, 0, True, cli.FORMAT_VERSION)
    return steps, outputs, pin


def _tamper(outputs, edit) -> list:
    """Apply ``edit`` to every record and re-serialise the NDJSON."""
    records = gate.parse(outputs)
    for step in records:
        for rec in step:
            edit(rec)
    return ["".join(json.dumps(r, sort_keys=True) + "\n" for r in step) for step in records]


def test_untampered_run_passes(tiny_run):
    steps, outputs, pin = tiny_run
    assert gate.check(steps, outputs, pin, seed=0) == []


def test_flipped_within_3se_fails(tiny_run):
    steps, outputs, pin = tiny_run

    def flip(rec):
        if rec["record"] == "moment" and rec["ell"] == 1:
            assert rec["within_3se"] is True
            rec["within_3se"] = False

    failures = gate.check(steps, _tamper(outputs, flip), pin, seed=0, run_digests=None)
    assert len(failures) == 1 and "within 3 SE" in failures[0]


def test_changed_stream_fails_unless_format_version_bumped(tiny_run):
    steps, outputs, pin = tiny_run

    def nudge(rec):
        if rec["record"] == "moment":
            rec["stderr"] *= 1.0 + 1e-12

    failures = gate.check(steps, _tamper(outputs, nudge), pin, seed=0)
    assert len(failures) == 1 and "sha256" in failures[0]

    def nudge_and_bump(rec):
        nudge(rec)
        rec["format_version"] += 1

    assert gate.check(steps, _tamper(outputs, nudge_and_bump), pin, seed=0) == []


def test_moved_reference_and_missing_record_fail(tiny_run):
    steps, outputs, pin = tiny_run

    def move(rec):
        if rec["record"] == "moment" and rec["ell"] == 2:
            rec["reference_semianalytic"] *= 1.0 + 1e-8

    failures = gate.check(steps, _tamper(outputs, move), pin, seed=0, run_digests=None)
    assert len(failures) == 1 and "reference_semianalytic" in failures[0]

    dropped = ["".join(text.splitlines(keepends=True)[1:]) for text in outputs]
    failures = gate.check(steps, dropped, pin, seed=0, run_digests=None)
    assert any("record kinds" in f for f in failures)


def test_raised_run_counts_as_failed():
    reps = [{"ok": False, "seed": 0, "error": "Traceback ...\nValueError: boom\n"}]
    bench.gate_runs(workloads.steps("reference", "tiny"), reps, None, 0)
    assert reps[0]["failures"] == ["raised: ValueError: boom"]


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", outer)()
    self_s = tracer.self_times()
    assert 0.02 <= self_s["inner"] < 0.03
    assert 0.01 <= self_s["outer"] < 0.02
