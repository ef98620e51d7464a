"""Tier-1 smoke test of the end-to-end benchmark (``--smoke`` sizes).

Checks the contract between ``BENCHMARK.json`` and the runner — every
workload and metric it names is reported, with its unit — that the input
generators are deterministic in the seed, that a traced run's child spans
nest inside their roots, and that the server child does not outlive a
killed generator.  No timing is asserted: the numbers of a 1 % run mean
nothing.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.gen import SPECS, stream_digest  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _smoke(tmp_path: Path, trace: int) -> dict[str, dict]:
    """Run every workload at smoke size; ``workload -> result line``."""
    out = tmp_path / f"smoke{trace}.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--trace", str(trace),
         "--jobs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    return {run["workload"]: run["result"] for run in runs}


def _assert_reported(results: dict[str, dict], section: str) -> None:
    assert sorted(results) == sorted(WORKLOADS)
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, (workload, result)
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}, workload
        for metric in BENCHMARK[section]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))


def test_names_in_benchmark_json_are_well_formed():
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert sorted(WORKLOADS) == sorted(SPECS)
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    results = _smoke(tmp_path, trace=0)
    _assert_reported(results, "end_to_end")
    for result in results.values():
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_nested_spans(tmp_path):
    results = _smoke(tmp_path, trace=1)
    _assert_reported(results, "per_layer")
    for workload, result in results.items():
        assert "trace.overhead_ratio" in result["metrics"]
        spans = json.loads((tmp_path / f"smoke1.{workload}.spans.json").read_text())
        roots = {s["op_id"]: s for s in spans if s["parent"] is None}
        children = [s for s in spans if s["parent"] is not None]
        assert roots and children, workload
        for child in children:
            root = roots[child["op_id"]]
            assert root["start_us"] <= child["start_us"] <= child["end_us"] <= root["end_us"], (
                workload, child, root)


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_streams_are_a_function_of_the_seed(workload):
    spec = SPECS[workload].smoke()
    assert stream_digest(spec, 7) == stream_digest(spec, 7)
    assert stream_digest(spec, 7) != stream_digest(spec, 8)


def _gone(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state == "Z"


def test_server_child_does_not_outlive_a_killed_generator():
    script = (
        "import sys, time\n"
        f"sys.path[0:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]\n"
        "from benchmarks.e2e.gen import SPECS\n"
        "from benchmarks.e2e.serving import _Child\n"
        "child = _Child(SPECS['wire_stream'].smoke(), 1, False)\n"
        "print(child.process.pid, flush=True)\n"
        "time.sleep(120)\n"
    )
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        child_pid = int(parent.stdout.readline())
        assert not _gone(child_pid)
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 20
        while not _gone(child_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _gone(child_pid), "serve.py kept running after its parent was killed"
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        try:
            os.kill(child_pid, signal.SIGKILL)
        except (ProcessLookupError, NameError):
            pass
