"""The benchmark's own test: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ") and f" {m['unit']} (samples=" in line
                   for line in lines)
    assert any(line.startswith("metric failed_ops_frac = 0.0 ratio") for line in lines)
    assert any(line.startswith(f"digest {workload} seed=5 ") for line in lines)
    assert any(line.startswith("machine ") for line in lines)


def test_digest_is_the_same_traced_and_untraced():
    digests = []
    for trace in (0, 1):
        done = bench(ROOT, "ce-dense", trace)
        digests += [line for line in done.stdout.splitlines() if line.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, "ce-dense", 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_the_union_of_children():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import Span, self_times

    parent = Span("p", 0.0, None, 0)
    parent.end = 10.0
    spans = [parent]
    # Two overlapping children, as from two worker threads, and one disjoint.
    for start, end in ((1.0, 4.0), (3.0, 5.0), (7.0, 8.0)):
        child = Span("c", start, parent, 0)
        child.end = end
        spans.append(child)
    assert self_times(spans)[id(parent)] == pytest.approx(10.0 - 4.0 - 1.0)
