"""The traced run's work counters repeat exactly between two runs.

    python3 -m pytest perfbench/tests/repeat_counters.py

Each workload is cut down to a few of its cheaper queries, traced twice in
fresh working directories, and every counter-valued per-layer metric must
come out identical. The file name keeps the test out of the repository's
default test collection: it belongs to the benchmark and launches query
processes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import workloads  # noqa: E402

SUBSETS = {
    "orbit-cold": lambda q: q.command in ("probe adelic", "cusp_test"),
    "orbit-cached": lambda q: q.command == "probe adelic",
    "word-scan": lambda q: "1/4" in q.args,
}


def _traced_counters(tmp: Path, name: str, seed: int) -> dict:
    tmp.mkdir()
    wl = workloads.build(name, seed, str(tmp))
    wl.queries = [q for q in wl.queries if SUBSETS[name](q)]
    bench = run.Bench(wl, str(tmp))
    metrics, _ = run.measure(bench, 0, trace=True)
    assert bench.problems == [] and bench.failed == 0
    return {k: m["value"] for k, m in metrics.items() if m["unit"] not in ("s", "1/s")}


@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_counters_repeat_exactly(tmp_path, name):
    first = _traced_counters(tmp_path / "a", name, seed=11)
    second = _traced_counters(tmp_path / "b", name, seed=11)
    assert first == second
    assert any(v for k, v in first.items() if k != "error_rate")
