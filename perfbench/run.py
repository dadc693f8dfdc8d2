"""Benchmark of the fricke command line: closed-loop query workloads.

    python3 perfbench/run.py --workload orbit-cold --seed 1 --seconds 30 --trace 0

One client runs the workload's query list again and again for --seconds
(finishing the pass it is in); each query is a fresh process, launched only
after the previous one exits, as a command-line user pays for it. With
--trace 0 the runs are untraced and the end-to-end metrics are reported;
with --trace 1 untraced passes alternate with traced passes, whose spans give
the per-layer metrics. Every output is checked (checks.py) and compared with
its first run. The last line of stdout is one JSON object; the lines before
it print every metric by name with its unit. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import COMMAND_METRICS, WORKLOADS, build, with_cache

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

QUERY_TIMEOUT_S = 120
# Set-up is measured several times, spread over the run: fresh-interpreter
# probes after every pass, or on orbit-cached one cache prewarm before the
# passes and the others after them. Spreading them averages the machine's
# slow drift.
SETUP_PROBES_PER_PASS = 3
CACHE_SETUP_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "span.s" is a span's total time, "span.self_s"
# its time minus that of the spans it caused
PER_LAYER = {
    "cli.self_s": "s",
    "process.overhead_s": "s",
    "groups.make_group.s": "s",
    "groups.arithmeticity_screen.s": "s",
    "orbitsearch.cusp_bfs.self_s": "s",
    "orbitsearch.cusp_bfs.calls": "count",
    "orbitsearch.cusp_bfs.records": "count",
    "orbitsearch.cusp_bfs.records_per_s": "1/s",
    "orbitsearch.cusp_bfs.truncated": "count",
    "words.witness_chars": "count",
    "orbitsearch.load_cached_bfs.s": "s",
    "orbitsearch.load_cached_bfs.hits": "count",
    "orbitsearch.load_cached_bfs.misses": "count",
    "orbitsearch.load_cached_bfs.bytes": "bytes",
    "orbitsearch.append_bfs_cache.s": "s",
    "orbitsearch.append_bfs_cache.bytes": "bytes",
    "orbitsearch.probe.self_s": "s",
    "orbitsearch.probe.hit_ratio": "ratio",
    "orbitsearch.cusp_test.s": "s",
    "orbitsearch.cusp_test.kind.cusp": "count",
    "orbitsearch.cusp_test.kind.special": "count",
    "orbitsearch.cusp_test.kind.unknown": "count",
    "orbitsearch.special_point_scan.s": "s",
    "orbitsearch.special_point_scan.words_visited": "count",
    "orbitsearch.special_point_scan.points": "count",
    "congruence.miss_scan.self_s": "s",
    "congruence.miss_scan.unhit": "count",
    "congruence.enumerate_labels.s": "s",
    "obstruct.classify.self_s": "s",
    "obstruct.mine_invariants.self_s": "s",
    "obstruct.mine_invariants.candidates": "count",
    "obstruct.verify_invariance.s": "s",
    "obstruct.verify_invariance.calls": "count",
    "obstruct.verify_invariance.samples": "count",
    "predicates.evals": "count",
    "trace.overhead_s": "s",
    # end-to-end figures that exist only on some workloads or read 0 on
    # a correct run; measured on the untraced passes of a traced run
    "classify_s": "s",
    "probe_padic_s": "s",
    "probe_adelic_s": "s",
    "scan_congruence_s": "s",
    "scan_special_s": "s",
    "scan_mine_s": "s",
    "cusp_test_s": "s",
    "error_rate": "ratio",
}


@dataclass
class Sample:
    """One finished query process."""

    wall_ns: int
    start_ns: int
    end_ns: int
    rss_mb: float
    rc: int
    stdout: str
    trace: dict | None = None


@dataclass
class Pass:
    """One run through a query list."""

    samples: list[Sample]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_ns for s in self.samples) / 1e9


def query_medians(passes: list[Pass]) -> list[float]:
    """Each query's median wall time over the passes, in seconds. Summing
    these estimates a pass's time robustly: a stall of the machine during
    one query of one pass moves no median."""
    return [statistics.median(s.wall_ns / 1e9 for s in col)
            for col in zip(*(p.samples for p in passes))]


class Bench:
    def __init__(self, workload, tmp: str):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import checks  # imports fricke from the checkout's src

        self.checks = checks
        self.wl = workload
        self.tmp = tmp
        self.env = {k: v for k, v in os.environ.items() if k != "FRICKE_CACHE"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, dict] = {}   # query index -> first output
        self._launches = 0

    # -- processes -----------------------------------------------------------

    def _spawn(self, argv: list[str]) -> Sample:
        self._launches += 1
        out_path = os.path.join(self.tmp, f"q{self._launches}.out")
        with open(out_path, "wb") as out, open(os.path.join(self.tmp, "stderr.txt"), "ab") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(argv, cwd=self.tmp, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        os.remove(out_path)
        return Sample(end - start, start, end, usage.ru_maxrss / 1024, proc.returncode, stdout)

    def run_query(self, index: int, query, traced: bool = False) -> Sample:
        child = [sys.executable, str(HERE / "child.py")]
        trace_path = os.path.join(self.tmp, "trace.json")
        if traced:
            child += ["--trace", trace_path, "--query", str(index)]
        if query.kind == "cusp_test":
            argv = child + ["cusp_test", *query.args]
        elif traced:
            argv = child + ["cli", *query.args, "--format", "structured"]
        else:
            argv = [sys.executable, "-m", "fricke.cli", *query.args, "--format", "structured"]
        sample = self._spawn(argv)
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="ascii") as fh:
                sample.trace = json.load(fh)
            os.remove(trace_path)
        self._judge(index, query, sample)
        return sample

    def _judge(self, index: int, query, sample: Sample) -> None:
        """Check one output; a wrong or changed output counts as failed."""
        self.attempted += 1
        reason = None
        if sample.rc != query.expect_rc:
            reason = f"exit code {sample.rc}, expected {query.expect_rc}"
        else:
            try:
                out = self.checks.comparable(json.loads(sample.stdout))
            except json.JSONDecodeError:
                out, reason = None, "output is not one JSON document"
            if out is not None and index not in self.reference:
                try:
                    reason = self.checks.check(query, out)
                except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    reason = f"output lacks what the check reads: {exc!r}"
                self.reference[index] = out
            elif out is not None and out != self.reference[index]:
                reason = "output differs from the first run of the same query"
        if reason:
            self.failed += 1
            self.problems.append(f"[{query.command}] {' '.join(query.args)}: {reason}")

    def run_pass(self, queries, traced: bool = False) -> Pass:
        return Pass([self.run_query(i, q, traced) for i, q in enumerate(queries)])

    # -- set-up --------------------------------------------------------------

    def fresh_setup_s(self) -> float:
        """A fresh interpreter importing fricke and building the groups."""
        pairs = [f"{u2}:{twot}" for u2, twot in self.wl.groups]
        s = self._spawn([sys.executable, str(HERE / "child.py"), "setup", *pairs])
        if s.rc != 0:
            self.problems.append(f"set-up probe exited with {s.rc}")
        return s.wall_ns / 1e9

    def prewarm(self, queries, cache: str, traced: bool = False) -> Pass:
        """Write a fresh cache file by running each query once."""
        if os.path.exists(cache):
            os.remove(cache)
        return self.run_pass(queries, traced)

    def check_cache(self, cache: str, want: str, what: str, p: Pass | None = None) -> None:
        got = _file_hash(cache)
        if got != want:
            self.problems.append(f"cache file {what}")
            if p is not None:
                self.failed += len(p.samples)


def _file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- per-layer aggregation ---------------------------------------------------

def layer_totals(sample: Sample) -> tuple[dict, float, str | None]:
    """Span totals of one traced query, its process overhead, and a reason
    if the spans do not nest inside each other and inside the process."""
    spans = sample.trace["spans"]
    child_ns = [0] * len(spans)
    bad = None
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            _, p_start, p_end, _ = spans[parent]
            if not (p_start <= start <= end <= p_end):
                bad = f"span {name} is not inside its parent"
        elif not (sample.start_ns <= start <= end <= sample.end_ns):
            bad = f"span {name} is not inside the process lifetime"
    totals: dict[str, float] = defaultdict(float)
    root_ns = 0
    for i, (name, start, end, parent) in enumerate(spans):
        totals[f"{name}.s"] += (end - start) / 1e9
        totals[f"{name}.self_s"] += (end - start - child_ns[i]) / 1e9
        if parent < 0:
            root_ns += end - start
    overhead = (sample.wall_ns - root_ns) / 1e9
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    if abs(self_sum + overhead - sample.wall_ns / 1e9) > 1e-6:
        bad = "self times and process overhead do not add up to the wall time"
    return totals, overhead, bad


def layer_metrics(bench: Bench, traced: list[Sample]) -> tuple[dict, dict]:
    """(times, counters) of one traced pass."""
    times: dict[str, float] = defaultdict(float)
    counters: dict[str, int] = defaultdict(int)
    for sample in traced:
        if sample.trace is None:
            bench.problems.append("a traced query wrote no trace")
            continue
        totals, overhead, bad = layer_totals(sample)
        if bad:
            bench.problems.append(bad)
        for key, value in totals.items():
            times[key] += value
        times["process.overhead_s"] += overhead
        for key, value in sample.trace["counters"].items():
            counters[key] += value
    times["cli.self_s"] = times["cli.main.self_s"]
    return times, counters


def command_times(queries, passes: list[Pass]) -> dict[str, float]:
    """Each command's wall time summed over its queries in one pass."""
    out = dict.fromkeys(COMMAND_METRICS.values(), 0.0)
    for q, t in zip(queries, query_medians(passes)):
        out[q.metric] += t
    return out


def per_layer_report(bench: Bench, traced_passes: list[list[Sample]],
                     untraced: list[Pass], traced_walls: list[float]) -> dict[str, float]:
    measured = [layer_metrics(bench, p) for p in traced_passes]
    counters = measured[0][1]
    if any(c != counters for _, c in measured[1:]):
        bench.problems.append("work counters differ between traced passes")
    out: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = statistics.median(t.get(name, 0.0) for t, _ in measured)
        else:
            out[name] = counters.get(name, 0)
    bfs_self = out["orbitsearch.cusp_bfs.self_s"]
    out["orbitsearch.cusp_bfs.records_per_s"] = (
        out["orbitsearch.cusp_bfs.records"] / bfs_self if bfs_self else 0.0
    )
    calls = counters.get("orbitsearch.probe.calls", 0)
    out["orbitsearch.probe.hit_ratio"] = (
        counters.get("orbitsearch.probe.found", 0) / calls if calls else 0.0
    )
    out["trace.overhead_s"] = statistics.median(traced_walls) - sum(query_medians(untraced))
    out.update(command_times(bench.wl.queries, untraced))
    out["error_rate"] = bench.failed / bench.attempted
    return out


# -- the run -----------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, run passes until the time is up, and return (metrics, report lines)."""
    wl = bench.wl
    queries = wl.queries
    lines = []
    setups: list[float] = []

    def set_up() -> None:
        if wl.cache_path:
            cache = os.path.join(bench.tmp, "prewarm.txt")
            setups.append(bench.prewarm(with_cache(queries, wl.cache_path, cache), cache).wall_s)
            if _file_hash(cache) != want:
                bench.problems.append("prewarmed cache files differ between set-ups")
        else:
            setups.extend(bench.fresh_setup_s() for _ in range(SETUP_PROBES_PER_PASS))

    if wl.cache_path:
        # the first prewarm writes the cache the passes read
        setups.append(bench.prewarm(queries, wl.cache_path).wall_s)
        want = _file_hash(wl.cache_path)

    untraced: list[Pass] = []
    traced: list[list[Sample]] = []
    traced_walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        p = bench.run_pass(queries)
        untraced.append(p)
        if wl.cache_path:
            bench.check_cache(wl.cache_path, want, "changed during hit-only queries", p)
        if trace:
            samples = []
            timed = queries
            if wl.cache_path:
                # the traced run traces the prewarm too: it is what moves setup_s
                cache = os.path.join(bench.tmp, "orbit-cache-traced.txt")
                timed = with_cache(queries, wl.cache_path, cache)
                samples += bench.prewarm(timed, cache, traced=True).samples
                bench.check_cache(cache, want, "written by a traced prewarm differs")
            hits = bench.run_pass(timed, traced=True)
            if wl.cache_path:
                bench.check_cache(cache, want, "changed during traced hit-only queries", hits)
            traced.append(samples + hits.samples)
            traced_walls.append(hits.wall_s)
        elif not wl.cache_path:
            set_up()
    # the other prewarms come after the passes, which keeps the set-up
    # samples apart in time and leaves the passes the whole run
    while wl.cache_path and not trace and len(setups) < CACHE_SETUP_REPEATS:
        set_up()

    walls = [p.wall_s for p in untraced]
    q1, q3 = _quartiles(walls)
    lines.append(f"pass wall time: median {statistics.median(walls):.4f} s, "
                 f"quartiles {q1:.4f} / {q3:.4f} s, {len(walls)} passes of {len(queries)} queries")
    if trace:
        metrics = per_layer_report(bench, traced, untraced, traced_walls)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": sum(query_medians(untraced)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(s.rss_mb for p in untraced for s in p.samples),
        }
        units = END_TO_END
        extra = command_times(queries, untraced)
        extra["error_rate"] = bench.failed / bench.attempted
        for name, value in extra.items():
            lines.append(f"{name:46s} {value:14.6f} {PER_LAYER[name]}")
    for name, value in metrics.items():
        lines.append(f"{name:46s} {value:14.6f} {units[name]}")
    return {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fricke" / "cli.py").is_file():
        print(f"perfbench: no fricke sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = build(args.workload, args.seed, tmp)
        bench = Bench(wl, tmp)
        metrics, lines = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{bench.attempted} queries, {bench.failed} failed")
    for line in lines:
        print("  " + line)
    for problem in bench.problems:
        print("  FAIL " + problem)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
