"""Spans and work counters for one traced query process.

`install()` wraps the public functions of each fricke layer in the running
process. A wrapper replaces every module binding of the original function,
so `from ... import` names (cli binds the probes, congruence binds
cusp_bfs) are traced as well as calls through the defining module, and a
function imported inside another at call time (classify imports
special_point_scan) resolves to the wrapper. Spans and counters stay in
memory and are written as one JSON file when the process exits.

A span is (name, start_ns, end_ns, parent index); start and end come from
`time.perf_counter_ns`, the system monotonic clock, so the parent process
can set them against the launch and exit times it measured itself.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from collections import Counter
from functools import wraps

# (module, function) -> span name; the probes share one span name
SPANS = {
    ("cli", "main"): "cli.main",
    ("groups", "make_group"): "groups.make_group",
    ("groups", "arithmeticity_screen"): "groups.arithmeticity_screen",
    ("orbitsearch", "cusp_bfs"): "orbitsearch.cusp_bfs",
    ("orbitsearch", "load_cached_bfs"): "orbitsearch.load_cached_bfs",
    ("orbitsearch", "append_bfs_cache"): "orbitsearch.append_bfs_cache",
    ("orbitsearch", "padic_probe"): "orbitsearch.probe",
    ("orbitsearch", "adelic_probe"): "orbitsearch.probe",
    ("orbitsearch", "cusp_test"): "orbitsearch.cusp_test",
    ("orbitsearch", "special_point_scan"): "orbitsearch.special_point_scan",
    ("congruence", "miss_scan"): "congruence.miss_scan",
    ("congruence", "enumerate_labels"): "congruence.enumerate_labels",
    ("obstruct", "classify"): "obstruct.classify",
    ("obstruct", "mine_invariants"): "obstruct.mine_invariants",
    ("obstruct", "verify_invariance"): "obstruct.verify_invariance",
}


def _file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


class Tracer:
    def __init__(self, query_id: int, path: str):
        self.query_id = query_id
        self.path = path
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.evals = 0
        self.computed_bfs: list = []   # BFS results computed, not loaded
        self._returned_bfs: list = []   # kept alive, so identity is meaningful

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            rec = [name, 0, 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self.stack.pop()
            if after:
                after(state, result, *args, **kwargs)
            return result

        return traced

    def _current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- per-layer hooks -----------------------------------------------

    def _bfs_before(self, *args, **kwargs):
        return self.counters["orbitsearch.load_cached_bfs.hits"]

    def _bfs_after(self, hits_before, result, *args, **kwargs):
        self.counters["orbitsearch.cusp_bfs.calls"] += 1
        loaded = self.counters["orbitsearch.load_cached_bfs.hits"] > hits_before
        # an in-process memo hit hands back an object returned before
        if not loaded and not any(result is r for r in self._returned_bfs):
            self.computed_bfs.append(result)
        self._returned_bfs.append(result)

    def _load_before(self, path, *args, **kwargs):
        return _file_size(path)

    def _load_after(self, size, result, *args, **kwargs):
        self.counters["orbitsearch.load_cached_bfs.bytes"] += size
        key = "hits" if result is not None else "misses"
        self.counters[f"orbitsearch.load_cached_bfs.{key}"] += 1

    def _append_before(self, path, *args, **kwargs):
        return path, _file_size(path)

    def _append_after(self, state, result, *args, **kwargs):
        path, size = state
        self.counters["orbitsearch.append_bfs_cache.bytes"] += _file_size(path) - size

    def _probe_after(self, state, result, *args, **kwargs):
        self.counters["orbitsearch.probe.calls"] += 1
        self.counters["orbitsearch.probe.found"] += int(result.found)

    def _cusp_test_after(self, state, result, *args, **kwargs):
        self.counters[f"orbitsearch.cusp_test.kind.{result.kind}"] += 1

    def _special_after(self, state, result, g, max_len=None, **kwargs):
        if max_len is None:
            max_len = kwargs["max_len"]
        # the scan visits every reduced word of length l = 1..L: 4 * 3^(l-1)
        self.counters["orbitsearch.special_point_scan.words_visited"] += 2 * (3 ** max_len - 1)
        self.counters["orbitsearch.special_point_scan.points"] += len(result)

    def _miss_after(self, state, result, *args, **kwargs):
        self.counters["congruence.miss_scan.unhit"] += len(result.unhit)

    def _verify_before(self, *args, **kwargs):
        self.counters["obstruct.verify_invariance.calls"] += 1

    def _verify_after(self, state, result, *args, **kwargs):
        self.counters["obstruct.verify_invariance.samples"] += result.samples

    def _counting_compile(self, compile_predicate):
        @wraps(compile_predicate)
        def compiled(pred):
            if self._current() == "obstruct.mine_invariants":
                self.counters["obstruct.mine_invariants.candidates"] += 1
            test = compile_predicate(pred)

            def counted(n, d):
                self.evals += 1
                return test(n, d)

            return counted

        return compiled

    # -- installation and output ----------------------------------------

    def install(self) -> None:
        import fricke.cli  # noqa: F401  (loads every layer module)
        from fricke import predicates

        hooks = {
            "cusp_bfs": (self._bfs_before, self._bfs_after),
            "load_cached_bfs": (self._load_before, self._load_after),
            "append_bfs_cache": (self._append_before, self._append_after),
            "padic_probe": (None, self._probe_after),
            "adelic_probe": (None, self._probe_after),
            "cusp_test": (None, self._cusp_test_after),
            "special_point_scan": (None, self._special_after),
            "miss_scan": (None, self._miss_after),
            "verify_invariance": (self._verify_before, self._verify_after),
        }
        for (module, attr), name in SPANS.items():
            original = getattr(sys.modules[f"fricke.{module}"], attr)
            before, after = hooks.get(attr, (None, None))
            _rebind(original, self._wrap(name, original, before, after))
        # count evaluations of the compiled predicates callers receive; the
        # predicates module's own recursive calls stay unwrapped
        original = predicates.compile_predicate
        _rebind(original, self._counting_compile(original), skip="fricke.predicates")
        atexit.register(self.dump)

    def dump(self) -> None:
        counters = dict(self.counters)
        counters["predicates.evals"] = self.evals
        counters["orbitsearch.cusp_bfs.records"] = sum(len(r.records) for r in self.computed_bfs)
        counters["orbitsearch.cusp_bfs.truncated"] = sum(int(r.truncated) for r in self.computed_bfs)
        counters["words.witness_chars"] = sum(
            len(rec.witness) for r in self.computed_bfs for rec in r.records
        )
        with open(self.path, "w", encoding="ascii") as fh:
            json.dump({"query": self.query_id, "spans": self.spans, "counters": counters}, fh)


def _rebind(original, wrapper, skip: str | None = None) -> None:
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name == skip:
            continue
        if mod_name != "fricke" and not mod_name.startswith("fricke."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
