"""Seeded query lists of the three benchmark workloads.

A query is one closed-loop request: either a `fricke` command line (run as
`python -m fricke.cli ...`) or one library call of `cusp_test` (run by
`child.py`). The seed only picks inputs from the classes documented in
README.md; the program sees nothing but the generated argument list.
Inputs are computed here with plain `Fraction` arithmetic, never with the
program under test, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("orbit-cold", "orbit-cached", "word-scan")

# Record budget of the deep (depth 10-14) orbit queries. With it every such
# run is cut off partway through level 9 of the BFS, so `truncated` is set
# by design, exactly as the default budget of 250k cuts depth 12/14 runs
# partway through level 11, at about a tenth of the cost.
DEEP_BUDGET = 20_000

# cusp_test settings for (6/11, 6)
CUSP_TEST_DEPTH = 12
CUSP_TEST_BUDGET = 10_000
# Rational fixed points of hyperbolic words of length <= 6 in (6/11, 6)
# that cusp_test resolves as special within a few letters.
SPECIAL_POINTS = ("14/55", "158/231", "46/55", "69/11", "-57/11", "1/4", "2/19")

# The metric each command's summed wall time is reported under.
COMMAND_METRICS = {
    "classify": "classify_s",
    "probe padic": "probe_padic_s",
    "probe adelic": "probe_adelic_s",
    "scan congruence": "scan_congruence_s",
    "scan special": "scan_special_s",
    "scan mine": "scan_mine_s",
    "cusp_test": "cusp_test_s",
}


@dataclass
class Query:
    """One request. `args` is the fricke argv for `cli` queries and
    (u2, twot, x, depth, budget) for `cusp_test` queries; `check` names the
    correctness check in checks.py and its parameters."""

    command: str
    args: list[str]
    expect_rc: int
    check: str
    params: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return "cusp_test" if self.command == "cusp_test" else "cli"

    @property
    def metric(self) -> str:
        return COMMAND_METRICS[self.command]


@dataclass
class Workload:
    name: str
    queries: list[Query]
    groups: list[tuple[str, str]]   # (u2, twot) pairs built by the set-up probe
    cache_path: str | None = None   # orbit-cached: the prewarmed cache file


def _odd(rng: random.Random, hi: int) -> int:
    return 2 * rng.randrange(hi) + 1


def _rational(rng: random.Random, hi: int) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-hi, hi)
    return Fraction(num, rng.randint(1, hi))


def _half_odd(rng: random.Random) -> Fraction:
    """A rational with 2-adic valuation exactly -1: odd / (2 * odd)."""
    num = _odd(rng, 30) * rng.choice((-1, 1))
    return Fraction(num, 2 * _odd(rng, 15))


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cusp_class_points(rng: random.Random, u2: Fraction, two_t: Fraction) -> list[Fraction]:
    """Three cusps one letter away from inf, translated by 2t: A(inf) by a
    seeded multiple k * 2t, a(inf) and b(inf) by exactly 2t. cusp_test finds
    the first at once. It does not find the other two within its budget,
    because it searches from the translation-reduced representative, which
    is not one letter from inf; their cost grows with |k|, so k is fixed."""
    # X(inf) = a/c for X = (a b; c d): g1 = (t-1 u2; 1 1), g2 = (u2 u2; 1 t-u2),
    # and the inverse of (a b; c d) is (d -b; -c a)
    t = two_t / 2
    return [t - 1 + rng.randint(-20, 20) * two_t, Fraction(-1) + two_t, u2 - t + two_t]


def _orbit_queries(rng: random.Random, cache: str | None) -> list[Query]:
    seed = rng.randrange(10_000)
    deep = ["--budget", str(DEEP_BUDGET)]
    tail = ["--seed", str(seed)] + (["--cache", cache] if cache else [])

    y_hit = _rational(rng, 60)
    p, k = rng.choice((2, 3, 5, 7, 11)), rng.randint(1, 3)
    y_miss = _half_odd(rng)
    x_miss = _half_odd(rng)
    queries = [
        Query("probe padic",
              ["probe", "padic", "--u2", "6/11", "--twot", "6", f"--y={_fmt(y_hit)}",
               "--targets", f"{p}:{k}", "--depth", "14", *deep, *tail],
              0, "padic_hit", {"y": _fmt(y_hit), "targets": [[p, k]]}),
        Query("probe padic",
              ["probe", "padic", "--u2", "1/4", "--twot", "4", f"--y={_fmt(y_miss)}",
               "--targets", "2:3", "--depth", "12", *deep, *tail],
              3, "probe_miss"),
        Query("probe adelic",
              ["probe", "adelic", "--u2", "1", "--twot", "6", "--x", "1/3", "--m", "9",
               "--depth", "8", *tail],
              0, "adelic_hit", {"x": "1/3", "m": "9"}),
        Query("probe adelic",
              ["probe", "adelic", "--u2", "1/4", "--twot", "4", f"--x={_fmt(x_miss)}",
               "--m", "8", "--depth", "10", *deep, *tail],
              3, "probe_miss"),
        Query("scan congruence",
              ["scan", "congruence", "--u2", "6/11", "--twot", "6", "--flavor", "gamma",
               "--N", "33", "--j", "1", "--depth", "7", *tail],
              0, "unhit_count", {"total": 480, "hit": 240}),
        Query("scan congruence",
              ["scan", "congruence", "--u2", "1/4", "--twot", "4", "--flavor", "gamma",
               "--N", "2", "--j", "2", "--depth", "10", *deep, *tail],
              0, "unhit_exact", {"unhit": ["(1,2) mod 4"]}),
    ]
    if cache is None:
        u2, two_t = Fraction(6, 11), Fraction(6)
        cusps = [_fmt(x) for x in _cusp_class_points(rng, u2, two_t)]
        for x in cusps + [rng.choice(SPECIAL_POINTS)]:
            queries.append(
                Query("cusp_test",
                      ["6/11", "6", x, str(CUSP_TEST_DEPTH), str(CUSP_TEST_BUDGET)],
                      0, "cusp_test", {"is_cusp": x in cusps})
            )
    return queries


def _word_queries(rng: random.Random) -> list[Query]:
    seed = ["--seed", str(rng.randrange(10_000))]
    return [
        Query("classify",
              ["classify", "--u2", "6/11", "--twot", "6", "--special-budget", "11", *seed],
              0, "classify", {"conclusion": "not_pseudomodular"}),
        Query("classify", ["classify", "--u2", "1/4", "--twot", "4", *seed],
              0, "classify", {"conclusion": "not_pseudomodular"}),
        Query("scan special",
              ["scan", "special", "--u2", "1/15", "--twot", "8", "--maxlen", "11", *seed],
              0, "special_points"),
        Query("scan mine",
              ["scan", "mine", "--u2", "1/15", "--twot", "8", "--primes", "3,5",
               "--depth", "5", *seed],
              0, "mined", {"must_contain": "xor(neg(v3), neg(v5))"}),
        Query("scan mine",
              ["scan", "mine", "--u2", "1/4", "--twot", "4", "--primes", "2,3",
               "--depth", "5", *seed],
              0, "mined"),
    ]


def build(name: str, seed: int, workdir: str) -> Workload:
    """The query list of one workload for one seed."""
    # both orbit workloads draw from one stream, so orbit-cached runs
    # exactly orbit-cold's probe and scan argv for the same seed
    rng = random.Random(f"{'orbit' if name.startswith('orbit') else name}:{seed}")
    if name == "word-scan":
        return Workload(name, _word_queries(rng),
                        [("6/11", "6"), ("1/4", "4"), ("1/15", "8")])
    if name not in ("orbit-cold", "orbit-cached"):
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    groups = [("6/11", "6"), ("1/4", "4"), ("1", "6")]
    if name == "orbit-cold":
        return Workload(name, _orbit_queries(rng, None), groups)
    cache = os.path.join(workdir, "orbit-cache.txt")
    return Workload(name, _orbit_queries(rng, cache), groups, cache)


def with_cache(queries: list[Query], old: str, new: str) -> list[Query]:
    """The same queries with the --cache argument pointing at another file."""
    return [
        Query(q.command, [new if a == old else a for a in q.args], q.expect_rc,
              q.check, q.params)
        for q in queries
    ]
