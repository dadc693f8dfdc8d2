"""Orbit labels on P1(Q) under principal and triangular congruence subgroups.

gamma labels classify points up to the level-N principal congruence
subgroup: the pair (a mod N, c mod N) up to global sign. gamma0 labels
classify up to the subgroup of matrices with upper-right entry divisible
by N: the orbit of the reduced point in P1(Z/N) under the lower-triangular
determinant-one action, computed by explicit enumeration and memoized per
level. miss_scan reports which labels a group's cusp set reaches: it labels
every enumerated cusp c and its translates c + k*2t over one exact period
of k, q*L/gcd(L, p) for 2t = p/q at level L, as integer pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from typing import NamedTuple

from .errors import ParameterError
from .exactnum import ProjPoint, format_rational, prime_factors
from .groups import FrickeGroup
from .orbitsearch import DEFAULT_NODE_BUDGET, cusp_bfs

GAMMA = "gamma"
GAMMA0 = "gamma0"

# Largest level n**j that miss_scan accepts. On a 2-core machine at depth 8,
# gamma takes 3.0 s at level 256 on (6/11, 6), 9.7 s at 500 and 19 s at 800
# (enumerate_labels is quadratic in the level); gamma0 takes 24 s at 6400 on
# (1/4, 4).
MISS_SCAN_MAX_LEVEL = 256
# Most translate steps, BFS records x period, that miss_scan labels. Gamma at
# level 256 on (6/11, 6), period 128, takes 1.9 s at depth 8 (2.8M steps),
# 7.2 s at depth 9 (9.1M) and 21 s at depth 10 (29M) on 2 cores.
MISS_SCAN_MAX_STEPS = 4_000_000

# ---------------------------------------------------------------------------
# P1(Z/N): canonical representatives
# ---------------------------------------------------------------------------

def p1_reduce(a: int, c: int, n: int) -> tuple[int, int]:
    """Canonical representative of the point (a : c) of P1(Z/n).

    Requires gcd(a, c, n) = 1. The representative has first coordinate a
    divisor g of n and is the least pair in its unit-scaling class.
    """
    if n < 1:
        raise ParameterError(f"level must be >= 1, got {n}")
    if n == 1:
        return (0, 0)
    a %= n
    c %= n
    if gcd(gcd(a, c), n) != 1:
        raise ParameterError(f"({a} : {c}) is not primitive mod {n}")
    if a == 0:
        return (0, 1)
    # each lift s of (a/g)^-1 mod n/g has s*a = g (mod n); one of them is a unit
    g = gcd(a, n)
    s = pow(a // g, -1, n // g)
    while gcd(s, n) != 1:
        s += n // g
    c = s * c % n
    if g == 1:
        return (1, c)
    c = min((c * t) % n for t in range(1, n, n // g) if gcd(n, t) == 1)
    return (g, c)


def p1_points(n: int) -> list[tuple[int, int]]:
    """All canonical representatives of P1(Z/n), sorted.

    Canonical representatives have first coordinate dividing n, so it is
    enough to canonicalize the pairs (g, v) over divisors g.
    """
    if n == 1:
        return [(0, 0)]
    pts = set()
    for g in _divisors(n):
        for v in range(n):
            if gcd(gcd(g, v), n) == 1:
                pts.add(p1_reduce(g, v, n))
    return sorted(pts)


def _divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending, built from its factorization."""
    out = [1]
    for p, e in prime_factors(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

class OrbitLabel(NamedTuple):
    """Canonical orbit key: for gamma, the pair +-(a, c) mod level taken
    lexicographically least; for gamma0, the least P1(Z/level) point of the
    enumerated lower-triangular orbit."""

    flavor: str
    level: int
    key: tuple[int, int]

    def __str__(self) -> str:
        if self.flavor == GAMMA:
            return f"({self.key[0]},{self.key[1]}) mod {self.level}"
        idx = _gamma0_orbit_index(self.level)[self.key]
        return f"orbit#{idx} mod {self.level}"


def _require_level(n: int) -> None:
    if n < 2:
        raise ParameterError(f"congruence level must be >= 2, got {n}")


def gamma_label(x: ProjPoint, n: int) -> OrbitLabel:
    """Orbit label under the level-n principal congruence subgroup."""
    _require_level(n)
    return label_of_pair(GAMMA, x.a, x.c, n)


@cache
def _gamma0_orbits(n: int) -> tuple[dict, list]:
    """Orbits of P1(Z/n) under lower-triangular determinant-one matrices,
    as (point -> orbit min, sorted orbit mins).

    The group is generated by the unipotent [[1,0],[1,1]] and the diagonals
    diag(u, 1/u); on projective points the diagonal part acts as scaling of
    the first coordinate by squares of units.
    """
    points = p1_points(n)
    squares = sorted({u * u % n for u in range(1, n) if gcd(u, n) == 1})
    to_min: dict[tuple[int, int], tuple[int, int]] = {}
    for start in points:
        if start in to_min:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            a, c = stack.pop()
            nbrs = [p1_reduce(a, (a + c) % n, n)]
            nbrs.extend(p1_reduce(s * a % n, c, n) for s in squares)
            for nb in nbrs:
                if nb not in orbit:
                    orbit.add(nb)
                    stack.append(nb)
        least = min(orbit)
        for pt in orbit:
            to_min[pt] = least
    return to_min, sorted(set(to_min.values()))


@cache
def _gamma0_orbit_index(n: int) -> dict[tuple[int, int], int]:
    _, mins = _gamma0_orbits(n)
    return {key: i for i, key in enumerate(mins)}


def gamma0_label(x: ProjPoint, n: int) -> OrbitLabel:
    """Orbit label under matrices with upper-right entry divisible by n."""
    _require_level(n)
    return label_of_pair(GAMMA0, x.a, x.c, n)


def enumerate_labels(flavor: str, n: int) -> list[OrbitLabel]:
    """The complete, sorted set of labels at one level."""
    _require_level(n)
    if flavor == GAMMA:
        return sorted({
            label_of_pair(GAMMA, a, c, n)
            for a in range(n)
            for c in range(n)
            if gcd(gcd(a, c), n) == 1
        })
    if flavor == GAMMA0:
        _, mins = _gamma0_orbits(n)
        return [OrbitLabel(GAMMA0, n, k) for k in mins]
    raise ParameterError(f"unknown flavor {flavor!r}; use 'gamma' or 'gamma0'")


def label_of_pair(flavor: str, num: int, den: int, n: int) -> OrbitLabel:
    """Label of the point (num : den) of P1(Q) in lowest terms at level n."""
    if flavor == GAMMA:
        pair = (num % n, den % n)
        neg = ((-num) % n, (-den) % n)
        return OrbitLabel(GAMMA, n, min(pair, neg))
    to_min, _ = _gamma0_orbits(n)
    return OrbitLabel(GAMMA0, n, to_min[p1_reduce(num, den, n)])


# ---------------------------------------------------------------------------
# miss scan
# ---------------------------------------------------------------------------

class MissReport(NamedTuple):
    """Which labels at level base**exponent the cusp set reaches.

    hit maps each reached label to a witness (cusp representative,
    translation multiple); an unhit label at finite depth is evidence of a
    missed orbit, not proof.
    """

    u2: Fraction
    two_t: Fraction
    flavor: str
    base: int
    exponent: int
    level: int
    depth: int
    budget: int
    truncated: bool
    hit: dict
    unhit: tuple[OrbitLabel, ...]

    def to_dict(self) -> dict:
        return {
            "u2": format_rational(self.u2),
            "twot": format_rational(self.two_t),
            "flavor": self.flavor,
            "N": self.base,
            "j": self.exponent,
            "level": self.level,
            "depth": self.depth,
            "budget": self.budget,
            "truncated": self.truncated,
            "total_labels": len(self.hit) + len(self.unhit),
            "hit_count": len(self.hit),
            "unhit": [str(lbl) for lbl in self.unhit],
        }


def miss_scan(
    g: FrickeGroup,
    flavor: str,
    n: int,
    j: int,
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> MissReport:
    """Compute labels of all enumerated cusps and their translates at level
    n**j and report hit and unhit labels.

    With 2t = p/q and level L, the translates c + k*2t and c + (k + P)*2t
    with P = q*L/gcd(L, p) differ by lcm(L, p), an integer divisible by L,
    so the label of c + k*2t has period P in k. The first k of every label
    therefore lies in [0, P), and exactly one period is enumerated per cusp.
    The translates are integer pairs; when q = 1 they are already in lowest
    terms.
    """
    _require_level(n)
    if j < 1:
        raise ParameterError(f"exponent j must be >= 1, got {j}")
    level = 1
    for _ in range(j):  # n >= 2, so this stops within log2(cap) + 1 steps
        level *= n
        if level > MISS_SCAN_MAX_LEVEL:
            raise ParameterError(f"level {n}^{j} must be at most {MISS_SCAN_MAX_LEVEL}")
    all_labels = enumerate_labels(flavor, level)
    bfs = cusp_bfs(g, depth, budget, cache_path)
    p, q = g.two_t.numerator, g.two_t.denominator
    period = q * level // gcd(level, p)
    if len(bfs.nums) * period > MISS_SCAN_MAX_STEPS:
        raise ParameterError(f"{len(bfs.nums)} records x period {period} = {len(bfs.nums) * period}"
                             f" translate steps must be at most {MISS_SCAN_MAX_STEPS}")
    total = len(all_labels)
    hit: dict[OrbitLabel, tuple[Fraction, int]] = {}
    label_memo: dict[tuple[int, int], OrbitLabel] = {}
    for _, a, b in bfs.finite_pairs():
        # c0 + k*2t = (a*q + k*p*b) / (b*q)
        num, den, step = a * q, b * q, p * b
        for k in range(period):
            xn, xd = num, den
            if q != 1:
                h = gcd(num, den)
                xn, xd = num // h, den // h
            num += step
            pair = (xn % level, xd % level)
            label = label_memo.get(pair)
            if label is None:
                label = label_of_pair(flavor, xn, xd, level)
                label_memo[pair] = label
            if label not in hit:
                hit[label] = (Fraction(a, b), k)
                if len(hit) == total:
                    break
        if len(hit) == total:
            break
    unhit = tuple(lbl for lbl in all_labels if lbl not in hit)
    return MissReport(
        u2=g.u2,
        two_t=g.two_t,
        flavor=flavor,
        base=n,
        exponent=j,
        level=level,
        depth=depth,
        budget=budget,
        truncated=bfs.truncated,
        hit=hit,
        unhit=unhit,
    )
