"""Orbit labels on P1(Q) under principal and triangular congruence subgroups.

gamma labels classify points up to the level-N principal congruence
subgroup: the pair (a mod N, c mod N) up to global sign. gamma0 labels
classify up to the subgroup of matrices with upper-right entry divisible
by N: the orbit of (a : c) in P1(Z/N) under the lower-triangular
determinant-one action, read off in closed form from g = gcd(a, N) and the
square class of c*(a/g)^-1 mod gcd(g, N/g). miss_scan reports which labels
a group's cusp set reaches: it labels every enumerated cusp c and its
translates c + k*2t over one exact period of k, q*L/gcd(L, p) for 2t = p/q
at level L, as integer pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from typing import NamedTuple

from .errors import InternalCheckError, ParameterError
from .exactnum import (
    INFINITY,
    ProjPoint,
    _chart,
    _least_point,
    format_rational,
    p1_reduce,
    point_of,
    prime_factors,
    reduce_point,
)
from .groups import FrickeGroup, apply, word_matrix
from .orbitsearch import DEFAULT_NODE_BUDGET, OrbitClosure, cusp_bfs, orbit_closure

GAMMA = "gamma"
GAMMA0 = "gamma0"

# Largest level n**j that miss_scan accepts, and whose gamma labels enumerate_labels
# lists (quadratic in the level: 0.015 s at 256, 0.42 s and 82 MB peak RSS at 1024).
# On 2 cores at depth 8, gamma takes 3.0 s at level 256 on (6/11, 6), 9.7 s at 500
# and 19 s at 800; gamma0 takes 0.6 s at 6400 on (1/4, 4) with the caps lifted.
MISS_SCAN_MAX_LEVEL = 256
# Most translate steps, BFS records x period, that miss_scan labels. Gamma at
# level 256 on (6/11, 6), period 128, takes 1.9 s at depth 8 (2.8M steps),
# 7.2 s at depth 9 (9.1M) and 21 s at depth 10 (29M) on 2 cores.
MISS_SCAN_MAX_STEPS = 4_000_000
# Largest level whose P1 points (p1_points) and gamma0 keys (enumerate_labels,
# str()) are listed, or whose gamma0 keys are computed (label_of_pair). On 2
# cores p1_points takes 0.30 s at 95040 and 2.8 s at 720720; listing the keys
# takes 0.003 s at 10^5. A key builds a square-class set of size gcd(g, n/g),
# up to sqrt(n): (10^7 : 1) takes 0.016 s at level 10^12 and 2.8 s at 10^14.
GAMMA0_KEYS_MAX_LEVEL = 10 ** 5

# ---------------------------------------------------------------------------
# P1(Z/N): the points at one level
# ---------------------------------------------------------------------------

def p1_points(n: int) -> list[tuple[int, int]]:
    """All canonical representatives of P1(Z/n), sorted: one per chart (g, e),
    g | n and e mod n/g prime to gcd(g, n/g), the e that some x prime to g lifts."""
    if n < 1:
        raise ParameterError(f"level must be >= 1, got {n}")
    if n > GAMMA0_KEYS_MAX_LEVEL:
        raise ParameterError(f"P1 points are listed up to level {GAMMA0_KEYS_MAX_LEVEL}, got {n}")
    return sorted(_least_point(g, e, n) for g in _divisors(n)
                  for e in range(n // g) if gcd(e, g, n // g) == 1)


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
    lower-triangular orbit."""

    flavor: str
    level: int
    key: tuple[int, int]

    def __str__(self) -> str:
        if self.flavor == GAMMA:
            return f"({self.key[0]},{self.key[1]}) mod {self.level}"
        if self.key not in _gamma0_index(self.level):
            raise ParameterError(f"{self.key} is not the key of a gamma0 orbit mod {self.level}")
        return f"orbit#{_gamma0_index(self.level)[self.key]} mod {self.level}"


def _require_level(n: int) -> None:
    if n < 2:
        raise ParameterError(f"congruence level must be >= 2, got {n}")


def gamma_label(x: ProjPoint, n: int) -> OrbitLabel:
    """Orbit label under the level-n principal congruence subgroup."""
    return label_of_pair(GAMMA, *reduce_point(*x), n)


def _gamma0_key(g: int, e: int, n: int) -> tuple[int, int]:
    """Least P1(Z/n) point of the orbit of the point with chart (g, e) under
    the matrices [[u, 0], [x, 1/u]] mod n.

    Let h = gcd(g, n/g), which divides n/g, and lift e prime to g. The matrix
    takes (g : e) to (ug : xg + e/u), and rescaling by mu with mu*u = 1 mod n/g
    gives (g : mu*x*g + mu^2 * (mu*u)^-1 * e): as h | g, the square class of
    e mod h is kept. As x and mu are free, by _chart and CRT through
    lcm(g, n/g) the orbit is every (g : e') with gcd(e', g) = 1 and
    e' = e*s^2 mod h for a unit s. Its least point is (g mod n, least such e').
    """
    h = gcd(g, n // g)
    square_class = {e * s * s % h for s in range(h) if gcd(s, h) == 1}
    return (g % n, next(x for x in range(n) if x % h in square_class and gcd(x, g) == 1))


@cache
def _gamma0_index(n: int) -> dict[tuple[int, int], int]:
    """The sorted gamma0 keys at level n, each mapped to its orbit# index. The
    key of the chart (g, e) depends on e only mod gcd(g, n/g), so e < gcd(g, n/g) suffice."""
    if n > GAMMA0_KEYS_MAX_LEVEL:
        raise ParameterError(f"gamma0 keys are listed up to level {GAMMA0_KEYS_MAX_LEVEL}, got {n}")
    keys = {_gamma0_key(g, e, n) for g in _divisors(n)
            for e in range(gcd(g, n // g)) if gcd(e, g, n // g) == 1}
    return {key: i for i, key in enumerate(sorted(keys))}


def gamma0_label(x: ProjPoint, n: int) -> OrbitLabel:
    """Orbit label under matrices with upper-right entry divisible by n."""
    return label_of_pair(GAMMA0, *reduce_point(*x), n)


def enumerate_labels(flavor: str, n: int) -> list[OrbitLabel]:
    """The complete, sorted set of labels at one level."""
    _require_level(n)
    if flavor == GAMMA:
        if n > MISS_SCAN_MAX_LEVEL:
            raise ParameterError(
                f"gamma labels are listed up to level {MISS_SCAN_MAX_LEVEL}, got {n}")
        # (a, c) is the least of +-(a, c) when 0 < 2a < n, or when a = -a and 2c <= n
        return [OrbitLabel(GAMMA, n, (a, c)) for a in range(n // 2 + 1)
                for c in range(n if 0 < 2 * a < n else n // 2 + 1) if gcd(a, c, n) == 1]
    if flavor == GAMMA0:
        return [OrbitLabel(GAMMA0, n, k) for k in _gamma0_index(n)]
    raise ParameterError(f"unknown flavor {flavor!r}; use 'gamma' or 'gamma0'")


def label_of_pair(flavor: str, num: int, den: int, n: int) -> OrbitLabel:
    """Label of the point (num : den) of P1(Q) in lowest terms at level n."""
    _require_level(n)
    if flavor == GAMMA:
        if gcd(num, den) != 1:
            raise ParameterError(f"({num} : {den}) is not in lowest terms")
        pair = (num % n, den % n)
        neg = ((-num) % n, (-den) % n)
        return OrbitLabel(GAMMA, n, min(pair, neg))
    if flavor == GAMMA0:
        if n > GAMMA0_KEYS_MAX_LEVEL:
            raise ParameterError(
                f"gamma0 labels are computed up to level {GAMMA0_KEYS_MAX_LEVEL}, got {n}"
            )
        return OrbitLabel(GAMMA0, n, _gamma0_key(*_chart(num, den, n), n))
    raise ParameterError(f"unknown flavor {flavor!r}; use 'gamma' or 'gamma0'")


# ---------------------------------------------------------------------------
# miss scan
# ---------------------------------------------------------------------------

class MissReport(NamedTuple):
    """Which labels at level base**exponent the cusp set reaches.

    hit maps each reached label to a witness (cusp representative c0,
    translation multiple k): the cusp c0 + k*2t carries the label. proven
    lists the unhit labels that the cusp orbit mod the level, or mod a
    divisor of it, does not reach: no cusp carries them. decided says that
    the orbit decided every label, so no search ran (depth is 0) and proven
    is all of unhit. Any other unhit label is evidence from a search of
    finite depth.
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
    decided: bool = False
    proven: tuple[OrbitLabel, ...] = ()

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
            "decided": self.decided,
            "proven_unhit": [str(lbl) for lbl in self.proven],
        }


def _closure_label(flavor: str, a: int, c: int, n: int) -> OrbitLabel:
    """The label of a class key (a, c) of an orbit closure at level n."""
    if flavor == GAMMA:  # a and c are residues, not a pair in lowest terms
        return OrbitLabel(GAMMA, n, min((a, c), ((-a) % n, (-c) % n)))
    return label_of_pair(GAMMA0, a, c, n)


def _proven_unhit(closure: OrbitClosure, flavor: str,
                  unhit: tuple[OrbitLabel, ...]) -> tuple[OrbitLabel, ...]:
    """The unhit labels whose reduction to the closure's level it misses: a
    gamma pair whose U_S-class is not reached, or a gamma0 orbit none of
    whose points mod that level is reached."""
    d = closure.level
    if flavor == GAMMA:
        return tuple(lbl for lbl in unhit if lbl.key not in closure)
    if d < 2:
        return ()
    reached = {label_of_pair(GAMMA0, a, c, d) for a, c in closure.parents}
    return tuple(lbl for lbl in unhit if label_of_pair(GAMMA0, *lbl.key, d) not in reached)


def _closure_hits(g: FrickeGroup, closure: OrbitClosure, flavor: str) -> dict:
    """Each label the closure reaches, in order of discovery, with a cusp
    c0 + k*2t that carries it, 0 <= k < period.

    The cusp is w(inf) for the parent word w of the first class with the
    label, rechecked exactly: its label is computed again from the cusp.
    The class of infinity, whose word is empty, takes the finite cusp
    AA(aa(inf) + period*2t) instead: a translate by a whole period has the
    label of aa(inf), and AA maps that label's class to the class of
    infinity.
    """
    n = closure.level
    p, q = g.two_t.numerator, g.two_t.denominator
    period = q * n // gcd(n, p)
    hit: dict[OrbitLabel, tuple[Fraction, int]] = {}
    for a, c in closure.parents:
        label = _closure_label(flavor, a, c, n)
        if label in hit:
            continue
        word = closure.word((a, c))
        if word:
            x = apply(word_matrix(g, word), INFINITY)
        else:
            y = apply(word_matrix(g, "aa"), INFINITY).to_rational() + period * g.two_t
            x = apply(word_matrix(g, "AA"), point_of(y))
        k, c0 = divmod(x.to_rational(), g.two_t)
        k %= period
        cusp = c0 + k * g.two_t
        if label_of_pair(flavor, cusp.numerator, cusp.denominator, n) != label:
            raise InternalCheckError(f"cusp {format_rational(cusp)} does not carry {label}")
        hit[label] = (c0, k)
    return hit


def _bfs_hits(g: FrickeGroup, flavor: str, level: int, total: int, bfs) -> dict:
    """The labels that the enumerated cusps and their translates reach, each
    with its first witness (c0, k) in enumeration order, as miss_scan labels
    them at a level the cusp orbit does not decide; stops once all total
    labels at the level are hit."""
    p, q = g.two_t.numerator, g.two_t.denominator
    period = q * level // gcd(level, p)
    if len(bfs.nums) * period > MISS_SCAN_MAX_STEPS:
        raise ParameterError(f"{len(bfs.nums)} records x period {period} = {len(bfs.nums) * period}"
                             f" translate steps must be at most {MISS_SCAN_MAX_STEPS}")
    hit: dict[OrbitLabel, tuple[Fraction, int]] = {}
    label_memo: dict[tuple[int, int], OrbitLabel] = {}
    scanned: set[tuple[int, int]] = set()
    for _, a, b in bfs.finite_pairs():
        if q == 1:
            key = (a % gcd(p * b, level), b % level)
            if key in scanned:
                continue
            scanned.add(key)
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
                    return hit
    return hit


def miss_scan(
    g: FrickeGroup,
    flavor: str,
    n: int,
    j: int,
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> MissReport:
    """Report the hit and unhit labels of the cusps at level L = n**j.

    At a level prime to S = g.support_primes, orbit_closure gives the cusp
    points of P1(Z/L), or for gamma the classes of cusp pairs up to U_S =
    <-1, p in S> mod L. That decides every gamma0 label, and every gamma
    label where U_S = {+-1} mod L: such a level runs no search (and reads no
    cache), and each hit's witness comes from the closure's parent word.

    At any other level the enumerated cusps are labelled: every cusp c and
    its translates c + k*2t over one exact period of k. With 2t = p/q, the
    translates c + k*2t and c + (k + P)*2t with P = q*L/gcd(L, p) differ by
    lcm(L, p), an integer divisible by L, so the label of c + k*2t has
    period P in k and the first k of every label lies in [0, P). The
    translates are integer pairs; when q = 1 they are already in lowest
    terms, (a + k*p*b, b) for the cusp a/b, and reach exactly the pairs
    (r, b) mod L with r = a mod gcd(p*b, L), as the multiples of p*b mod L
    form a group of order L/gcd(p*b, L), which divides P. A cusp with a key
    (a mod gcd(p*b, L), b mod L) scanned before is the first to hit no label,
    so skipping it leaves hit, its order and witnesses, and unhit unchanged.
    The unhit labels that the closure misses (at L, or at the divisor of L
    it takes under its cap) are marked proven.
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
    closure = orbit_closure(g, level, vectors=flavor == GAMMA)
    decided = (closure is not None and closure.level == level
               and (flavor == GAMMA0 or closure.units <= {1, level - 1}))
    if decided:  # no search ran: depth 0, as for a proven probe miss
        hit, depth, truncated = _closure_hits(g, closure, flavor), 0, False
    else:
        bfs = cusp_bfs(g, depth, budget, cache_path)
        hit, truncated = _bfs_hits(g, flavor, level, len(all_labels), bfs), bfs.truncated
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
        truncated=truncated,
        hit=hit,
        unhit=unhit,
        decided=decided,
        proven=() if closure is None else _proven_unhit(closure, flavor, unhit),
    )
