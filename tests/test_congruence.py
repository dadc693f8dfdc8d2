import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from fricke.congruence import (
    GAMMA,
    GAMMA0,
    MISS_SCAN_MAX_LEVEL,
    MISS_SCAN_MAX_STEPS,
    MissReport,
    OrbitLabel,
    enumerate_labels,
    gamma0_label,
    gamma_label,
    label_of_pair,
    miss_scan,
    p1_points,
    p1_reduce,
)
from fricke.errors import DomainError, ParameterError
from fricke.exactnum import INFINITY, ProjPoint, point_of, reduce_point
from fricke import congruence, groups, orbitsearch
from fricke.groups import make_group, mat_mul
from fricke.orbitsearch import cusp_bfs

FLAGSHIP = make_group(Fraction(6, 11), 6)
MODSUB = make_group(1, 6)
SQUARE = make_group(Fraction(1, 4), 4)


# ---------------------------------------------------------------- P1(Z/N)

def _brute_reduce(a, c, n):
    # oracle: least pair over all unit multiples
    return min(
        ((a * u % n, c * u % n) for u in range(1, n) if gcd(u, n) == 1),
    )


# p1_reduce and p1_points share _chart with the gamma0 keys, and the gamma0
# orbit oracle below canonicalizes with both, so both are pinned by brute force
@pytest.mark.parametrize("n", [*range(2, 65), 100])
def test_p1_reduce_matches_brute_force(n):
    points = set()
    for a in range(n):
        for c in range(n):
            if gcd(gcd(a, c), n) != 1:
                continue
            assert p1_reduce(a, c, n) == _brute_reduce(a, c, n)
            points.add(_brute_reduce(a, c, n))
    assert p1_points(n) == sorted(points)


@pytest.mark.parametrize(
    "n,size", [(2, 3), (3, 4), (4, 6), (5, 6), (6, 12), (8, 12), (9, 12), (12, 24), (33, 48)]
)
def test_p1_point_counts(n, size):
    # |P1(Z/n)| = n * prod over p | n of (1 + 1/p)
    assert len(p1_points(n)) == size


def test_p1_reduce_rejects_imprimitive():
    with pytest.raises(ParameterError):
        p1_reduce(2, 4, 8)


def test_listings_refuse_levels_outside_their_caps():
    assert p1_points(1) == [p1_reduce(5, 7, 1)] == [(0, 0)]
    for n in (0, -1):
        for call in (lambda: p1_points(n), lambda: p1_reduce(1, 0, n)):
            with pytest.raises(ParameterError, match=f"^level must be >= 1, got {n}$"):
                call()
    cap = congruence.GAMMA0_KEYS_MAX_LEVEL
    assert len(p1_points(cap)) == 180_000  # 10^5 * (1 + 1/2) * (1 + 1/5)
    with pytest.raises(ParameterError, match=f"^P1 points are listed up to level {cap}, got "):
        p1_points(cap + 1)
    assert len(enumerate_labels(GAMMA, MISS_SCAN_MAX_LEVEL)) == 256 ** 2 * 3 // 8
    for n in (MISS_SCAN_MAX_LEVEL + 1, 10 ** 30):
        refusal = f"^gamma labels are listed up to level {MISS_SCAN_MAX_LEVEL}, got {n}$"
        with pytest.raises(ParameterError, match=refusal):
            enumerate_labels(GAMMA, n)


# ---------------------------------------------------------------- gamma labels

def test_gamma_label_refuses_pairs_not_in_lowest_terms():
    # (2 : 4) is (1 : 2), labelled (1,2) mod 5; (5 : 10) has no listed label
    assert label_of_pair(GAMMA, 1, 2, 5).key == (1, 2)
    for num, den in ((2, 4), (5, 10), (-3, 6), (2, 0), (0, 0)):
        with pytest.raises(ParameterError, match=rf"^\({num} : {den}\) is not in lowest terms$"):
            label_of_pair(GAMMA, num, den, 5)


def test_gamma_label_examples():
    assert gamma_label(point_of(Fraction(1, 4)), 5).key == (1, 4)
    assert gamma_label(point_of(Fraction(1, 9)), 5) == gamma_label(
        point_of(Fraction(1, 4)), 5
    )
    assert gamma_label(INFINITY, 5).key == (1, 0)


def test_gamma_label_oracle_matrix_carries_quarter_to_ninth():
    # explicit level-5 principal-congruence matrix with M(1:4) = (1:9)
    found = None
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    m = (1 + 5 * a, 5 * b, 5 * c, 1 + 5 * d)
                    if m[0] * m[3] - m[1] * m[2] != 1:
                        continue
                    if reduce_point(
                        m[0] * 1 + m[1] * 4, m[2] * 1 + m[3] * 4
                    ) == point_of(Fraction(1, 9)):
                        found = m
    assert found is not None


def _random_gamma_matrix(rng, n):
    # products of elementary matrices congruent to the identity mod n
    a = rng.randint(-1, 1)
    b = rng.randint(-1, 1)
    if rng.random() < 0.5:
        m = (1 + n * n * a * b, n * a, n * b, 1)
    else:
        m = (1, n * a, n * b, 1 + n * n * a * b)
    assert m[0] * m[3] - m[1] * m[2] == 1
    return m


def _random_point(rng):
    return reduce_point(rng.randint(-50, 50), rng.randint(0, 50) or 1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gamma_label_invariance_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(200):
        m = _random_gamma_matrix(rng, n)
        x = _random_point(rng)
        y = reduce_point(m[0] * x.a + m[1] * x.c, m[2] * x.a + m[3] * x.c)
        assert gamma_label(x, n) == gamma_label(y, n)


# ---------------------------------------------------------------- gamma0 labels

def test_gamma0_level2_orbits():
    assert gamma0_label(point_of(Fraction(1, 2)), 2) == gamma0_label(point_of(1), 2)
    assert gamma0_label(point_of(0), 2) != gamma0_label(point_of(1), 2)


def test_gamma0_label_invariance_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4, 5, 8, 9, 12):
        for _ in range(200):
            # lower-triangular mod n, determinant one
            a = rng.randint(-2, 2)
            c = rng.randint(-4, 4)
            m = (1 + n * a * c, n * a, c, 1)
            assert m[0] * m[3] - m[1] * m[2] == 1
            assert m[1] % n == 0
            x = _random_point(rng)
            y = reduce_point(m[0] * x.a + m[1] * x.c, m[2] * x.a + m[3] * x.c)
            assert gamma0_label(x, n) == gamma0_label(y, n)


def test_gamma0_valuation_cases_match_enumeration():
    # the label of x depends only on which enumerated orbit its reduction
    # hits; representatives of the three valuation cases at a prime level
    for p in (2, 3, 5):
        at_zero = gamma0_label(point_of(0), p)
        at_unit = gamma0_label(point_of(1), p)
        at_inf = gamma0_label(INFINITY, p)
        assert gamma0_label(point_of(Fraction(p)), p) == at_zero
        assert gamma0_label(point_of(Fraction(p + 1)), p) == at_unit
        assert gamma0_label(point_of(Fraction(1, p)), p) == at_inf


def _gamma0_orbits(n):
    """Oracle: the orbits of P1(Z/n) under lower-triangular determinant-one
    matrices, found by a graph search, as (point -> orbit min, sorted orbit
    mins). The group is generated by the unipotent [[1,0],[1,1]] and the
    diagonals diag(u, 1/u), which scale the first coordinate by squares."""
    points = p1_points(n)
    squares = sorted({u * u % n for u in range(1, n) if gcd(u, n) == 1})
    to_min = {}
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


# 9 and 25 are the least levels where the (a/g)^-1 factor and the unit
# squares mod h change a key
@pytest.mark.parametrize("n", [*range(2, 65), 81, 128, 243, 256])
def test_gamma0_closed_form_matches_orbit_search(n):
    to_min, mins = _gamma0_orbits(n)
    for a in range(n):
        for c in range(n):
            if gcd(a, c, n) == 1:
                assert label_of_pair(GAMMA0, a, c, n).key == to_min[p1_reduce(a, c, n)], (a, c)
    # str() depends only on the level and the key
    labels = enumerate_labels(GAMMA0, n)
    assert labels == [OrbitLabel(GAMMA0, n, key) for key in mins]
    assert [str(lbl) for lbl in labels] == [f"orbit#{i} mod {n}" for i in range(len(mins))]
    # gamma0_label reduces the point mod n
    assert gamma0_label(ProjPoint(n + 1, 2 * n), n) == OrbitLabel(GAMMA0, n, (1, 0))
    assert gamma0_label(ProjPoint(n, 1 - n), n) == OrbitLabel(GAMMA0, n, (0, 1))


def test_gamma0_label_rejects_imprimitive_pairs():
    with pytest.raises(ParameterError, match=r"^\(2 : 4\) is not primitive mod 8$"):
        label_of_pair(GAMMA0, 10, -4, 8)


def test_label_refinement_to_divisor_levels():
    rng = random.Random(23)
    for _ in range(300):
        x, y = _random_point(rng), _random_point(rng)
        if gamma_label(x, 12) == gamma_label(y, 12):
            for d in (2, 3, 4, 6):
                assert gamma_label(x, d) == gamma_label(y, d)
        if gamma0_label(x, 12) == gamma0_label(y, 12):
            for d in (2, 3, 4, 6):
                assert gamma0_label(x, d) == gamma0_label(y, d)


def test_label_level_validation():
    with pytest.raises(ParameterError):
        gamma_label(point_of(1), 1)
    with pytest.raises(ParameterError):
        gamma0_label(point_of(1), 0)
    for flavor in (GAMMA, GAMMA0):
        with pytest.raises(ParameterError, match="level must be >= 2, got 1"):
            label_of_pair(flavor, 1, 1, 1)
    # an unknown flavor is refused as enumerate_labels refuses it
    with pytest.raises(ParameterError, match="unknown flavor 'frobenius'"):
        label_of_pair("frobenius", 1, 2, 5)


def test_gamma0_label_refuses_levels_above_the_key_cap():
    # a key costs gcd(g, n/g) steps, which reaches 10^7 for (10^7 : 1) at 10^14
    cap = congruence.GAMMA0_KEYS_MAX_LEVEL
    assert str(label_of_pair(GAMMA0, 1, 2, cap)) == f"orbit#1 mod {cap}"
    for n in (cap + 1, 10 ** 14):
        refusal = f"^gamma0 labels are computed up to level {cap}, got {n}$"
        with pytest.raises(ParameterError, match=refusal):
            label_of_pair(GAMMA0, 10 ** 7, 1, n)
        with pytest.raises(ParameterError):
            gamma0_label(point_of(1), n)
    assert label_of_pair(GAMMA, 10 ** 7, 1, 10 ** 14).key == (10 ** 7, 1)


@pytest.mark.parametrize("label", [gamma_label, gamma0_label])
def test_labels_reduce_the_point(label):
    pairs = (((2, 8), (1, 4)), ((-1, -4), (1, 4)), ((4, 2), (2, 1)), ((-3, 0), (1, 0)))
    for pair, reduced in pairs:
        assert label(ProjPoint(*pair), 5) == label(ProjPoint(*reduced), 5)
    with pytest.raises(DomainError):
        label(ProjPoint(0, 0), 5)


def test_gamma0_label_with_a_foreign_key_does_not_print():
    # (3, 3) is no orbit's least point mod 4: the labels print orbit#0..#2
    assert [str(lbl) for lbl in enumerate_labels(GAMMA0, 4)] == [
        f"orbit#{i} mod 4" for i in range(3)]
    with pytest.raises(ParameterError, match=r"^\(3, 3\) is not the key of a gamma0 orbit mod 4$"):
        str(OrbitLabel(GAMMA0, 4, (3, 3)))


# ---------------------------------------------------------------- enumeration

def test_enumerate_gamma_counts():
    assert len(enumerate_labels(GAMMA, 2)) == 3
    assert len(enumerate_labels(GAMMA, 5)) == 12
    assert len(enumerate_labels(GAMMA, 33)) == 480


def test_enumerate_gamma_against_independent_bruteforce():
    # oracle: the least of +-(a, c) over every primitive pair, as a set, sorted
    for n in range(2, 121):
        keys = sorted({min((a, c), ((-a) % n, (-c) % n))
                       for a in range(n) for c in range(n) if gcd(a, c, n) == 1})
        assert enumerate_labels(GAMMA, n) == [OrbitLabel(GAMMA, n, key) for key in keys]


def test_enumerate_gamma_level2_keys():
    keys = {lbl.key for lbl in enumerate_labels(GAMMA, 2)}
    assert keys == {(0, 1), (1, 0), (1, 1)}


def test_enumerate_gamma0_level2():
    labels = enumerate_labels(GAMMA0, 2)
    assert len(labels) == 2
    assert str(labels[0]) == "orbit#0 mod 2"


def test_label_of_pair_matches_point_labels():
    rng = random.Random(5)
    for _ in range(100):
        x = _random_point(rng)
        for n in (2, 4, 5):
            assert label_of_pair(GAMMA, x.a, x.c, n) == gamma_label(x, n)
            assert label_of_pair(GAMMA0, x.a, x.c, n) == gamma0_label(x, n)


# ---------------------------------------------------------------- miss scan

def test_miss_scan_report_is_complete():
    report = miss_scan(SQUARE, GAMMA, 2, 2, depth=6)
    assert isinstance(report, MissReport)
    assert report.level == 4
    all_labels = set(enumerate_labels(GAMMA, 4))
    assert set(report.hit) | set(report.unhit) == all_labels
    assert not set(report.hit) & set(report.unhit)


def test_miss_scan_modular_subgroup_hits_everything():
    report = miss_scan(MODSUB, GAMMA, 2, 1, depth=8)
    assert report.unhit == ()


def test_miss_scan_detects_the_missing_valuation_class():
    # cusps of this group avoid valuation exactly -1 at 2; at level 4 that
    # is the principal-congruence class of +-(1, 2), which goes unhit
    report = miss_scan(SQUARE, GAMMA, 2, 2, depth=10)
    assert [lbl.key for lbl in report.unhit] == [(1, 2)]
    deeper = miss_scan(SQUARE, GAMMA, 2, 2, depth=12)
    assert [lbl.key for lbl in deeper.unhit] == [(1, 2)]


def test_miss_scan_gamma0_coarse_levels_all_hit():
    # the lower-triangular orbit partition is too coarse to expose the miss
    # at levels 2 and 4: every orbit contains cusps
    for j in (1, 2):
        report = miss_scan(SQUARE, GAMMA0, 2, j, depth=10)
        assert report.unhit == ()


def test_miss_scan_hit_witnesses_verify():
    report = miss_scan(SQUARE, GAMMA, 2, 2, depth=6)
    for label, (c0, k) in report.hit.items():
        x = c0 + k * SQUARE.two_t
        assert label_of_pair(GAMMA, x.numerator, x.denominator, 4) == label


def test_miss_scan_validation():
    with pytest.raises(ParameterError):
        miss_scan(SQUARE, GAMMA, 1, 1, depth=2)
    with pytest.raises(ParameterError):
        miss_scan(SQUARE, GAMMA, 2, 0, depth=2)
    with pytest.raises(ParameterError):
        miss_scan(SQUARE, "frobenius", 2, 1, depth=2)


def test_miss_scan_level_cap():
    assert MISS_SCAN_MAX_LEVEL == 2 ** 8
    assert miss_scan(SQUARE, GAMMA0, 2, 8, depth=2).level == MISS_SCAN_MAX_LEVEL
    # 2^1000000000 is refused before it is computed
    for n, j in ((MISS_SCAN_MAX_LEVEL + 1, 1), (2, 9), (2, 10 ** 9), (10 ** 100, 1)):
        with pytest.raises(ParameterError, match=f"must be at most {MISS_SCAN_MAX_LEVEL}"):
            miss_scan(SQUARE, GAMMA, n, j, depth=2)


def test_miss_scan_step_cap(monkeypatch):
    # level 256 on (6/11, 6) has period 128: 70,883 records at depth 9 took
    # 7 s to label, 227,849 at depth 10 took 21 s
    assert MISS_SCAN_MAX_STEPS == 4_000_000
    with pytest.raises(ParameterError, match="^70883 records x period 128 = 9073024 translate "
                                             "steps must be at most 4000000$"):
        miss_scan(FLAGSHIP, GAMMA, 256, 1, depth=9)
    # the cap is on records x period: 2t = 11/2 at level 4 has period 8 (the
    # level shares 2 with S = {2, 13}, so the scan labels a search)
    g = make_group(Fraction(2, 3), Fraction(11, 2))
    steps = len(cusp_bfs(g, 4).nums) * 8
    monkeypatch.setattr(congruence, "MISS_SCAN_MAX_STEPS", steps)
    assert miss_scan(g, GAMMA, 2, 2, depth=4).level == 4
    monkeypatch.setattr(congruence, "MISS_SCAN_MAX_STEPS", steps - 1)
    with pytest.raises(ParameterError, match=f"= {steps} translate steps"):
        miss_scan(g, GAMMA, 2, 2, depth=4)


def test_miss_scan_fractional_translation_period():
    # translation 9/2: translate labels are periodic with period level * 2
    g = make_group(Fraction(1, 4), Fraction(9, 2))
    report = miss_scan(g, GAMMA, 3, 1, depth=4)
    assert set(report.hit) | set(report.unhit) == set(enumerate_labels(GAMMA, 3))
    for label, (c0, k) in report.hit.items():
        x = c0 + k * g.two_t
        assert label_of_pair(GAMMA, x.numerator, x.denominator, 3) == label


def _brute_miss_scan(g, flavor, level, depth):
    """Label every translate c0 + k*2t over the full window level * den(2t),
    in Fraction arithmetic: (hit items in order, unhit labels)."""
    labels = enumerate_labels(flavor, level)
    hit = {}
    for rec in cusp_bfs(g, depth).finite_points():
        c0 = rec.point.to_rational()
        for k in range(level * g.two_t.denominator):
            x = c0 + k * g.two_t
            hit.setdefault(label_of_pair(flavor, x.numerator, x.denominator, level), (c0, k))
        if len(hit) == len(labels):
            break
    return list(hit.items()), tuple(lbl for lbl in labels if lbl not in hit)


@pytest.mark.parametrize("u2, two_t, flavor, n, j", [
    (Fraction(1, 4), 4, GAMMA, 2, 2),        # 2t = 0 mod level
    (Fraction(1, 4), 4, GAMMA0, 2, 2),
    (Fraction(1, 4), 18, GAMMA0, 3, 2),      # 2t = 0 mod level
    (Fraction(1, 4), 18, GAMMA, 3, 1),
    (Fraction(6, 11), 6, GAMMA, 33, 1),      # gcd(level, 2t) = 3
    (Fraction(6, 11), 6, GAMMA0, 5, 1),
    (Fraction(2, 3), Fraction(11, 2), GAMMA, 5, 1),
    (Fraction(2, 3), Fraction(11, 2), GAMMA0, 11, 1),  # num(2t) = level
    (Fraction(2, 3), Fraction(11, 2), GAMMA0, 3, 1),
    (Fraction(2, 3), Fraction(11, 2), GAMMA, 2, 2),
])
def test_miss_scan_matches_full_window_oracle(u2, two_t, flavor, n, j):
    g = make_group(u2, two_t)
    report = _labelled_scan(g, flavor, n, j, depth=5)
    hit, unhit = _brute_miss_scan(g, flavor, n ** j, 5)
    assert list(report.hit.items()) == hit
    assert report.unhit == unhit


def _labelled_scan(g, flavor, n, j, depth):
    """miss_scan's report as its BFS labelling gives it: at a level that the
    cusp orbit decides, where miss_scan runs no search, the labelling path
    runs on the same case; decided and proven are left at their defaults."""
    report = miss_scan(g, flavor, n, j, depth=depth)
    if report.decided:
        bfs = cusp_bfs(g, depth)
        labels = enumerate_labels(flavor, report.level)
        hit = congruence._bfs_hits(g, flavor, report.level, len(labels), bfs)
        report = report._replace(hit=hit, unhit=tuple(lbl for lbl in labels if lbl not in hit),
                                 depth=depth, truncated=bfs.truncated)
    return report._replace(decided=False, proven=())


def _every_cusp_miss_scan(g, flavor, n, j, depth):
    """miss_scan with no skipped cusps: every cusp labels one full period
    of translates, each reduced to lowest terms."""
    level = n ** j
    labels = enumerate_labels(flavor, level)
    bfs = cusp_bfs(g, depth)
    p, q = g.two_t.numerator, g.two_t.denominator
    hit = {}
    for _, a, b in bfs.finite_pairs():
        num, den = a * q, b * q
        for k in range(q * level // gcd(level, p)):
            h = gcd(num, den)
            hit.setdefault(label_of_pair(flavor, num // h, den // h, level), (Fraction(a, b), k))
            num += p * b
            if len(hit) == len(labels):
                break
        if len(hit) == len(labels):
            break
    unhit = tuple(lbl for lbl in labels if lbl not in hit)
    return MissReport(g.u2, g.two_t, flavor, n, j, level, depth, bfs.budget, bfs.truncated,
                      hit, unhit)


@pytest.mark.parametrize("flavor", [GAMMA, GAMMA0])
@pytest.mark.parametrize("u2, two_t, n, j", [
    (Fraction(1, 4), 4, 2, 3),               # level a power of p
    (Fraction(1, 4), 4, 3, 1),               # coprime to p
    (Fraction(1, 4), 4, 6, 1),               # shares 2 with p
    (Fraction(6, 11), 6, 4, 1),
    (Fraction(6, 11), 6, 5, 1),
    (Fraction(6, 11), 6, 3, 2),
    (Fraction(1, 4), 18, 3, 2),              # 2t = 0 mod level
    (Fraction(1, 2), Fraction(9, 2), 3, 1),  # q = 2
    (Fraction(1, 2), Fraction(9, 2), 2, 2),
    (Fraction(1, 3), Fraction(25, 3), 5, 1),  # q = 3
    (Fraction(1, 3), Fraction(25, 3), 6, 1),
])
def test_miss_scan_skips_only_cusps_that_reach_no_new_pair(u2, two_t, n, j, flavor):
    g = make_group(u2, two_t)
    report = _labelled_scan(g, flavor, n, j, depth=6)
    expected = _every_cusp_miss_scan(g, flavor, n, j, 6)
    assert report == expected
    assert list(report.hit.items()) == list(expected.hit.items())


def test_orbit_label_ordering_and_str():
    lbl = gamma_label(point_of(Fraction(1, 2)), 4)
    assert str(lbl) == "(1,2) mod 4"
    labels = enumerate_labels(GAMMA0, 4)
    assert [str(l) for l in labels] == [f"orbit#{i} mod 4" for i in range(len(labels))]


def test_miss_scan_flagship_level_33_regression():
    # measured: the (6/11, 6) cusp set hits exactly half of the 480 classes
    # at level 33, and the unhit set is unchanged from depth 8 to depth 10
    report = miss_scan(FLAGSHIP, GAMMA, 33, 1, depth=8)
    assert not report.truncated
    assert len(report.hit) == 240 and len(report.unhit) == 240


# ---------------------------------------------------------------- decided by the cusp orbit

@pytest.mark.parametrize("u2, two_t, flavor, level", [
    (Fraction(1, 4), 4, GAMMA, 4),
    (Fraction(1, 4), 4, GAMMA0, 4),
    (Fraction(5, 3), 6, GAMMA, 6),
    (Fraction(1, 4), 18, GAMMA, 8),
    (Fraction(1, 4), 18, GAMMA0, 9),
    (Fraction(1, 15), 8, GAMMA, 10),
    (Fraction(1, 9), 6, GAMMA, 9),
    (Fraction(1, 16), 8, GAMMA, 12),
    (Fraction(1, 16), 8, GAMMA0, 12),
    (1, 6, GAMMA, 8),
    (Fraction(2, 3), Fraction(11, 2), GAMMA0, 11),
])
def test_decided_scan_matches_a_complete_full_window_search(u2, two_t, flavor, level):
    # at these levels a depth-5 full-window search already reaches every
    # label the cusp orbit reaches, so the two give the same sets
    g = make_group(u2, two_t)
    report = miss_scan(g, flavor, level, 1, depth=5)
    assert report.decided and report.proven == report.unhit
    assert (report.depth, report.truncated) == (0, False)
    hit, unhit = _brute_miss_scan(g, flavor, level, 5)
    assert set(report.hit) == {lbl for lbl, _ in hit}
    assert report.unhit == unhit
    period = g.two_t.denominator * level // gcd(level, g.two_t.numerator)
    for label, (c0, k) in report.hit.items():
        assert 0 <= c0 < g.two_t and 0 <= k < period
        x = c0 + k * g.two_t
        assert label_of_pair(flavor, x.numerator, x.denominator, level) == label


def test_decided_scan_runs_no_search(monkeypatch):
    monkeypatch.setattr(congruence, "cusp_bfs", None)
    report = miss_scan(SQUARE, GAMMA, 2, 2, depth=10)
    assert report.decided and [str(lbl) for lbl in report.unhit] == ["(1,2) mod 4"]
    assert report.to_dict()["decided"] and report.to_dict()["proven_unhit"] == ["(1,2) mod 4"]


def test_decided_scan_derives_each_cusp_from_its_parents(monkeypatch):
    # (1, 6) at level 211 reaches all 22,260 gamma labels. Each class's cusp
    # is its Lambda word applied to its parent's cusp, so the scan multiplies
    # out a few dozen letters, not each class's whole parent word. The
    # witnesses, in order, hash to the digest of the word-by-word evaluation
    products = []
    monkeypatch.setattr(groups, "mat_mul", lambda m, n: products.append(1) or mat_mul(m, n))
    report = miss_scan(MODSUB, GAMMA, 211, 1, depth=8)
    assert report.decided and len(report.hit) == 22260 and not report.unhit
    assert len(products) < 100
    digest = hashlib.sha256(repr(list(report.hit.items())).encode()).hexdigest()
    assert digest == "324a3e5e2cdd0ea61d8c6fb8f9cbb1cf3bfb23e6685db0a9f88cb2e4c81ddb3a"


def test_scan_marks_the_unhit_labels_the_cusp_orbit_proves():
    # level 33 is prime to S = {2} but U_S = <-1, 2> mod 33 has order 10, so
    # gamma is labelled by a search; all 240 unhit classes are proven missed
    report = miss_scan(FLAGSHIP, GAMMA, 33, 1, depth=7)
    assert not report.decided and len(report.unhit) == 240
    assert report.proven == report.unhit
    # a level that shares a prime with S proves nothing
    report = miss_scan(SQUARE, GAMMA, 3, 1, depth=6)
    assert not report.decided and report.proven == ()
    assert report.to_dict()["proven_unhit"] == [] and not report.to_dict()["decided"]


def test_scan_above_the_closure_cap_proves_at_a_divisor(monkeypatch):
    # psi(256) = 384 is above the cap: the orbit is closed mod 128, and a
    # label missed mod 128 is missed mod 256 too
    report = miss_scan(SQUARE, GAMMA, 2, 8, depth=5)
    assert not report.decided and report.proven and set(report.proven) <= set(report.unhit)
    monkeypatch.setattr(orbitsearch, "ORBIT_CLOSURE_MAX_POINTS", 400)
    full = miss_scan(SQUARE, GAMMA, 2, 8, depth=5)
    assert set(report.proven) <= set(full.proven) <= set(full.unhit) == set(report.unhit)
