import random
from fractions import Fraction
from math import gcd

import pytest

from fricke.cli import main
from fricke.errors import CacheError, ParameterError
from fricke.exactnum import (
    INFINITY,
    ball_trace_contains,
    point_of,
    vp,
)
from fricke.groups import (
    IDENTITY,
    PARABOLIC_WORD,
    TRANSLATION_WORD,
    ElementClass,
    apply,
    classify_element,
    make_group,
    word_matrix,
)
from fricke.orbitsearch import (
    DEFAULT_NODE_BUDGET,
    CuspTestResult,
    _letter_step,
    adelic_probe,
    cusp_bfs,
    cusp_test,
    load_cached_bfs,
    normalize_targets,
    padic_probe,
    special_point_scan,
)
from fricke.words import concat, parity

FLAGSHIP = make_group(Fraction(6, 11), 6)
MODSUB = make_group(1, 6)  # inside the modular group; cusp set is all of Q
SQUARE = make_group(Fraction(1, 4), 4)


# ---------------------------------------------------------------- reduction

def reduce_mod_translation(g, num, den):
    """x = rep + k * 2t with rep in [0, 2t), through the identity letter step."""
    two_t = g.two_t
    rn, rd, k = _letter_step(IDENTITY, two_t.numerator, two_t.denominator, num, den)
    assert rd > 0 and gcd(rn, rd) == 1
    return Fraction(rn, rd), k


def test_reduce_mod_translation():
    rep, k = reduce_mod_translation(FLAGSHIP, 8, 1)
    assert (rep, k) == (Fraction(2), 1)
    rep, k = reduce_mod_translation(FLAGSHIP, -1, 2)
    assert rep == Fraction(11, 2) and k == -1
    assert 0 <= rep < FLAGSHIP.two_t
    # the pair need not be reduced, and its sign sits on either entry
    assert reduce_mod_translation(FLAGSHIP, 2, -4) == (Fraction(11, 2), -1)
    assert reduce_mod_translation(FLAGSHIP, 36, 3) == (Fraction(0), 2)


# ---------------------------------------------------------------- bfs

def test_bfs_depth_one_contents():
    res = cusp_bfs(FLAGSHIP, 1)
    points = {r.point for r in res.records}
    assert INFINITY in points
    assert point_of(2) in points          # gen1 at infinity
    assert point_of(Fraction(6, 11)) in points  # gen2 at infinity
    assert not res.truncated


def test_bfs_depth_two_reaches_zero():
    res = cusp_bfs(FLAGSHIP, 2)
    assert point_of(0) in {r.point for r in res.records}


def test_bfs_witnesses_are_exact():
    res = cusp_bfs(FLAGSHIP, 4)
    for rec in res.records:
        assert apply(word_matrix(FLAGSHIP, rec.witness), INFINITY) == rec.point
        assert parity(rec.witness) == rec.parity_tag
        if not rec.point.is_infinity:
            assert 0 <= rec.point.to_rational() < FLAGSHIP.two_t


def test_bfs_monotone_in_depth():
    p3 = {r.point for r in cusp_bfs(FLAGSHIP, 3).records}
    p4 = {r.point for r in cusp_bfs(FLAGSHIP, 4).records}
    assert p3 <= p4


def test_bfs_budget_truncation():
    res = cusp_bfs(FLAGSHIP, 6, budget=50)
    assert res.truncated
    assert len(res.records) == 50


def test_bfs_translation_closure():
    res = cusp_bfs(FLAGSHIP, 3)
    pw = word_matrix(FLAGSHIP, PARABOLIC_WORD)
    for rec in list(res.finite_points())[:20]:
        c = rec.point.to_rational()
        assert ball_trace_contains(c, FLAGSHIP.two_t, c + FLAGSHIP.two_t)
        # the parabolic word maps c + 2t back to c
        assert apply(pw, point_of(c + FLAGSHIP.two_t)) == rec.point


def test_bfs_deterministic():
    a = cusp_bfs(FLAGSHIP, 4)
    b = cusp_bfs(FLAGSHIP, 4)
    assert a.records == b.records


def _fraction_bfs(g, depth, budget):
    """The Fraction BFS that the integer-pair kernel replaced, as an oracle:
    (point, witness, depth, parity_tag) per record, and the truncation flag."""
    letters = [(ch, tuple(g.letter_matrix(ch))) for ch in "AaBb"]
    T = g.two_t
    records = [(INFINITY, "", 0, (0, 0))]
    seen = {None: (0, 0)}
    frontier = [(None, "")]
    truncated = False
    for level in range(1, depth + 1):
        if truncated or not frontier:
            break
        nxt = []
        for x, w in frontier:
            if truncated:
                break
            xn, xd = (1, 0) if x is None else (x.numerator, x.denominator)
            wp = parity(w)
            for ch, (a, b, c, d) in letters:
                yn = a * xn + b * xd
                yd = c * xn + d * xd
                if yd == 0:
                    continue
                y = Fraction(yn, yd)
                k = int(y // T)
                rep = y - k * T
                key = (rep.numerator, rep.denominator)
                tag = (wp[0] ^ (ch in "Aa"), wp[1] ^ (ch in "Bb"))
                prev = seen.get(key)
                if prev is not None:
                    assert prev == tag
                    continue
                if len(records) >= budget:
                    truncated = True
                    break
                shift = PARABOLIC_WORD * k if k >= 0 else TRANSLATION_WORD * (-k)
                witness = concat(shift, ch, w)
                seen[key] = tag
                records.append((point_of(rep), witness, level, tag))
                nxt.append((rep, witness))
        frontier = nxt
    return records, truncated


@pytest.mark.parametrize("u2, two_t", [
    (Fraction(6, 11), 6), (Fraction(1, 4), 4), (1, 6), (Fraction(2, 3), Fraction(11, 2)),
])
def test_bfs_matches_fraction_oracle(u2, two_t):
    g = make_group(u2, two_t)
    # budgets no other test uses, so the in-process memo holds no run whose
    # witnesses are already built
    for depth, budget in ((5, 10**6), (7, 1234)):
        want, want_truncated = _fraction_bfs(g, depth, budget)
        res = cusp_bfs(g, depth, budget)
        # build a deep witness and one mid-chain before the rest, so the
        # parent-chain walk runs on records whose parents are not built yet
        last = len(want) - 1
        assert res.witness(last) == want[last][1]
        assert res.witness(last // 2) == want[last // 2][1]
        got = [(r.point, r.witness, r.depth, r.parity_tag) for r in res.records]
        assert got == want
        assert res.truncated == want_truncated
    # the budget cut falls inside a level: its last level is not closed
    full, _ = _fraction_bfs(g, want[-1][2], DEFAULT_NODE_BUDGET)
    assert want_truncated and len(want) < len(full)


def test_bfs_rejects_bad_args():
    with pytest.raises(ParameterError):
        cusp_bfs(FLAGSHIP, -1)
    with pytest.raises(ParameterError):
        cusp_bfs(FLAGSHIP, 2, budget=0)


# ---------------------------------------------------------------- cache

def test_bfs_cache_round_trip(tmp_path):
    path = str(tmp_path / "orbits.cache")
    first = cusp_bfs(FLAGSHIP, 3, cache_path=path)
    again = cusp_bfs(FLAGSHIP, 3, cache_path=path)
    assert first == again
    # exact-match semantics: a different depth is computed, not reused
    other = cusp_bfs(FLAGSHIP, 2, cache_path=path)
    assert len(other.records) < len(first.records)
    # the file now holds both runs, append-only
    assert load_cached_bfs(path, FLAGSHIP, 3, first.budget) is not None
    assert load_cached_bfs(path, FLAGSHIP, 2, first.budget) is not None
    assert load_cached_bfs(path, FLAGSHIP, 5, first.budget) is None


def test_bfs_memoized_run_is_appended_to_the_cache(tmp_path):
    path = str(tmp_path / "orbits.cache")
    computed = cusp_bfs(SQUARE, 7, budget=500)
    assert computed.truncated
    # the in-process memo serves the run, and the cache file still gets it
    assert cusp_bfs(SQUARE, 7, budget=500, cache_path=path) is computed
    with open(path, encoding="ascii") as fh:
        assert sum(line.startswith("#bfs ") for line in fh) == 1
    loaded = load_cached_bfs(path, SQUARE, 7, 500)
    assert loaded.records == computed.records
    assert loaded.truncated == computed.truncated
    assert cusp_bfs(SQUARE, 7, budget=500, cache_path=path) == computed


def test_bfs_cache_distinguishes_groups(tmp_path):
    path = str(tmp_path / "orbits.cache")
    res = cusp_bfs(FLAGSHIP, 2, cache_path=path)
    assert load_cached_bfs(path, MODSUB, 2, res.budget) is None


def test_bfs_cache_file_format(tmp_path):
    path = tmp_path / "orbits.cache"
    cusp_bfs(FLAGSHIP, 1, cache_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#bfs u2=6/11 twot=6 depth=1 ")
    # line-delimited records: point, word, depth, parity, tab-separated
    assert lines[1] == "inf\t\t0\t0,0"
    fields = lines[2].split("\t")
    assert len(fields) == 4
    assert fields[0] in {"2", "6/11"} or "/" in fields[0] or fields[0].isdigit()


def _cached_lines(tmp_path):
    path = tmp_path / "orbits.cache"
    cusp_bfs(FLAGSHIP, 2, cache_path=str(path))
    return path, path.read_text().splitlines(keepends=True)


def test_bfs_cache_cut_short_block_is_an_error(tmp_path):
    path, lines = _cached_lines(tmp_path)
    path.write_text("".join(lines[:-2]))
    with pytest.raises(CacheError, match="fewer than"):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)


def test_bfs_cache_garbled_line_is_an_error(tmp_path, capsys):
    path, lines = _cached_lines(tmp_path)
    lines[3] = "3/x\tAB\t1\t0,1\n"
    path.write_text("".join(lines))
    with pytest.raises(CacheError, match="malformed"):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)
    code = main(["probe", "adelic", "--u2", "6/11", "--twot", "6", "--x", "0",
                 "--m", "6", "--depth", "2", "--cache", str(path)])
    assert code == 2
    assert "malformed cache line" in capsys.readouterr().err


# ---------------------------------------------------------------- cusp_test

def test_cusp_test_known_cusp():
    res = cusp_test(FLAGSHIP, point_of(2), depth=4)
    assert res.kind == "cusp"
    assert apply(word_matrix(FLAGSHIP, res.witness), INFINITY) == point_of(2)


def test_cusp_test_infinity():
    assert cusp_test(FLAGSHIP, INFINITY, 3) == CuspTestResult("cusp", witness="", depth=0)


def test_cusp_test_special_point():
    res = cusp_test(FLAGSHIP, point_of(Fraction(1, 4)), depth=8)
    assert res.kind == "special"
    m = word_matrix(FLAGSHIP, res.witness)
    assert classify_element(m) is ElementClass.HYPERBOLIC
    assert apply(m, point_of(Fraction(1, 4))) == point_of(Fraction(1, 4))


def test_cusp_test_unknown_at_tiny_depth():
    res = cusp_test(FLAGSHIP, point_of(Fraction(355, 113)), depth=1)
    assert res.kind == "unknown"
    assert res.depth == 1


@pytest.mark.parametrize("x", [Fraction(5), Fraction(39, 11), -1 - 7 * FLAGSHIP.two_t])
def test_cusp_test_finds_translated_poles_at_depth_one(x):
    # a(inf) + 2t, b(inf) + 2t and a(inf) - 7*2t: each is a translate of the
    # pole of A or B, one letter from infinity
    res = cusp_test(FLAGSHIP, point_of(x), depth=1)
    assert (res.kind, res.depth) == ("cusp", 1)
    assert apply(word_matrix(FLAGSHIP, res.witness), INFINITY) == point_of(x)


# ---------------------------------------------------------------- special scan

def test_special_scan_flagship_finds_quarter():
    pairs = special_point_scan(FLAGSHIP, 6)
    points = {pt for pt, _ in pairs}
    assert point_of(Fraction(1, 4)) in points
    for pt, w in pairs:
        m = word_matrix(FLAGSHIP, w)
        assert classify_element(m) is ElementClass.HYPERBOLIC
        assert apply(m, pt) == pt


def test_special_scan_monotone():
    small = dict(special_point_scan(FLAGSHIP, 5))
    large = dict(special_point_scan(FLAGSHIP, 6))
    assert set(small) <= set(large)
    for pt, w in small.items():
        assert large[pt] == w


def test_special_scan_empty_for_integral_group():
    assert special_point_scan(MODSUB, 7) == []


def test_special_scan_rejects_bad_length():
    with pytest.raises(ParameterError):
        special_point_scan(FLAGSHIP, 0)


# ---------------------------------------------------------------- adelic probe

def test_adelic_probe_modular_subgroup():
    res = adelic_probe(MODSUB, Fraction(1, 3), 9, depth=8)
    assert res.found
    assert ball_trace_contains(Fraction(1, 3), 9, res.cusp)
    assert res.cusp == res.base_point + res.offset * MODSUB.two_t


def test_adelic_probe_zero_ball():
    res = adelic_probe(FLAGSHIP, 0, FLAGSHIP.two_t, depth=4)
    assert res.found
    assert ball_trace_contains(0, FLAGSHIP.two_t, res.cusp)


def test_adelic_probe_obstructed_ball_not_found():
    # cusps of this group avoid valuation -1 at 2; the ball 1/2 + 8Z
    # consists entirely of such rationals
    res = adelic_probe(SQUARE, Fraction(1, 2), 8, depth=8)
    assert not res.found


def test_adelic_probe_brute_force_agreement():
    rng = random.Random(6)
    bfs = cusp_bfs(MODSUB, 6)
    for _ in range(40):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        res = adelic_probe(MODSUB, x, m, depth=6)
        # oracle: scan every cusp and a window of translation multiples
        brute = None
        for rec in bfs.finite_points():
            c0 = rec.point.to_rational()
            for k in range(-200, 201):
                if ball_trace_contains(x, m, c0 + k * MODSUB.two_t):
                    brute = (c0, k)
                    break
            if brute:
                break
        assert res.found == (brute is not None)
        if res.found:
            assert res.base_point == brute[0]


def test_adelic_probe_zero_modulus_rejected():
    with pytest.raises(ParameterError):
        adelic_probe(FLAGSHIP, 0, 0, depth=2)


# ---------------------------------------------------------------- padic probe

def test_padic_probe_flagship():
    res = padic_probe(FLAGSHIP, Fraction(1, 4), [(7, 3)], depth=6)
    assert res.found
    assert vp(res.cusp - Fraction(1, 4), 7) >= 3


def test_padic_probe_exact_hit_uses_infinite_valuation():
    res = padic_probe(FLAGSHIP, Fraction(2), [(7, 2)], depth=3)
    assert res.found
    diff = res.cusp - 2
    assert diff == 0 or vp(diff, 7) >= 2


def test_padic_probe_multi_target():
    res = padic_probe(FLAGSHIP, Fraction(1, 4), [(7, 2), (5, 2)], depth=6)
    assert res.found
    diff = res.cusp - Fraction(1, 4)
    assert vp(diff, 7) >= 2 and vp(diff, 5) >= 2


def test_padic_probe_obstructed_target_not_found():
    # no cusp of this group has valuation -1 at 2
    res = padic_probe(SQUARE, Fraction(1, 2), [(2, 4)], depth=8)
    assert not res.found


def test_padic_probe_brute_force_agreement():
    rng = random.Random(17)
    bfs = cusp_bfs(FLAGSHIP, 4)
    T = FLAGSHIP.two_t
    for _ in range(30):
        y = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        p = rng.choice([2, 3, 5, 7, 11])
        k = rng.randint(1, 2)
        res = padic_probe(FLAGSHIP, y, [(p, k)], depth=4)
        brute = None
        for rec in bfs.finite_points():
            c0 = rec.point.to_rational()
            for j in range(0, p**k * T.denominator * 4):
                diff = c0 + j * T - y
                if diff == 0 or vp(diff, p) >= k:
                    brute = (c0, j)
                    break
            if brute:
                break
        assert res.found == (brute is not None), (y, p, k)
        if res.found:
            assert (res.base_point, res.offset) == brute


def test_normalize_targets():
    assert normalize_targets([(3, 1), (2, 2), (3, 4)]) == [(2, 2), (3, 4)]
    with pytest.raises(ParameterError):
        normalize_targets([])
    with pytest.raises(ParameterError):
        normalize_targets([(4, 1)])
    with pytest.raises(ParameterError):
        normalize_targets([(3, 0)])


def test_probe_determinism():
    r1 = padic_probe(FLAGSHIP, Fraction(1, 4), [(7, 3)], depth=6)
    r2 = padic_probe(FLAGSHIP, Fraction(1, 4), [(7, 3)], depth=6)
    assert r1 == r2


# ---------------------------------------------------------------- fractional 2t

FRACTIONAL = make_group(Fraction(1, 4), Fraction(9, 2))  # translation 9/2


def test_fractional_translation_bfs_is_exact():
    res = cusp_bfs(FRACTIONAL, 4)
    assert not res.truncated
    for rec in res.records:
        assert apply(word_matrix(FRACTIONAL, rec.witness), INFINITY) == rec.point
        if not rec.point.is_infinity:
            assert 0 <= rec.point.to_rational() < Fraction(9, 2)


def test_fractional_translation_reduction():
    rep, k = reduce_mod_translation(FRACTIONAL, -1, 4)
    assert rep == Fraction(17, 4) and k == -1
    assert reduce_mod_translation(FRACTIONAL, 9, 1) == (Fraction(0), 2)


def test_fractional_translation_probes():
    res = padic_probe(FRACTIONAL, Fraction(1, 3), [(7, 2)], depth=4)
    assert res.found
    diff = res.cusp - Fraction(1, 3)
    assert diff == 0 or vp(diff, 7) >= 2
    res2 = adelic_probe(FRACTIONAL, Fraction(1, 7), Fraction(3, 7), depth=4)
    assert res2.found
    assert ball_trace_contains(Fraction(1, 7), Fraction(3, 7), res2.cusp)


# ---------------------------------------------------------------- monotonicity

def test_bfs_records_are_prefix_stable_in_depth():
    shallow = cusp_bfs(FLAGSHIP, 3).records
    deep = cusp_bfs(FLAGSHIP, 5).records
    assert deep[: len(shallow)] == shallow


def test_probe_results_are_monotone_in_depth():
    # a hit at depth d is returned unchanged at any greater depth, because
    # the enumeration order is prefix-stable
    rng = random.Random(31)
    for _ in range(15):
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        p = rng.choice([2, 3, 5, 7])
        res4 = padic_probe(FLAGSHIP, y, [(p, 2)], depth=4)
        res6 = padic_probe(FLAGSHIP, y, [(p, 2)], depth=6)
        if res4.found:
            assert (res6.base_point, res6.offset, res6.cusp) == (
                res4.base_point, res4.offset, res4.cusp
            )
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        m = Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 20))
        a4 = adelic_probe(MODSUB, x, m, depth=4)
        a6 = adelic_probe(MODSUB, x, m, depth=6)
        if a4.found:
            assert (a6.base_point, a6.offset) == (a4.base_point, a4.offset)
