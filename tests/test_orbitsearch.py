import builtins
import random
import time
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from fricke.cli import main
from fricke.congruence import p1_points
from fricke.errors import CacheError, DomainError, InternalCheckError, ParameterError
from fricke.exactnum import (
    INFINITY,
    ProjPoint,
    ball_trace_contains,
    p1_reduce,
    point_of,
    prime_factors,
    reduce_point,
    vp,
)
from fricke.groups import (
    IDENTITY,
    PARABOLIC_WORD,
    TRANSLATION_WORD,
    ElementClass,
    FrickeGroup,
    apply,
    classify_element,
    fixed_points,
    make_group,
    mat_mul,
    word_matrix,
)
from fricke import orbitsearch
from fricke.orbitsearch import (
    DEFAULT_NODE_BUDGET,
    ORBIT_CLOSURE_MAX_POINTS,
    PADIC_MAX_MODULUS_BITS,
    SPECIAL_SCAN_MAX_LEN,
    CuspRecord,
    CuspTestResult,
    ProbeResult,
    _LETTER_RANK,
    _letter_step,
    _word_key,
    adelic_probe,
    cusp_bfs,
    cusp_test,
    load_cached_bfs,
    normalize_targets,
    orbit_closure,
    padic_probe,
    special_point_scan,
)
from fricke.words import INVERSE, LETTERS, concat, parity

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


def test_rebuilt_group_is_equal_and_shares_the_bfs_memo():
    g1, g2 = make_group(Fraction(6, 11), 6), make_group(Fraction(6, 11), 6)
    assert g1 is not g2
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != make_group(Fraction(6, 11), 7)
    assert cusp_bfs(g2, 5) is cusp_bfs(g1, 5)


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
    # a depth-0 block holds only its header
    root = cusp_bfs(FLAGSHIP, 0, cache_path=path)
    assert load_cached_bfs(path, FLAGSHIP, 0, root.budget) == root
    assert root.records == (CuspRecord(INFINITY, "", 0, (0, 0)),)
    # hits leave the file as it is, and a fresh file gets the same bytes
    written = (tmp_path / "orbits.cache").read_bytes()
    for depth in (3, 2, 0):
        cusp_bfs(FLAGSHIP, depth, cache_path=path)
    assert (tmp_path / "orbits.cache").read_bytes() == written
    fresh = str(tmp_path / "fresh.cache")
    for depth in (3, 2, 0):
        cusp_bfs(FLAGSHIP, depth, cache_path=fresh)
    assert (tmp_path / "fresh.cache").read_bytes() == written


def test_bfs_memoized_run_is_appended_to_the_cache(tmp_path):
    path = str(tmp_path / "orbits.cache")
    computed = cusp_bfs(SQUARE, 7, budget=500)
    assert computed.truncated
    # the in-process memo serves the run, and the cache file still gets it
    assert cusp_bfs(SQUARE, 7, budget=500, cache_path=path) is computed
    with open(path, encoding="ascii") as fh:
        assert sum(line.startswith("#orbit ") for line in fh) == 1
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
    assert lines[0] == (
        f"#orbit u2=6/11 twot=6 depth=1 budget={DEFAULT_NODE_BUDGET} "
        "truncated=0 records=5"
    )
    # one line per record after infinity: parent index and letter
    assert lines[1:] == ["0\tA", "0\ta", "0\tB", "0\tb"]


def test_bfs_cache_ignores_blocks_of_the_old_format(tmp_path):
    path = tmp_path / "orbits.cache"
    # a block of the format that stored points and witnesses for each record
    old = (
        f"#bfs u2=6/11 twot=6 depth=1 budget={DEFAULT_NODE_BUDGET} truncated=0 records=5\n"
        "inf\t\t0\t0,0\n2\tA\t1\t1,0\n5\tAbaBa\t1\t1,0\n"
        "6/11\tB\t1\t0,1\n39/11\tAba\t1\t0,1\n"
    )
    path.write_text(old)
    assert load_cached_bfs(str(path), FLAGSHIP, 1, DEFAULT_NODE_BUDGET) is None
    res = cusp_bfs(FLAGSHIP, 1, cache_path=str(path))
    text = path.read_text()
    assert text.startswith(old) and text.count("#orbit ") == 1
    assert load_cached_bfs(str(path), FLAGSHIP, 1, DEFAULT_NODE_BUDGET) == res


def test_bfs_cache_load_replays_each_record_from_its_parent(tmp_path):
    path, lines = _cached_lines(tmp_path)
    # record 5 is the first of level 2; hang it from another level-1 record
    assert lines[5] == "1\tA\n"
    lines[5] = "3\tA\n"
    path.write_text("".join(lines))
    loaded = load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)
    assert loaded.records[5] != cusp_bfs(FLAGSHIP, 2).records[5]
    for rec in loaded.records:
        assert apply(word_matrix(FLAGSHIP, rec.witness), INFINITY) == rec.point
        assert parity(rec.witness) == rec.parity_tag


def _cached_lines(tmp_path):
    path = tmp_path / "orbits.cache"
    cusp_bfs(FLAGSHIP, 2, cache_path=str(path))
    return path, path.read_text().splitlines(keepends=True)


def test_bfs_cache_cut_short_block_is_an_error(tmp_path):
    path, lines = _cached_lines(tmp_path)
    path.write_text("".join(lines[:-2]))
    with pytest.raises(CacheError, match="fewer than"):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)
    # a header cut inside its record count, "records=19" read as "records=1"
    path.write_text(lines[0][:-2])
    with pytest.raises(CacheError, match="cut short"):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)


@pytest.mark.parametrize("records, message", [
    (0, "at least 1 record"), (3, "does not end after 3 records"),
])
def test_bfs_cache_record_count_too_low_is_an_error(tmp_path, capsys, records, message):
    path, lines = _cached_lines(tmp_path)
    assert lines[0].endswith(" records=19\n")
    lines[0] = lines[0].replace(" records=19", f" records={records}")
    path.write_text("".join(lines))
    with pytest.raises(CacheError, match=message):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)
    # a short run once reported labels as unhit, with exit 0
    # level 2 shares a prime with S = {2}, so the scan reads the cache
    code = main(["scan", "congruence", "--u2", "6/11", "--twot", "6", "--flavor", "gamma",
                 "--N", "2", "--depth", "2", "--cache", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("line", [
    "3\tA\n",  # record 3 naming itself as its parent
    "4\tB\n",  # a later record
    "07\tA\n",
    "0\tC\n",
    "0\tAB\n",
])
def test_bfs_cache_bad_parent_or_letter_is_an_error(tmp_path, line):
    path, lines = _cached_lines(tmp_path)
    lines[3] = line
    path.write_text("".join(lines))
    with pytest.raises(CacheError, match="malformed"):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)


def test_bfs_cache_step_back_to_infinity_is_an_error(tmp_path):
    path, lines = _cached_lines(tmp_path)
    # record 1 is A(inf); the letter a takes it back to infinity
    assert lines[1] == "0\tA\n"
    lines[5] = "1\ta\n"
    path.write_text("".join(lines))
    with pytest.raises(CacheError, match="to infinity"):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)



def test_bfs_cache_malformed_line_right_after_the_header_is_an_error(tmp_path):
    path, lines = _cached_lines(tmp_path)
    lines[1] = "0\tA \n"
    path.write_text("".join(lines))
    with pytest.raises(CacheError, match=r"malformed cache line '0\\tA '"):
        load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)


def test_bfs_cache_last_line_cut_off_is_an_error(tmp_path):
    # a crash mid-append can leave the last record line without its newline
    path, lines = _cached_lines(tmp_path)
    last = lines[-1]
    for cut in (last[:-1], last[:-2], last[:1]):
        path.write_text("".join(lines[:-1]) + cut)
        with pytest.raises(CacheError, match="holds fewer than 19 records"):
            load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)


def test_bfs_cache_record_line_in_place_of_the_next_header_is_an_error(tmp_path):
    path, lines = _cached_lines(tmp_path)
    other = tmp_path / "other.cache"
    cusp_bfs(FLAGSHIP, 1, cache_path=str(other))
    # one record line more than records= says, at the end of the file and
    # in front of the next block
    for tail in ("0\tA\n", "0\tA\n" + other.read_text()):
        path.write_text("".join(lines) + tail)
        with pytest.raises(CacheError, match="does not end after 19 records"):
            load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET)
    # the next block itself still loads
    assert load_cached_bfs(str(path), FLAGSHIP, 1, DEFAULT_NODE_BUDGET) == cusp_bfs(FLAGSHIP, 1)


def test_bfs_cache_one_record_block_at_the_end_of_the_file(tmp_path):
    path, _ = _cached_lines(tmp_path)
    root = cusp_bfs(FLAGSHIP, 0, cache_path=str(path))
    text = path.read_text()
    assert text.endswith(f"depth=0 budget={DEFAULT_NODE_BUDGET} truncated=0 records=1\n")
    assert load_cached_bfs(str(path), FLAGSHIP, 0, DEFAULT_NODE_BUDGET) == root
    assert load_cached_bfs(str(path), FLAGSHIP, 2, DEFAULT_NODE_BUDGET) == cusp_bfs(FLAGSHIP, 2)
    path.write_text(text + "0\tA\n")
    with pytest.raises(CacheError, match="does not end after 1 records"):
        load_cached_bfs(str(path), FLAGSHIP, 0, DEFAULT_NODE_BUDGET)


def test_bfs_cache_load_equals_compute_on_the_orbit_workload_runs(tmp_path):
    # (u2, 2t, depth, budget) of the benchmark's orbit queries, and a run
    # with a fractional translation; one file holds every block
    runs = [
        (Fraction(6, 11), 6, 14, 20_000),
        (Fraction(1, 4), 4, 12, 20_000),
        (1, 6, 8, DEFAULT_NODE_BUDGET),
        (Fraction(1, 4), 4, 10, 20_000),
        (Fraction(6, 11), 6, 7, DEFAULT_NODE_BUDGET),
        (Fraction(1, 4), Fraction(9, 2), 7, DEFAULT_NODE_BUDGET),
    ]
    path = str(tmp_path / "orbits.cache")
    computed = [cusp_bfs(make_group(u2, two_t), depth, budget, cache_path=path)
                for u2, two_t, depth, budget in runs]
    for (u2, two_t, depth, budget), want in zip(runs, computed):
        loaded = load_cached_bfs(path, make_group(u2, two_t), depth, budget)
        assert loaded is not want and loaded == want


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



@pytest.mark.parametrize("pair, reduced", [
    ((-2, -1), (2, 1)), ((4, 2), (2, 1)), ((2, 8), (1, 4)), ((-1, -4), (1, 4)), ((-3, 0), (1, 0)),
])
def test_cusp_test_reduces_the_point(pair, reduced):
    # (2 : 1) is a cusp and (1 : 4) a special point of the flagship group
    assert cusp_test(FLAGSHIP, ProjPoint(*pair), 8) == cusp_test(FLAGSHIP, ProjPoint(*reduced), 8)


def test_cusp_test_refuses_zero_zero():
    with pytest.raises(DomainError):
        cusp_test(FLAGSHIP, ProjPoint(0, 0), 8)


def test_cusp_test_rejects_a_budget_below_one():
    # a budget of 0 used to return kind 'unknown' without searching
    for budget in (0, -3):
        with pytest.raises(ParameterError, match=f"^budget must be >= 1, got {budget}$"):
            cusp_test(FLAGSHIP, point_of(Fraction(5, 2)), 5, budget=budget)
        with pytest.raises(ParameterError):
            cusp_test(FLAGSHIP, INFINITY, 5, budget=budget)
    assert cusp_test(FLAGSHIP, point_of(5), 1, budget=1).kind == "cusp"


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


def _special_scan_oracle(g, max_len):
    """The scan with a normalized ProjMatrix product at every node."""
    letters = [(ch, g.letter_matrix(ch)) for ch in LETTERS]
    best = {}

    def record(pt, word):
        if not pt.is_infinity:
            old = best.get(pt)
            if old is None or _word_key(word) < _word_key(old):
                best[pt] = word

    def rec(word, m, remaining):
        for ch, lm in letters:
            if word and INVERSE[word[-1]] == ch:
                continue
            w2 = word + ch
            m2 = mat_mul(m, lm)
            disc = (m2.a - m2.d) ** 2 + 4 * m2.b * m2.c
            if INVERSE[w2[0]] != w2[-1] and disc > 0 and isqrt(disc) ** 2 == disc:
                s = isqrt(disc)
                if m2.c != 0:
                    record(reduce_point(m2.a - m2.d + s, 2 * m2.c), w2)
                    record(reduce_point(m2.a - m2.d - s, 2 * m2.c), w2)
                else:
                    record(reduce_point(m2.b, m2.d - m2.a), w2)
            if remaining > 1:
                rec(w2, m2, remaining - 1)

    rec("", IDENTITY, max_len)
    return sorted(best.items(), key=lambda item: (_word_key(item[1]), item[0]))


@pytest.mark.parametrize("u2, two_t", [
    (Fraction(6, 11), 6), (Fraction(1, 15), 8), (Fraction(1, 4), 4), (Fraction(2, 3), Fraction(11, 2)),
])
def test_special_scan_agrees_with_matrix_oracle(u2, two_t):
    g = make_group(u2, two_t)
    for max_len in range(1, 10):
        assert special_point_scan(g, max_len) == _special_scan_oracle(g, max_len)


def _parent_special_scan(g, max_len, multiply):
    """The scan as it was before a node decided its children by trace: every
    child is multiplied out, content-reduced and tested when it is entered.
    multiply(g, w) evaluates the rotations that pass."""
    letters = [(ch, *g.letter_matrix(ch)) for ch in LETTERS]
    best = {}

    def record(pt, word):
        if not pt.is_infinity:
            old = best.get(pt)
            if old is None or _word_key(word) < _word_key(old):
                best[pt] = word

    def rec(word, p, a, b, c, d):
        if a * d - b * c <= 0:
            raise InternalCheckError(f"word {word} has non-positive determinant")
        t = len(word)
        if t % p == 0 and word[0] != INVERSE[word[-1]]:  # cyclically reduced necklace
            disc = (a - d) ** 2 + 4 * b * c
            if disc > 0 and isqrt(disc) ** 2 == disc:
                for w in (word[i:] + word[:i] for i in range(p)):
                    for pt in fixed_points(multiply(g, w)).points:
                        record(pt, w)
        if t < max_len:
            r = word[t - p]
            for ch, la, lb, lc, ld in letters[_LETTER_RANK[r]:]:
                if ch != INVERSE[word[-1]]:
                    a2, b2 = a * la + b * lc, a * lb + b * ld
                    c2, d2 = c * la + d * lc, c * lb + d * ld
                    k = gcd(a2, b2, c2, d2)
                    if k > 1:
                        a2, b2, c2, d2 = a2 // k, b2 // k, c2 // k, d2 // k
                    rec(word + ch, p if ch == r else t + 1, a2, b2, c2, d2)

    for ch, *m in letters:
        rec(ch, 1, *m)
    return sorted(best.items(), key=lambda item: (_word_key(item[1]), item[0]))


@pytest.mark.parametrize("u2, two_t, max_len", [
    (Fraction(2, 3), Fraction(11, 2), 12), (Fraction(1, 4), 4, 7), (Fraction(6, 11), 6, 2),
])
def test_special_scan_matches_the_recursive_scan(monkeypatch, u2, two_t, max_len):
    # same points and witnesses, and the same words multiplied out in the
    # same order: the trace test passes exactly the necklaces that the
    # recursion passed, each once, with its own period
    g = make_group(u2, two_t)
    expected_words, words = [], []

    def logged(log):
        return lambda g, w: log.append(w) or word_matrix(g, w)

    expected = _parent_special_scan(g, max_len, logged(expected_words))
    monkeypatch.setattr(orbitsearch, "word_matrix", logged(words))
    assert special_point_scan(g, max_len) == expected
    assert words == expected_words
    assert len(set(words)) == len(words)


def _small_groups():
    """Valid groups with u2 = a/b, a, b <= 12, and integer 2t <= 12."""
    out = set()
    for two_t in range(3, 13):
        for a in range(1, 13):
            for b in range(1, 13):
                if Fraction(a, b) < Fraction(two_t, 2) - 1:
                    out.add((Fraction(a, b), two_t))
    return sorted(out)


def test_special_scan_agrees_with_oracle_on_a_seeded_grid():
    rng = random.Random(2024)
    # (1/4, 4): A fixes -1/2, so the periodic necklaces AA and AAA are square
    cases = [(Fraction(1, 4), 4)] + rng.sample(_small_groups(), 16)
    for u2, two_t in cases:
        g = make_group(u2, two_t)
        for max_len in range(1, 8):
            assert special_point_scan(g, max_len) == _special_scan_oracle(g, max_len), (u2, two_t)


def test_special_scan_agrees_with_oracle_at_length_10():
    assert special_point_scan(FLAGSHIP, 10) == _special_scan_oracle(FLAGSHIP, 10)


@pytest.mark.parametrize("letter, bad", [("A", (0, 1, 1, 0)), ("B", (1, 0, 0, -1)), ("b", (1, 1, 1, 1))])
def test_special_scan_checks_determinants(monkeypatch, letter, bad):
    letters = dict(FLAGSHIP.letters, **{letter: bad})
    monkeypatch.setattr(FrickeGroup, "letter_matrix", lambda self, ch: letters[ch])
    with pytest.raises(InternalCheckError, match="non-positive determinant"):
        special_point_scan(FLAGSHIP, 4)


def test_special_scan_rejects_bad_length():
    for max_len in (-1, 0, SPECIAL_SCAN_MAX_LEN + 1):
        with pytest.raises(ParameterError):
            special_point_scan(FLAGSHIP, max_len)
    assert special_point_scan(FLAGSHIP, 1) == _special_scan_oracle(FLAGSHIP, 1)


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
    T = MODSUB.two_t
    for _ in range(40):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        res = adelic_probe(MODSUB, x, m, depth=6)
        # oracle: scan every cusp and one period of translation multiples
        # k >= 0 for (c0 + k*2t - x) / m in Z, over the common denominator
        # cd*Td*xd*mn; base + k*step mod den repeats after den/gcd(step, den)
        xn, xd, mn, md = x.numerator, x.denominator, m.numerator, m.denominator
        tn, td = T.numerator, T.denominator
        brute = None
        for rec in bfs.finite_points():
            cn, cd = rec.point
            base = (cn * td * xd - xn * cd * td) * md
            step = tn * cd * xd * md
            den = abs(cd * td * xd * mn)
            for k in range(den // gcd(step, den)):
                if (base + k * step) % den == 0:
                    brute = (Fraction(cn, cd), k)
                    break
            if brute:
                break
        assert res.found == (brute is not None)
        if res.found:
            assert (res.base_point, res.offset) == brute


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
    for g in [FLAGSHIP] * 30 + [FRACTIONAL] * 30:
        bfs, T = cusp_bfs(g, 4), g.two_t
        y = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        targets = normalize_targets(
            (rng.choice([2, 3, 5, 7, 11]), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))
        )
        res = padic_probe(g, y, targets, depth=4)
        # whether v_p(c0 + j*2t - y) >= k holds is unchanged by j -> j + P
        # once v_p(P*2t) >= k, so P = prod p^k * den(2t) is one period
        period = T.denominator
        for p, k in targets:
            period *= p ** k
        yn, yd, tn, td = y.numerator, y.denominator, T.numerator, T.denominator
        brute = None
        for rec in bfs.finite_points():
            cn, cd = rec.point
            # c0 + j*2t - y = (base + j*step) / den, and v_p of it is >= k
            # iff p^(k + v_p(den)) divides base + j*step (0 included)
            base, step, den = (cn * yd - yn * cd) * td, tn * cd * yd, cd * yd * td
            mods = [p ** (k + vp(den, p)) for p, k in targets]
            for j in range(period):
                if all((base + j * step) % mod == 0 for mod in mods):
                    brute = (Fraction(cn, cd), j)
                    break
            if brute:
                break
        assert res.found == (brute is not None), (y, targets)
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


def test_normalize_targets_bounds_the_modulus():
    # the bound counts k * p.bit_length() bits per target: 2 bits for 2 and 3
    assert PADIC_MAX_MODULUS_BITS == 4096
    assert normalize_targets([(7, 1000)]) == [(7, 1000)]
    assert normalize_targets([(2, 1000), (3, 1048)]) == [(2, 1000), (3, 1048)]
    for targets in ([(2, 2049)], [(2, 1000), (3, 1049)], [(7, 10 ** 18)]):
        with pytest.raises(ParameterError, match="must be at most 4096"):
            normalize_targets(targets)


@pytest.mark.parametrize("targets", [[(2, 2000)], [(2, 1000), (3, 1048)]])
def test_padic_probe_at_the_modulus_cap_is_fast(targets):
    # a miss walks all 22,050 records against a 4,000-bit modulus; it takes
    # tens of milliseconds when only the small part cd*yd*den(2t) of each
    # record's congruence modulus is split at the target primes
    cusp_bfs(SQUARE, 8)
    start = time.perf_counter()
    res = padic_probe(SQUARE, Fraction(1, 2), targets, depth=8)
    assert not res.found
    assert time.perf_counter() - start < 2.0


def test_probe_determinism():
    r1 = padic_probe(FLAGSHIP, Fraction(1, 4), [(7, 3)], depth=6)
    r2 = padic_probe(FLAGSHIP, Fraction(1, 4), [(7, 3)], depth=6)
    assert r1 == r2


def test_probes_reject_a_hit_the_recheck_refutes(monkeypatch):
    # one too high an inverse mod d'/h moves the offset k by b/h mod d'/h,
    # which is nonzero whenever the true offset is, as in both cases here
    monkeypatch.setattr(
        orbitsearch, "pow", lambda a, e, n: builtins.pow(a, e, n) + 1, raising=False
    )
    with pytest.raises(InternalCheckError, match="^probe produced an unverified hit$"):
        adelic_probe(MODSUB, Fraction(1, 3), 9, depth=8)
    with pytest.raises(InternalCheckError, match="^probe produced an unverified hit$"):
        padic_probe(FLAGSHIP, Fraction(1, 4), [(7, 3)], depth=6)


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


# ---------------------------------------------------------------- solver oracle

# The two offset solvers that _first_hit's one linear congruence replaced,
# kept as a reference: the adelic probe's lattice-gcd test with one modular
# inverse, and the p-adic probe's Hensel-style solve per target prime
# combined by the Chinese remainder theorem. Each maps a record cn/cd to the
# least translation multiple k >= 0 that hits, or None.

def _oracle_lattice_gcd(m, t):
    """Positive generator of the subgroup mZ + tZ of Q."""
    return Fraction(
        gcd(abs(m.numerator) * t.denominator, abs(t.numerator) * m.denominator),
        m.denominator * t.denominator,
    )


def _oracle_crt(pairs):
    """Combine congruences with pairwise coprime moduli."""
    r0, m0 = 0, 1
    for r, m in pairs:
        if m == 1:
            continue
        inv = pow(m0, -1, m)
        r0 = r0 + m0 * ((r - r0) * inv % m)
        m0 *= m
    return r0 % m0, m0


def _oracle_adelic_offset(two_t, x, m):
    lattice = _oracle_lattice_gcd(m, two_t)
    s = two_t / m
    a, b = s.numerator, s.denominator
    xn, xd = x.numerator, x.denominator
    ln, ld = lattice.numerator, lattice.denominator

    def offset(cn, cd):
        # (c0 - x) / lattice = (cn*xd - xn*cd) * ld / (cd*xd*ln) is an integer
        if (cn * xd - xn * cd) * ld % (cd * xd * ln):
            return None
        r = (Fraction(cn, cd) - x) / m
        e, f = r.numerator, r.denominator
        # f divides b here; solve k*a/b = -e/f (mod 1)
        return 0 if b == 1 else (-(e * (b // f)) * pow(a, -1, b)) % b

    return offset


def _oracle_padic_offset(two_t, y, targets):
    a, b = two_t.numerator, two_t.denominator
    yn, yd = y.numerator, y.denominator

    def offset(cn, cd):
        # c0 - y = e/f in lowest terms, f > 0
        e, f = cn * yd - yn * cd, cd * yd
        h = gcd(e, f)
        e, f = e // h, f // h
        A = a * f
        B = e * b
        congruences = []
        for p, k in targets:
            fb = f * b
            vfb = 0
            while fb % p == 0:
                fb //= p
                vfb += 1
            K = k + vfb
            alpha = 0
            Ar = abs(A)
            while Ar % p == 0 and alpha < K:
                Ar //= p
                alpha += 1
            if alpha >= K:
                if B % p ** K != 0:
                    return None
                continue
            pa = p ** alpha
            if B % pa != 0:
                return None
            mod = p ** (K - alpha)
            j = (-(B // pa) * pow((A // pa) % mod, -1, mod)) % mod
            congruences.append((j, mod))
        return _oracle_crt(congruences)[0]

    return offset


def _oracle_first_hit(bfs, offset):
    for i, cn, cd in bfs.finite_pairs():
        k = offset(cn, cd)
        if k is not None:
            c0 = Fraction(cn, cd)
            return ProbeResult(True, c0 + k * bfs.two_t, k, c0, bfs.witness(i),
                               bfs.depth, bfs.truncated)
    return ProbeResult(False, depth=bfs.depth, truncated=bfs.truncated)


ORACLE_GROUPS = [FLAGSHIP, MODSUB, SQUARE, FRACTIONAL, make_group(Fraction(1, 4), Fraction(25, 3)),
                 make_group(Fraction(2, 3), Fraction(11, 2)), make_group(Fraction(1, 15), 8),
                 make_group(Fraction(1, 10), Fraction(7, 3))]


def _random_rational(rng, dens):
    return Fraction(rng.randint(-30, 30), rng.choice(dens))


def test_probes_match_the_per_prime_oracle():
    # fractional 2t, negative and fractional m, and up to 4 targets at
    # primes of num(2t) and den(2t), with some balls centred on a cusp
    rng = random.Random(20)
    dens = [1, 2, 3, 4, 5, 8, 9, 11, 12, 25, 27]
    hits = misses = proven = 0
    for g in ORACLE_GROUPS:
        bfs = cusp_bfs(g, 4)
        cusps = [Fraction(cn, cd) for _, cn, cd in bfs.finite_pairs()]
        for case in range(160):
            y = _random_rational(rng, dens)
            if case % 5 == 0:
                y = rng.choice(cusps) + rng.randint(-3, 3) * g.two_t
            if case % 2:
                m = _random_rational(rng, dens) or Fraction(-1, 3)
                res = adelic_probe(g, y, m, depth=4)
                want = _oracle_first_hit(bfs, _oracle_adelic_offset(g.two_t, y, m))
            else:
                primes = rng.sample([2, 3, 5, 7, 11], rng.randint(1, 4))
                targets = normalize_targets((p, rng.randint(1, 7)) for p in primes)
                res = padic_probe(g, y, targets, depth=4)
                want = _oracle_first_hit(bfs, _oracle_padic_offset(g.two_t, y, targets))
            if res.proven:
                # a proven miss ran no search: the oracle's search misses too,
                # and y's point at the proof's level is the missed point
                assert not want.found, (g.u2, g.two_t, y, case)
                assert res.point == p1_reduce(y.numerator, y.denominator, res.level)
                proven += 1
            else:
                assert res == want, (g.u2, g.two_t, y, case)
            hits += res.found
            misses += not res.found
    assert hits > 300 and misses > 300 and proven > 30


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


# ---------------------------------------------------------------- the cusp orbit mod L

CLOSURE_GROUPS = [FLAGSHIP, MODSUB, SQUARE, make_group(Fraction(1, 15), 8),
                  make_group(Fraction(1, 4), 18), make_group(Fraction(2, 3), Fraction(11, 2)),
                  make_group(Fraction(1, 3), Fraction(25, 3)), make_group(Fraction(5, 3), 6)]


def _psi(n):
    return n * prod(p + 1 for p in prime_factors(n)) // prod(prime_factors(n))


@pytest.mark.parametrize("g", CLOSURE_GROUPS, ids=lambda g: g.name)
def test_orbit_closure_holds_every_bfs_cusp(g):
    # every cusp of a depth-4 run and its translates over one label period
    # reach a class of the closure, as a point of P1(Z/L) and as a vector up
    # to U_S; and every class's parent word maps inf into it
    bfs = cusp_bfs(g, 4)
    p, q = g.two_t.numerator, g.two_t.denominator
    for level in [*range(1, 17), 25, 27, 33, 35]:
        for vectors in (False, True):
            closure = orbit_closure(g, level, vectors)
            if closure is None:
                assert gcd(level, prod(g.support_primes)) > 1
                continue
            assert closure.level == level
            for _, a, b in bfs.finite_pairs():
                for k in range(q * level // gcd(level, p)):
                    num, den = a * q + k * p * b, b * q
                    h = gcd(num, den)
                    assert (num // h, den // h) in closure, (g.name, level, vectors, a, b, k)
            for key in closure.parents:
                x = apply(word_matrix(g, closure.word(key)), INFINITY)
                assert closure.key(x.a, x.c) == key


def test_orbit_closure_starts_at_the_four_cosets():
    # (1/4, 4) mod 8 misses exactly (1 : 2) and (1 : 6), which hold every
    # y = odd/(2 odd); the start points are inf, A(inf), B(inf), AB(inf)
    closure = orbit_closure(SQUARE, 8)
    points = {p1_reduce(a, c, 8) for a, c in closure.parents}
    assert points == set(p1_points(8)) - {(1, 2), (1, 6)}
    starts = [w for parent, w in closure.parents.values() if parent is None]
    assert set(starts) <= set(orbitsearch.COSET_WORDS) and "" in starts


@pytest.mark.parametrize("g", CLOSURE_GROUPS, ids=lambda g: g.name)
def test_orbit_closure_is_none_at_levels_sharing_a_prime_with_s(g):
    for p in g.support_primes:
        for level in (p, 2 * p, p ** 3 * 5, p * 10 ** 40):
            assert orbit_closure(g, level) is None
            assert orbit_closure(g, level, vectors=True) is None


def test_orbit_closure_takes_the_largest_divisor_under_the_cap():
    cap = ORBIT_CLOSURE_MAX_POINTS
    for level in (343, 1331, 2 * 5 ** 4, 7 ** 9, 5 ** 3 * 7 ** 2 * 11, 10 ** 30 + 1):
        closure = orbit_closure(SQUARE, level)
        divisors = [d for d in range(1, cap + 1) if level % d == 0 and _psi(d) <= cap]
        assert closure.level == max(divisors), level
    assert orbit_closure(SQUARE, 125).level == 125 and _psi(125) <= cap
    with pytest.raises(ParameterError):
        orbit_closure(SQUARE, 0)


def test_square_probe_misses_are_proven_without_a_search(monkeypatch):
    # the orbit workload's two (1/4, 4) misses: y = odd/(2 odd) at 2:3 and
    # x = odd/(2 odd) in x + 8Z; no search runs, and a depth-10 search of
    # the whole ball finds nothing either
    ys = [Fraction(7, 10), Fraction(-1, 6), Fraction(13, 2), Fraction(-59, 58)]
    proven = [padic_probe(SQUARE, y, [(2, 3)], depth=12, budget=20_000) for y in ys]
    proven += [adelic_probe(SQUARE, y, 8, depth=10, budget=20_000) for y in ys]
    bfs = cusp_bfs(SQUARE, 10, 20_000)
    for y, res in zip(ys + ys, proven):
        assert (res.found, res.proven, res.level) == (False, True, 8)
        assert res.point == p1_reduce(y.numerator, y.denominator, 8) in {(1, 2), (1, 6)}
        assert res.to_dict() == {"found": False, "depth": 0, "truncated": False, "proven": True,
                                 "level": 8, "point": f"({res.point[0]}:{res.point[1]})"}
        assert not orbitsearch._first_hit(bfs, y, Fraction(8), (2,)).found
    # a proven miss never calls the search
    monkeypatch.setattr(orbitsearch, "cusp_bfs", None)
    assert padic_probe(SQUARE, Fraction(7, 10), [(2, 3), (3, 1)], depth=5).proven


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(CLOSURE_GROUPS), st.integers(0, 400), st.integers(-4, 4),
       st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 3)),
                min_size=1, max_size=3),
       st.integers(-50, 50), st.integers(1, 40))
def test_no_bfs_cusp_lands_in_a_ball_the_closure_calls_missed(g, index, shift, targets, zn, zd):
    # the balls around y = c + m*zn hold the cusp c, so neither probe may
    # prove them empty; a ball around c + zn/zd that is proven empty holds
    # no cusp of the run
    records = list(cusp_bfs(g, 4).finite_pairs())
    _, cn, cd = records[index % len(records)]
    c = Fraction(cn, cd) + shift * g.two_t
    targets = normalize_targets(targets)
    m = prod(p ** k for p, k in targets)
    assert not padic_probe(g, c + m * zn, targets, depth=0).proven
    assert not adelic_probe(g, c + m * zn, m, depth=0).proven
    y = c + Fraction(zn, zd)
    if padic_probe(g, y, targets, depth=0).proven:
        primes = tuple(p for p, _ in targets)
        assert not orbitsearch._first_hit(cusp_bfs(g, 4), y, Fraction(m), primes).found
    if adelic_probe(g, y, m, depth=0).proven:
        assert not orbitsearch._first_hit(cusp_bfs(g, 4), y, Fraction(m), ()).found
