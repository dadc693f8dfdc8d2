import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from fricke.errors import EmptyPredicateError, ParameterError
from fricke.exactnum import (
    INFINITY,
    ProjPoint,
    is_prime,
    parse_point,
    point_of,
    residue_mod_pk,
    vp_pair,
)
from fricke.groups import apply, make_group
from fricke.obstruct import (
    INTEGER_T_VIOLATION,
    NO_KNOWN_OBSTRUCTION,
    NOT_PSEUDOMODULAR,
    SPECIAL_POINT,
    SQUARE_OBSTRUCTION,
    TWO_PRIME_OBSTRUCTION,
    IntegerTReport,
    InvarianceResult,
    candidate_predicates,
    check_density_criterion,
    check_integer_t_conditions,
    check_square_obstruction,
    check_two_prime_obstruction,
    classify,
    mine_invariants,
    recheck_witness,
    relevant_primes,
    verify_invariance,
    Witness,
)
from fricke import invariance, obstruct
from fricke.invariance import SetDecider
from fricke.predicates import (
    And,
    ResAtom,
    ValAtom,
    Xor,
    compile_predicate,
    eval_predicate,
    exactly_one_negative,
    neg_valuation,
)

FLAGSHIP = make_group(Fraction(6, 11), 6)


# ---------------------------------------------------------------- square check

def test_square_obstruction_branch_one():
    g = make_group(Fraction(1, 4), 4)
    w = check_square_obstruction(g, 2)
    assert w is not None and w.branch == 1 and w.primes == (2,)
    assert recheck_witness(g, w)


def test_square_obstruction_branch_two():
    g = make_group(Fraction(1, 16), 5)  # t = 5/2
    w = check_square_obstruction(g, 2)
    assert w is not None and w.branch == 2
    assert recheck_witness(g, w)


def test_square_obstruction_flagship_none():
    assert check_square_obstruction(FLAGSHIP, 11) is None


def test_square_sweep_prime_square_denominators():
    # family u2 = 1/p^2 with integer t >= 2: branch one always fires at p
    for p in (2, 3, 5, 7):
        for t in range(2, 9):
            if Fraction(1, p * p) >= t - 1:
                continue
            g = make_group(Fraction(1, p * p), 2 * t)
            w = check_square_obstruction(g, p)
            assert w is not None and w.branch == 1


# ---------------------------------------------------------------- two primes

def test_two_prime_witness_carries_xor_predicate():
    g = make_group(Fraction(1, 15), 4)
    w = check_two_prime_obstruction(g, 3, 5)
    assert w is not None
    assert str(w.predicate) == "xor(neg(v3), neg(v5))"
    assert recheck_witness(g, w)


def test_two_prime_half_integral_t():
    g = make_group(Fraction(1, 15), 5)  # t = 5/2, integral at 3 and 5
    assert check_two_prime_obstruction(g, 3, 5) is not None


def test_two_prime_flagship_none():
    assert check_two_prime_obstruction(FLAGSHIP, 2, 11) is None


def test_two_prime_equal_primes_rejected():
    with pytest.raises(ParameterError):
        check_two_prime_obstruction(FLAGSHIP, 3, 3)


# ---------------------------------------------------------------- integer t

def test_integer_t_clause_a():
    report = check_integer_t_conditions(make_group(Fraction(1, 6), 6))
    assert report.applicable
    assert [w.clause for w in report.witnesses] == ["a"]


def test_integer_t_clause_b():
    report = check_integer_t_conditions(make_group(Fraction(1, 3), 6))
    assert [w.clause for w in report.witnesses] == ["b"]


def test_integer_t_clause_c():
    report = check_integer_t_conditions(make_group(Fraction(1, 7), 6))
    assert [w.clause for w in report.witnesses] == ["c"]
    assert report.witnesses[0].primes == (3,)


def test_integer_t_not_applicable():
    report = check_integer_t_conditions(make_group(Fraction(1, 16), 5))
    assert report == IntegerTReport(applicable=False)


def test_integer_t_clause_c_fires_on_integral_u2():
    # u2 = 1, t = 3: 1 mod 3 is neither 0 nor -1, so clause (c) applies even
    # though this group sits inside the modular group (hence is arithmetic,
    # hence not pseudomodular; the certificate is still correct)
    report = check_integer_t_conditions(make_group(1, 6))
    assert [w.clause for w in report.witnesses] == ["c"]


def test_integer_t_flagship_clean():
    report = check_integer_t_conditions(FLAGSHIP)
    assert report.applicable and report.witnesses == ()


# ---------------------------------------------------------------- density

def test_density_examples():
    assert check_density_criterion(FLAGSHIP)
    assert check_density_criterion(make_group(Fraction(1, 5), 6))
    assert not check_density_criterion(make_group(Fraction(1, 7), 6))
    assert not check_density_criterion(make_group(1, 6))  # unit denominator


def test_density_true_excludes_all_witnesses():
    # sweep: wherever the density criterion holds, no obstruction can fire
    found = 0
    for num, den, t in itertools.product(range(1, 25), range(2, 14), (2, 3, 5, 7)):
        if not is_prime(den):
            continue
        u2 = Fraction(num, den)
        if u2.denominator == 1 or not (0 < u2 < t - 1):
            continue
        g = make_group(u2, 2 * t)
        if not check_density_criterion(g):
            continue
        found += 1
        for p in relevant_primes(g):
            assert check_square_obstruction(g, p) is None
        for p, q in itertools.combinations(relevant_primes(g), 2):
            assert check_two_prime_obstruction(g, p, q) is None
        assert check_integer_t_conditions(g).witnesses == ()
    assert found > 20


# ---------------------------------------------------------------- invariance

def test_invariance_of_two_prime_set_passes():
    g = make_group(Fraction(1, 15), 4)
    res = verify_invariance(exactly_one_negative(3, 5), g, 10_000, seed=1)
    assert res.passed and res.samples == 10_000


def test_invariance_weakened_predicate_fails():
    g = make_group(Fraction(1, 15), 4)
    res = verify_invariance(neg_valuation(3), g, 100_000, seed=1)
    assert not res.passed
    x, letter = res.counterexample
    assert letter in "AaBb"
    # recheck the counterexample by hand
    from fricke.groups import apply
    from fricke.predicates import eval_predicate

    img = apply(g.letter_matrix(letter), point_of(x))
    assert img.is_infinity or img.a == 0 or not eval_predicate(
        neg_valuation(3), img.to_rational()
    )


def test_invariance_fails_for_group_with_dense_cusps():
    res = verify_invariance(exactly_one_negative(2, 11), FLAGSHIP, 100_000, seed=3)
    assert not res.passed


def test_invariance_empty_predicate():
    impossible = And((ValAtom(2, ">=", 1), ValAtom(2, "<=", -1)))
    with pytest.raises(EmptyPredicateError):
        verify_invariance(impossible, FLAGSHIP, 10, seed=0)


def test_invariance_rejects_bad_sample_count():
    with pytest.raises(ParameterError):
        verify_invariance(neg_valuation(3), FLAGSHIP, 0, seed=0)


def test_invariance_counterexamples_agree_with_projective_action():
    # the fast integer path inside verify_invariance must agree with the
    # ProjPoint action: recheck a batch of failures through groups.apply
    from fricke.groups import apply
    from fricke.predicates import eval_predicate

    g = make_group(Fraction(1, 15), 4)
    for seed in range(5):
        res = verify_invariance(neg_valuation(5), g, 50_000, seed=seed)
        assert not res.passed
        x, letter = res.counterexample
        img = apply(g.letter_matrix(letter), point_of(x))
        if img.is_infinity or img.a == 0:
            assert res.image is None
        else:
            assert res.image == img.to_rational()
            assert not eval_predicate(neg_valuation(5), res.image)


def _sample_in_predicate(rng, test, bound):
    """Rejection-sample a reduced pair (n, d) with n/d nonzero in the set."""
    misses = 0
    while True:
        n = rng.randint(-bound, bound)
        d = rng.randint(1, bound)
        if n != 0:
            h = gcd(abs(n), d)
            n_, d_ = n // h, d // h
            if test(n_, d_):
                return n_, d_
        misses += 1
        if misses >= obstruct._RETRY_LIMIT:
            raise EmptyPredicateError(
                f"no sample satisfied the predicate in {obstruct._RETRY_LIMIT} draws"
            )


def _verify_oracle(pred, g, n, seed, bound):
    """verify_invariance drawing through rng.randint, one sample per call."""
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    test = compile_predicate(pred)
    mats = [(ch, g.letter_matrix(ch)) for ch in "AaBb"]
    rng = random.Random(seed)
    for i in range(n):
        xn, xd = _sample_in_predicate(rng, test, bound)
        for ch, m in mats:
            yn = m.a * xn + m.b * xd
            yd = m.c * xn + m.d * xd
            if yn == 0 or yd == 0:
                return InvarianceResult(
                    passed=False,
                    samples=i + 1,
                    seed=seed,
                    counterexample=(Fraction(xn, xd), ch),
                    image=None,
                )
            h = gcd(abs(yn), abs(yd))
            yn, yd = yn // h, yd // h
            if yd < 0:
                yn, yd = -yn, -yd
            if not test(yn, yd):
                return InvarianceResult(
                    passed=False,
                    samples=i + 1,
                    seed=seed,
                    counterexample=(Fraction(xn, xd), ch),
                    image=Fraction(yn, yd),
                )
    return InvarianceResult(passed=True, samples=n, seed=seed)


def _verify_outcome(verify, *args, **kwargs):
    try:
        return verify(*args, **kwargs)
    except EmptyPredicateError as exc:
        return ("empty", str(exc))


# (u2, 2t, sample bound): the small bound makes some candidates empty
ORACLE_GROUPS = [
    (Fraction(1, 15), 8, obstruct.SAMPLE_BOUND),
    (Fraction(1, 4), 4, obstruct.SAMPLE_BOUND),
    (Fraction(6, 11), 6, obstruct.SAMPLE_BOUND),
    (Fraction(2, 3), Fraction(11, 2), 30),
]


@pytest.mark.parametrize("u2, two_t, bound", ORACLE_GROUPS)
def test_verify_invariance_agrees_with_randint_oracle(monkeypatch, u2, two_t, bound):
    # a smaller retry limit keeps empty candidates cheap; both sides read it,
    # and verify_invariance reads its sample bound when called
    default_bound = obstruct.SAMPLE_BOUND
    monkeypatch.setattr(obstruct, "_RETRY_LIMIT", 2000)
    monkeypatch.setattr(obstruct, "SAMPLE_BOUND", bound)
    g = make_group(u2, two_t)
    empty = 0
    for pred in candidate_predicates([2, 3, 5])[::7]:
        for seed in (0, 1, 4711):
            expected = _verify_outcome(_verify_oracle, pred, g, 200, seed, bound)
            got = _verify_outcome(verify_invariance, pred, g, 200, seed)
            assert got == expected, (str(pred), seed)
            empty += not isinstance(expected, InvarianceResult)
    assert empty or bound == default_bound


# ---------------------------------------------------------------- miner

def test_miner_rediscovers_two_prime_set():
    g = make_group(Fraction(1, 15), 4)
    mined = mine_invariants(g, [INFINITY, point_of(0)], [3, 5])
    assert exactly_one_negative(3, 5) in mined
    # miner soundness: every result passes a fresh verification
    for pred in mined:
        assert verify_invariance(pred, g, 10_000, seed=12345).passed


def test_miner_finds_nothing_for_dense_group():
    mined = mine_invariants(FLAGSHIP, [INFINITY], [2, 3, 5, 11])
    assert mined == []


def test_miner_hypothesis_space_has_no_constant_true():
    # no candidate accepts every probe of a p-power grid
    from fricke.predicates import eval_predicate

    space = candidate_predicates([3, 5])
    probes = [Fraction(1), Fraction(-1), Fraction(2)]
    for p in (3, 5):
        for e in (1, 2, 3):
            probes += [Fraction(p**e), Fraction(-(p**e)),
                       Fraction(1, p**e), Fraction(-1, p**e)]
    for pred in space:
        assert not all(eval_predicate(pred, x) for x in probes)


def test_miner_parameter_errors():
    with pytest.raises(ParameterError):
        mine_invariants(FLAGSHIP, [INFINITY], [])
    with pytest.raises(ParameterError, match="at most 6 distinct primes, got 7"):
        mine_invariants(FLAGSHIP, [INFINITY], [2, 3, 5, 7, 11, 13, 17, 17])
    with pytest.raises(ParameterError):
        mine_invariants(FLAGSHIP, [INFINITY], [3, 4])


def _leaves(pred):
    if isinstance(pred, And):
        for part in pred.parts:
            yield from _leaves(part)
    elif isinstance(pred, Xor):
        yield from _leaves(pred.left)
        yield from _leaves(pred.right)
    else:
        yield pred


def _valuation_grid(primes, vmax, k, seed):
    """Reduced pairs x = +-p^v * u / w for every p, every v in [-vmax, vmax]
    and every unit residue u mod p^k, with a random unit w at p that may
    carry the other primes, plus random products of all the primes."""
    rng = random.Random(seed)
    out = []
    for p in primes:
        for v in range(-vmax, vmax + 1):
            for u in range(1, p ** k):
                if u % p:
                    w = rng.choice([q for q in primes if q != p] + [1]) ** rng.randint(0, 3)
                    w *= rng.choice([1, 13, 17, 19]) ** rng.randint(0, 1)
                    x = Fraction(p) ** v * (u + p ** k * rng.randrange(3)) / w
                    out.append(x * rng.choice((1, -1)))
    for _ in range(300):
        x = Fraction(rng.choice((1, -1)) * rng.randrange(1, 50), rng.randrange(1, 50))
        for p in primes:
            x *= Fraction(p) ** rng.randint(-vmax, vmax)
        out.append(x)
    return out


def _assert_class_tables_match(g, atoms, leaves, values):
    """Every value's pair (class of x, class of g.x) at each prime is one of
    the decider's class pairs for each letter, and each leaf reads the same
    on a value as on a representative of its class: the per-prime tables
    miss no class and split every leaf."""
    decider = SetDecider(g, atoms)
    images = [[apply(m, point_of(x)) for x in values] for m in decider.mats]
    for p, (top, k) in decider.shape.items():
        def key(x):
            v = vp_pair(x.numerator, x.denominator, p)
            if v < 0:
                return max(-top, v), v % 2, -1
            return min(top, v), v % 2, residue_mod_pk(x, p, k) if k else 0

        keys, reps = [key(x) for x in values], {}
        for m, imgs in zip(decider.mats, images):
            table = set()
            for (xn, xd), (yn, yd) in invariance._class_pairs(m, p, top, k):
                x, y = Fraction(xn, xd), Fraction(yn, yd)
                # each representative pair is a value and its image
                assert apply(m, point_of(x)) == point_of(y)
                table.add((key(x), key(y)))
                reps.setdefault(key(x), x)
            for x, kx, img in zip(values, keys, imgs):
                if not (img.is_infinity or img.a == 0):
                    assert (kx, key(img.to_rational())) in table, (str(m), p, x)
        for leaf in leaves:
            if leaf.p == p:
                test = compile_predicate(leaf)
                for x, kx in zip(values, keys):
                    rep = reps[kx]
                    assert test(x.numerator, x.denominator) == test(rep.numerator, rep.denominator)


@pytest.mark.parametrize("primes", [(2, 3), (3, 5), (2, 3, 11), (2, 3, 5, 7)])
def test_class_tables_agree_with_per_value_evaluation(primes):
    # valuations 3, 4 and 5 past the largest bound 2, of both parities and signs
    leaves = {leaf for cand in candidate_predicates(primes) for leaf in _leaves(cand)}
    values = _valuation_grid(primes, vmax=5, k=2, seed=sum(primes))
    g = make_group(Fraction(1, 15), 8)
    _assert_class_tables_match(g, obstruct._candidate_atoms(primes), leaves, values)


def test_class_tables_read_bound_and_precision_from_the_atoms():
    # bounds up to 5 and residues mod p^3; 7 has a residue atom only
    atoms = [
        ValAtom(2, ">=", 5), ValAtom(2, "even"), ResAtom(2, 3, frozenset({3, 5})),
        ValAtom(3, "<=", 4), ValAtom(3, ">", -4), ResAtom(3, 2, frozenset({1, 4, 7})),
        ValAtom(5, "=", -3), ValAtom(5, "odd"), ResAtom(5, 3, frozenset({0, 6, 124})),
        ResAtom(7, 1, frozenset({3})),
    ]
    decider = SetDecider(FLAGSHIP, atoms)
    assert decider.shape == {2: (6, 3), 3: (5, 2), 5: (4, 3), 7: (1, 1)}
    values = _valuation_grid((2, 3, 5, 7), vmax=7, k=3, seed=5)[::2]
    _assert_class_tables_match(FLAGSHIP, atoms, atoms, values)


MINER_GROUPS = [
    (Fraction(1, 15), 8, (3, 5)),
    (Fraction(1, 15), 4, (3, 5)),
    (Fraction(1, 4), 4, (2, 3)),
    (Fraction(6, 11), 6, (2, 3, 11)),
    (Fraction(2, 3), Fraction(11, 2), (2, 3)),
    (Fraction(1, 16), 5, (2,)),
]
# What the sampled miner this one replaced (orbit walk to depth 4, 400
# probes, 300 seeded samples per candidate) mined from the seeds inf, 0 on
# MINER_GROUPS, for its seeds 0, 1 and 7 alike
SAMPLED_MINER_LISTS = [
    ["xor(neg(v3), neg(v5))"], ["xor(neg(v3), neg(v5))"], ["vp(2)=-1"], [], [], ["vp(2)=-2"],
]


def _mine_without_sampling(monkeypatch, u2, two_t, primes, seeds):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the miner decides; it draws no samples")

    monkeypatch.setattr(obstruct, "verify_invariance", no_sampling)
    g = make_group(u2, two_t)
    return [str(pred) for pred in mine_invariants(g, [parse_point(s) for s in seeds], primes)]


@pytest.mark.parametrize("u2, two_t, primes", MINER_GROUPS)
def test_miner_agrees_with_per_candidate_oracle(monkeypatch, u2, two_t, primes):
    expected = SAMPLED_MINER_LISTS[MINER_GROUPS.index((u2, two_t, primes))]
    assert _mine_without_sampling(monkeypatch, u2, two_t, primes, ["inf", "0"]) == expected


@pytest.mark.parametrize("u2, two_t, primes, seeds, expected", [
    # seeds on both sides of the two-prime set: nothing is mined
    (Fraction(1, 15), 8, (3, 5), ["inf", "1/5"], []),
    (Fraction(1, 25), 12, (2, 5), ["inf", "1/5"], []),
    (Fraction(1, 6), 10, (2, 3, 5), ["14/55"], ["res(5,1,{2,3})", "xor(neg(v2), neg(v3))"]),
    (Fraction(1, 3), 15, (3, 5), ["1/5"], ["res(5,1,{1,3})"]),
])
def test_miner_agrees_with_the_sampled_miner_on_other_seeds(
    monkeypatch, u2, two_t, primes, seeds, expected
):
    # the sampled miner (depth 4, its seed 3) gave these lists too
    assert _mine_without_sampling(monkeypatch, u2, two_t, primes, seeds) == expected


# ---------------------------------------------------------------- classify

def test_classify_square_family():
    verdict = classify(make_group(Fraction(1, 4), 4), special_budget=2)
    assert verdict.conclusion == NOT_PSEUDOMODULAR
    squares = [w for w in verdict.obstructions if w.kind == "square_obstruction"]
    assert squares and squares[0].primes == (2,)


def test_classify_flagship_special_point():
    verdict = classify(FLAGSHIP, special_budget=6)
    assert verdict.conclusion == NOT_PSEUDOMODULAR
    assert verdict.density_all_finite_products
    kinds = {w.kind for w in verdict.obstructions}
    assert kinds == {"special_point"}
    sp = verdict.obstructions[0]
    assert recheck_witness(FLAGSHIP, sp)
    assert verdict.arithmetic_screen.witness == "AA"


def test_special_point_rechecks_out_of_lowest_terms():
    # classify's witness 14/55 on the flagship, written as (28 : 110) and as
    # (-14 : -55): apply returns the reduced point, so the recheck compares
    # with the reduced form of the point as given
    for point in (ProjPoint(14, 55), ProjPoint(28, 110), ProjPoint(-14, -55)):
        assert recheck_witness(FLAGSHIP, Witness(kind=SPECIAL_POINT, word="ABabbb", point=point))
    for point in (ProjPoint(14, 56), ProjPoint(-14, 55)):
        assert not recheck_witness(FLAGSHIP, Witness(kind=SPECIAL_POINT, word="ABabbb",
                                                     point=point))


def test_classify_modular_subgroup():
    # sits inside the modular group: the only certificate is clause (c),
    # which correctly reports "not pseudomodular" (the group is arithmetic)
    verdict = classify(make_group(1, 6), special_budget=6)
    assert verdict.arithmetic_screen.status == "inconclusive"
    kinds = [w.kind for w in verdict.obstructions]
    assert kinds == ["integer_t_violation"]
    assert verdict.conclusion == NOT_PSEUDOMODULAR


def test_classify_no_known_obstruction():
    # u2 = 3/5, t = 3: density criterion holds (3/5 = 0 mod 3), nothing fires,
    # and no special point exists up to length 8
    g = make_group(Fraction(3, 5), 6)
    verdict = classify(g, special_budget=8)
    assert verdict.density_all_finite_products
    assert verdict.obstructions == ()
    assert verdict.conclusion == NO_KNOWN_OBSTRUCTION


def test_classify_is_deterministic():
    v1 = classify(FLAGSHIP, special_budget=6)
    v2 = classify(FLAGSHIP, special_budget=6)
    assert v1 == v2
    assert v1.to_dict() == v2.to_dict()


def test_relevant_primes():
    assert relevant_primes(FLAGSHIP) == [3, 11]
    assert relevant_primes(make_group(Fraction(1, 4), 4)) == [2]
    assert relevant_primes(make_group(Fraction(1, 16), 5)) == [2]
    assert relevant_primes(make_group(1, 6)) == [3]


def test_every_witness_rechecks_across_a_sweep():
    cases = [
        (Fraction(1, 4), Fraction(4)),
        (Fraction(1, 16), Fraction(5)),
        (Fraction(1, 15), Fraction(4)),
        (Fraction(1, 6), Fraction(6)),
        (Fraction(1, 3), Fraction(6)),
        (Fraction(1, 7), Fraction(6)),
        (Fraction(1), Fraction(6)),
        (Fraction(6, 11), Fraction(6)),
    ]
    for u2, twot in cases:
        g = make_group(u2, twot)
        verdict = classify(g, special_budget=4)
        for w in verdict.obstructions:
            assert recheck_witness(g, w), (g.name, w.kind)
            assert recheck_witness(g, _rebuilt(w)), (g.name, w.kind)
    # forged: a clause (c) violation at a prime that does not divide t, and
    # the square obstruction of (1/4, 4) with the branch that does not fire
    forged = [
        (make_group(1, 6), Witness(kind=INTEGER_T_VIOLATION, clause="c", primes=(97,))),
        (make_group(Fraction(1, 4), 4), Witness(kind=SQUARE_OBSTRUCTION, primes=(2,), branch=2)),
    ]
    for g, w in forged:
        assert not recheck_witness(g, w), (g.name, w)
        assert not recheck_witness(g, _rebuilt(w)), (g.name, w)


def _rebuilt(w):
    """The witness as the benchmark's classify check rebuilds it from the
    structured output: from to_dict(), without detail and predicate."""
    d = json.loads(json.dumps(w.to_dict()))
    return Witness(
        kind=d["kind"],
        primes=tuple(d["primes"]),
        word=d.get("word"),
        point=parse_point(d["point"]) if "point" in d else None,
        clause=d.get("clause"),
        branch=d.get("branch"),
    )


@pytest.mark.parametrize("w", [
    Witness(kind=SQUARE_OBSTRUCTION, branch=1),
    Witness(kind=TWO_PRIME_OBSTRUCTION, primes=(3, 5, 7)),
    Witness(kind=SPECIAL_POINT, point=parse_point("3/7")),
    Witness(kind=SPECIAL_POINT, word="AB"),
    Witness(kind="unknown_kind", primes=(3,)),
])
def test_recheck_refuses_a_malformed_witness(w):
    with pytest.raises(ParameterError):
        recheck_witness(make_group(Fraction(1, 15), 4), w)
