import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fricke.errors import FrickeError, InvalidGroupError, ParameterError
from fricke.groups import make_group
from fricke.invariance import (
    MAX_DECIDED_ATOMS,
    MAX_RESIDUE_MODULUS,
    MAX_VALUATION_BOUND,
    SetDecider,
    decide_set,
)
from fricke.obstruct import (
    TWO_PRIME_OBSTRUCTION,
    Witness,
    _candidate_atoms,
    candidate_predicates,
    check_two_prime_obstruction,
    classify,
    recheck_witness,
    verify_invariance,
)
from fricke.predicates import (
    And,
    Not,
    Or,
    Predicate,
    ResAtom,
    ValAtom,
    Xor,
    exactly_one_negative,
    neg_valuation,
    parse_predicate,
)

GRID_U2 = [Fraction(1, 6), Fraction(1, 10), Fraction(1, 15), Fraction(1, 35), Fraction(2, 15),
           Fraction(1, 3), Fraction(5, 6), Fraction(1, 4), Fraction(7, 10), Fraction(1, 105)]
GRID_TWO_T = [Fraction(6), Fraction(8), Fraction(11, 2), Fraction(9), Fraction(15),
              Fraction(21, 2)]


def test_two_prime_sets_are_invariant_exactly_where_the_clause_fires():
    fired = 0
    for u2, two_t in itertools.product(GRID_U2, GRID_TWO_T):
        try:
            g = make_group(u2, two_t)
        except InvalidGroupError:
            continue
        decider = SetDecider(g, [neg_valuation(p) for p in (2, 3, 5, 7)])
        for p, q in itertools.combinations((2, 3, 5, 7), 2):
            invariant, nonempty, proper = decider.decide(exactly_one_negative(p, q))
            fires = check_two_prime_obstruction(g, p, q) is not None
            assert invariant == fires, (g.name, p, q)
            assert nonempty and proper
            fired += fires
    assert fired > 20


@pytest.mark.parametrize("u2, two_t, primes", [
    (Fraction(1, 15), 8, (3, 5)),
    (Fraction(1, 4), 4, (2, 3)),
    (Fraction(1, 3), 15, (3, 5)),
    (Fraction(2, 3), Fraction(11, 2), (2, 3)),
    (Fraction(1, 16), 5, (2, 7)),
])
def test_every_candidate_decision_agrees_with_sampling(u2, two_t, primes):
    # a sampled counterexample to a set proven invariant would be a bug; the
    # other way, 2,000 samples find a counterexample to every set here that
    # the decision refutes
    g = make_group(u2, two_t)
    decider = SetDecider(g, _candidate_atoms(primes))
    for i, cand in enumerate(candidate_predicates(primes)):
        invariant, nonempty, proper = decider.decide(cand)
        assert nonempty and proper, str(cand)
        assert verify_invariance(cand, g, 2000, seed=i).passed == invariant, str(cand)


def test_recheck_decides_the_set_of_a_two_prime_witness():
    g = make_group(Fraction(1, 15), 8)
    clause = check_two_prime_obstruction(g, 3, 5)
    assert recheck_witness(g, clause)
    # the clause holds, but neg(v3) is not invariant: 2,000 samples refute it
    wrong = clause._replace(predicate=neg_valuation(3))
    assert not verify_invariance(wrong.predicate, g, 2000, seed=0).passed
    assert not recheck_witness(g, wrong)
    # a witness rebuilt without its predicate rechecks the clause's own set
    assert recheck_witness(g, Witness(kind=TWO_PRIME_OBSTRUCTION, primes=(3, 5)))
    empty = And((ValAtom(3, ">=", 1), ValAtom(3, "<=", -1)))
    assert decide_set(empty, g) == (True, False, True)
    assert not recheck_witness(g, clause._replace(predicate=empty))


def test_recheck_of_a_two_prime_witness_at_large_primes_finishes():
    g = make_group(Fraction(1, 1000000016000000063), 8)
    witnesses = [w for w in classify(g, 0).obstructions if w.kind == TWO_PRIME_OBSTRUCTION]
    assert [w.primes for w in witnesses] == [(1000000007, 1000000009)]
    assert recheck_witness(g, witnesses[0])


def test_decision_refuses_what_it_cannot_decide():
    g = make_group(Fraction(1, 15), 8)
    many = And(tuple(ValAtom(3, "<=", b) for b in range(MAX_DECIDED_ATOMS + 1)))
    with pytest.raises(ParameterError, match="distinct atoms"):
        decide_set(many, g)

    class Opaque(Predicate):
        __slots__ = ()

    with pytest.raises(ParameterError, match="cannot decide"):
        decide_set(And((neg_valuation(3), Opaque())), g)
    # the ball walk grows with p^k and |bound|, which are refused before it
    # starts: uncapped, these took 2.4 s and 52 s
    for text in ("res(2,11,{1})", "vp(3)<=3000", "and(neg(v5), vp(2)>=-33)", "res(131,1,{1})"):
        started = time.monotonic()
        with pytest.raises(ParameterError, match="above"):
            decide_set(parse_predicate(text), g)
        assert time.monotonic() - started < 1, text
    k = MAX_RESIDUE_MODULUS.bit_length() - 1  # the largest 2^k within the cap
    edges = [ValAtom(3, "<=", MAX_VALUATION_BOUND), ValAtom(3, ">", -MAX_VALUATION_BOUND),
             ResAtom(2, k, frozenset({1}))]
    for pred in edges:
        assert decide_set(pred, g) == (False, True, True), str(pred)


def test_decision_reads_not_or_and_repeated_atoms():
    g = make_group(Fraction(1, 15), 8)
    xor = decide_set(exactly_one_negative(3, 5), g)
    # the same set written with or, and, not and a repeated atom
    same = parse_predicate("or(and(neg(v3), not(neg(v5))), and(not(neg(v3)), neg(v5)))")
    assert decide_set(same, g) == xor == (True, True, True)
    assert decide_set(Not(exactly_one_negative(3, 5)), g) == (False, True, True)
    # all of Q^x holds the poles, whose images 0 and infinity are outside it
    assert decide_set(Or((neg_valuation(3), Not(neg_valuation(3)))), g) == (False, True, False)


PRIMES = (2, 3, 5, 7)
GROUPS = [make_group(Fraction(1, 15), 8), make_group(Fraction(1, 4), 4),
          make_group(Fraction(1, 3), 15)]
# sets that one of the groups maps into itself, so that generated
# predicates are sometimes invariant and the property has cases to check
BLOCKS = [exactly_one_negative(3, 5), ValAtom(2, "=", -1), ResAtom(5, 1, frozenset({1, 3}))]


@st.composite
def _atoms(draw):
    p = draw(st.sampled_from(PRIMES))
    if draw(st.booleans()):
        rel = draw(st.sampled_from(["<=", "<", "=", ">=", ">", "odd", "even"]))
        bound = 0 if rel in ("odd", "even") else draw(st.integers(-3, 3))
        return ValAtom(p, rel, bound)
    k = draw(st.integers(1, 2 if p < 7 else 1))
    residues = draw(st.sets(st.integers(0, p ** k - 1), min_size=1, max_size=4))
    return ResAtom(p, k, frozenset(residues))


def _predicates(depth):
    if depth == 0:
        return st.one_of(_atoms(), st.sampled_from(BLOCKS))
    sub = _predicates(depth - 1)
    return st.one_of(
        _predicates(0),
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(Not, sub),
        st.builds(Xor, sub, sub),
    )


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_predicates(2), st.sampled_from(GROUPS))
def test_sets_proven_invariant_pass_sampling(pred, g):
    try:
        invariant, nonempty, proper = decide_set(pred, g)
    except FrickeError:
        return
    assert all(isinstance(flag, bool) for flag in (invariant, nonempty, proper))
    if invariant and nonempty:
        try:
            result = verify_invariance(pred, g, 300, seed=0)
        except FrickeError:  # too thin a set to sample
            return
        assert result.passed, (str(pred), g.name, result)
