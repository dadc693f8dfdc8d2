from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import mod_inverse, multiplicity

from fricke.errors import DomainError, ParameterError
from fricke.predicates import (
    And,
    Not,
    Or,
    Predicate,
    ResAtom,
    ValAtom,
    Xor,
    compile_predicate,
    eval_predicate,
    exactly_one_negative,
    neg_valuation,
    parse_predicate,
)

U35 = exactly_one_negative(3, 5)

SAMPLES = [
    ValAtom(2, "<=", -2),
    ValAtom(3, "<", 0),
    ValAtom(5, "=", 1),
    ValAtom(7, ">=", -1),
    ValAtom(11, ">", 2),
    ValAtom(3, "odd"),
    ValAtom(2, "even"),
    ResAtom(3, 1, frozenset({0, 2})),
    ResAtom(2, 3, frozenset({1, 5})),
    U35,
    And((ValAtom(2, "<=", -2), ResAtom(3, 1, frozenset({0, 2})))),
    Or((neg_valuation(2), neg_valuation(3), neg_valuation(5))),
    Not(Xor(ValAtom(2, "odd"), ResAtom(5, 1, frozenset({4})))),
]


def test_exactly_one_negative_examples():
    assert eval_predicate(U35, Fraction(1, 3))
    assert not eval_predicate(U35, Fraction(1, 15))
    assert not eval_predicate(U35, 2)


def test_zero_is_outside_the_domain():
    with pytest.raises(DomainError):
        eval_predicate(U35, 0)
    # the compiled parity atoms compute v_p, which is undefined at 0
    for text in ("odd(v3)", "even(v2)"):
        with pytest.raises(DomainError):
            compile_predicate(parse_predicate(text))(0, 1)


def test_res_atom_false_at_negative_valuation():
    atom = ResAtom(3, 1, frozenset({0, 1, 2}))  # "integral at 3"
    assert eval_predicate(atom, Fraction(5, 7))
    assert not eval_predicate(atom, Fraction(1, 3))


def test_serialization_examples():
    assert str(U35) == "xor(neg(v3), neg(v5))"
    assert str(SAMPLES[10]) == "and(vp(2)<=-2, res(3,1,{0,2}))"
    assert str(ValAtom(3, "odd")) == "odd(v3)"


@pytest.mark.parametrize("pred", SAMPLES, ids=str)
def test_parse_print_round_trip(pred):
    assert parse_predicate(str(pred)) == pred


def test_parse_rejects_junk():
    for bad in ["", "vp(4)<=1", "frob(v3)", "xor(neg(v3))", "res(3,1,{})"]:
        with pytest.raises(ParameterError):
            parse_predicate(bad)


# every valuation relation at bounds -3..3, and the parity atoms
VAL_ATOMS = [
    ValAtom(p, rel, bound)
    for p in (2, 3, 5)
    for rel in ("<=", "<", "=", ">=", ">")
    for bound in range(-3, 4)
] + [ValAtom(p, rel) for p in (2, 3, 5) for rel in ("odd", "even")]
# residue atoms mod p, p^2 and p^3
RES_ATOMS = [
    ResAtom(p, k, allowed)
    for p in (2, 3, 5)
    for k in (1, 2, 3)
    for allowed in (frozenset({1}), frozenset(range(0, p ** k, 3)))
]


def _reference(pred, x):
    """The value of pred at x read off the tree, with v_p from
    sympy.multiplicity and x mod p^k from sympy.mod_inverse."""
    if isinstance(pred, ValAtom):
        v = multiplicity(pred.p, x.numerator) - multiplicity(pred.p, x.denominator)
        return {
            "<=": v <= pred.bound, "<": v < pred.bound, "=": v == pred.bound,
            ">=": v >= pred.bound, ">": v > pred.bound, "odd": v % 2 == 1, "even": v % 2 == 0,
        }[pred.rel]
    if isinstance(pred, ResAtom):
        m = pred.p ** pred.k
        if multiplicity(pred.p, x.denominator):
            return False
        return x.numerator * mod_inverse(x.denominator, m) % m in pred.allowed
    if isinstance(pred, Not):
        return not _reference(pred.child, x)
    if isinstance(pred, And):
        return all(_reference(part, x) for part in pred.parts)
    if isinstance(pred, Or):
        return any(_reference(part, x) for part in pred.parts)
    return _reference(pred.left, x) != _reference(pred.right, x)


def _power_times(p, k, m, n, sign):
    # sign * p^k * m / n; v_p is k when p divides neither m nor n
    return sign * Fraction(p) ** k * Fraction(m, n)


@given(
    st.sampled_from(SAMPLES + VAL_ATOMS + RES_ATOMS),
    st.one_of(
        st.fractions(min_value=-300, max_value=300, max_denominator=300).filter(
            lambda x: x != 0
        ),
        st.builds(
            _power_times,
            st.sampled_from((2, 3, 5, 7)),
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=1, max_value=300),
            st.integers(min_value=1, max_value=300),
            st.sampled_from((1, -1)),
        ),
    ),
)
def test_compiled_form_agrees_with_sympy_reference(pred, x):
    compiled = compile_predicate(pred)
    assert compiled(x.numerator, x.denominator) == _reference(pred, x)


def test_compiled_forms_agree_with_sympy_reference_exhaustively():
    units = (1, 2, 3, 5, 7, 11, 13)
    for pred in VAL_ATOMS + RES_ATOMS + SAMPLES:
        compiled = compile_predicate(pred)
        for p in [pred.p] if hasattr(pred, "p") else (2, 3, 5):
            for k in range(-4, 5):
                for m in units:
                    for n in units:
                        for sign in (1, -1):
                            x = _power_times(p, k, m, n, sign)
                            got = compiled(x.numerator, x.denominator)
                            assert got == _reference(pred, x), (str(pred), x)


def test_nodes_are_equal_by_type_and_fields():
    parts = (neg_valuation(3), ValAtom(5, ">=", 1))
    assert And(parts) != Or(parts)
    assert len({And(parts), Or(parts)}) == 2
    assert Not(neg_valuation(2)) != neg_valuation(2)
    for pred in SAMPLES:
        twin = parse_predicate(str(pred))
        assert twin is not pred
        assert twin == pred and hash(twin) == hash(pred)
    assert ValAtom(3, "<") == neg_valuation(3)
    assert ResAtom(5, 1, frozenset({1, 4})) != ResAtom(5, 1, frozenset({1}))


def test_nodes_are_read_only():
    for pred in SAMPLES:
        field = type(pred).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(pred, field, getattr(pred, field))
        with pytest.raises(AttributeError):
            delattr(pred, field)
    with pytest.raises(TypeError):
        Xor(neg_valuation(2))


def test_invalid_atoms():
    with pytest.raises(ParameterError):
        ValAtom(6, "<=", 0)
    with pytest.raises(ParameterError):
        ValAtom(3, "~", 0)
    with pytest.raises(ParameterError):
        ResAtom(3, 0, frozenset({0}))
    with pytest.raises(ParameterError):
        ResAtom(3, 1, frozenset({5}))
    # odd(v3) takes no bound: with one, str() and parse_predicate disagree
    for rel, bound in (("odd", 5), ("even", -1)):
        with pytest.raises(ParameterError, match="takes no bound"):
            ValAtom(3, rel, bound)
    # res(3,1,{}) would print a set that parse_predicate rejects
    with pytest.raises(ParameterError, match="must not be empty"):
        ResAtom(3, 1, frozenset())

    class Opaque(Predicate):  # a node that compile_predicate gives no meaning
        __slots__ = ()

    with pytest.raises(ParameterError, match="cannot compile"):
        eval_predicate(Opaque(), 2)
