import pytest
from hypothesis import given, strategies as st

from fricke.errors import ParameterError
from fricke.words import (
    concat,
    invert_word,
    is_reduced,
    parity,
    parse_word,
    reduce_word,
)

letter_strings = st.text(alphabet="AaBb", max_size=12)


def test_reduce_word():
    assert reduce_word("Aa") == ""
    assert reduce_word("ABba") == ""
    assert reduce_word("ABbA") == "AA"
    assert reduce_word("bABa") == "bABa"


def test_parse_word_rejects_junk():
    with pytest.raises(ParameterError):
        parse_word("AxB")


@given(letter_strings)
def test_reduction_is_idempotent_and_reduced(w):
    r = reduce_word(w)
    assert is_reduced(r)
    assert reduce_word(r) == r


@given(letter_strings)
def test_inverse_cancels(w):
    assert concat(w, invert_word(w)) == ""
    assert concat(invert_word(w), w) == ""


def test_parity_examples():
    assert parity("A") == (1, 0)
    assert parity("ABA") == (0, 1)
    assert parity("ABab") == (0, 0)


@given(letter_strings, letter_strings)
def test_parity_is_a_homomorphism(w1, w2):
    p1, p2 = parity(reduce_word(w1)), parity(reduce_word(w2))
    combined = parity(concat(w1, w2))
    assert combined == ((p1[0] + p2[0]) % 2, (p1[1] + p2[1]) % 2)
