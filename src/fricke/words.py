"""Freely reduced words over the generator alphabet A, a, B, b.

A word is a plain string: 'A' and 'a' are the first generator and its
inverse, 'B' and 'b' the second. The empty string is the identity. The
leftmost letter acts last, so word_matrix('aB') means g1^-1 applied after g2.
"""

from __future__ import annotations

from .errors import ParameterError

Word = str

LETTERS = "AaBb"
INVERSE = {"A": "a", "a": "A", "B": "b", "b": "B"}


def reduce_word(w: str) -> Word:
    """Cancel adjacent inverse pairs until the word is freely reduced."""
    out: list[str] = []
    for ch in w:
        if out and out[-1] == INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def parse_word(text: str) -> Word:
    """Validate the alphabet and freely reduce."""
    for ch in text:
        if ch not in INVERSE:
            raise ParameterError(f"invalid word letter {ch!r} in {text!r}")
    return reduce_word(text)


def concat(*words: str) -> Word:
    return reduce_word("".join(words))


def invert_word(w: str) -> Word:
    return "".join(INVERSE[ch] for ch in reversed(w))


def is_reduced(w: str) -> bool:
    return all(w[i + 1] != INVERSE[w[i]] for i in range(len(w) - 1))


def parity(w: str) -> tuple[int, int]:
    """Exponent sums of (g1, g2) mod 2; a homomorphism onto Z/2 + Z/2."""
    e1 = sum(1 for ch in w if ch in "Aa")
    e2 = len(w) - e1
    return (e1 & 1, e2 & 1)
