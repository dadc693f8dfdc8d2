"""Point tests: cusp_test (is a rational a cusp?) and special_point_scan
(rational fixed points of hyperbolic words), and the integer letter step
they share with orbitsearch, which this module does not import. A cusp or
special answer is re-verified before it is returned; unknown is evidence
bounded by the search depth.
"""

from __future__ import annotations

import heapq
from math import gcd, isqrt
from typing import NamedTuple

from .errors import InternalCheckError, ParameterError
from .exactnum import INFINITY, ProjPoint, reduce_point
from .groups import (IDENTITY, PARABOLIC_WORD, TRANSLATION_WORD, ElementClass, FrickeGroup,
                     apply, classify_element, fixed_points, word_matrix)
from .words import INVERSE, LETTERS, Word, concat, invert_word


def _letter_step(
    m: tuple[int, int, int, int], p: int, q: int, xn: int, xd: int
) -> tuple[int, int, int] | None:
    """Apply the letter matrix m to xn/xd (infinity is 1/0) and reduce the
    image modulo the translation 2t = p/q.

    Returns None when the image is infinity, else (rn, rd, k) with the image
    equal to rn/rd + k*2t, rn/rd in lowest terms, rd > 0 and rn/rd in [0, 2t).
    Callers pass m as a plain tuple, not the ProjMatrix that letter_matrix
    returns: CPython unpacks only an exact tuple on its fast path, and the
    NamedTuple made the BFS about 10% slower.
    """
    a, b, c, d = m
    yn = a * xn + b * xd
    yd = c * xn + d * xd
    if yd == 0:
        return None
    if yd < 0:
        yn, yd = -yn, -yd
    # floor(y / 2t) and y - k*2t over the common denominator yd*q
    k = yn * q // (yd * p)
    rn = yn * q - k * p * yd
    rd = yd * q
    h = gcd(rn, rd)
    return rn // h, rd // h, k


def _translation_word(k: int) -> Word:
    # the parabolic word shifts by -2t, its inverse by +2t
    if k >= 0:
        return PARABOLIC_WORD * k
    return TRANSLATION_WORD * (-k)


# ---------------------------------------------------------------------------
# cusp membership testing
# ---------------------------------------------------------------------------

class CuspTestResult(NamedTuple):
    """kind is 'cusp' (witness maps infinity to the point), 'special'
    (witness is hyperbolic and fixes the point), or 'unknown'."""

    kind: str
    witness: Word | None = None
    depth: int = 0


def cusp_test(
    g: FrickeGroup,
    x: ProjPoint,
    depth: int,
    budget: int = 100_000,
) -> CuspTestResult:
    """Best-first search from x toward infinity.

    States are translation-reduced; the priority is the denominator of the
    state, so the search follows a height descent. A letter takes a state s
    to infinity through a translate when s - j*2t is the letter's pole for
    some j, so each letter's pole is reduced modulo 2t once. Two distinct
    arrival words at one state compose to a stabilizer of x; a hyperbolic
    stabilizer makes x a special point.
    """
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    if budget < 1:
        raise ParameterError(f"budget must be >= 1, got {budget}")
    x = reduce_point(*x)
    if x.is_infinity:
        return CuspTestResult("cusp", witness="", depth=0)

    p, q = g.two_t.numerator, g.two_t.denominator
    steps = []
    for ch in LETTERS:
        m = tuple(g.letter_matrix(ch))
        pole, j = None, 0
        if m[2]:
            # the pole -d/c of the letter is rep - j*2t
            rn, rd, k = _letter_step(IDENTITY, p, q, -m[3], m[2])
            pole, j = (rn, rd), -k
        steps.append((ch, m, pole, j))
    n0, d0, k0 = _letter_step(IDENTITY, p, q, x.a, x.c)
    w0 = _translation_word(k0)
    # state key -> arrival word (maps x to the state exactly)
    seen: dict[tuple[int, int], Word] = {(n0, d0): w0}
    counter = 0
    heap: list[tuple[int, int, int, int, Word]] = [(d0, 0, counter, n0, w0)]
    nodes = 0
    while heap and nodes < budget:
        sd, d, _, sn, w = heapq.heappop(heap)
        if d >= depth:
            continue
        nodes += 1
        for ch, m, pole, j in steps:
            if (sn, sd) == pole:
                # w' maps x to infinity through the translate s - j*2t
                witness = invert_word(concat(ch, _translation_word(j), w))
                if apply(word_matrix(g, witness), INFINITY) != x:
                    raise InternalCheckError("cusp witness failed verification")
                return CuspTestResult("cusp", witness=witness, depth=d + 1)
            rn, rd, k = _letter_step(m, p, q, sn, sd)  # finite: s is not the pole
            key = (rn, rd)
            w2 = concat(_translation_word(k), ch, w)
            w1 = seen.get(key)
            if w1 is not None:
                stab = concat(invert_word(w1), w2)
                if stab:
                    mat = word_matrix(g, stab)
                    if (
                        classify_element(mat) is ElementClass.HYPERBOLIC
                        and apply(mat, x) == x
                    ):
                        return CuspTestResult("special", witness=stab, depth=d + 1)
                continue
            seen[key] = w2
            counter += 1
            heapq.heappush(heap, (rd, d + 1, counter, rn, w2))
    return CuspTestResult("unknown", depth=depth)


# ---------------------------------------------------------------------------
# special point scan
# ---------------------------------------------------------------------------

# Longest word special_point_scan accepts: 15 takes about 5 s on 2 cores.
SPECIAL_SCAN_MAX_LEN = 15
_LETTER_RANK = {ch: i for i, ch in enumerate(LETTERS)}


def _word_key(w: Word) -> tuple:
    return (len(w), tuple(_LETTER_RANK[ch] for ch in w))


def special_point_scan(g: FrickeGroup, max_len: int) -> list[tuple[ProjPoint, Word]]:
    """Rational fixed points of hyperbolic words up to the given length.

    Returns (point, word) for every cyclically reduced word of length at
    most max_len that is hyperbolic with rational fixed points, keeping the
    shortest witness per point, sorted by witness (length, then letter
    order) and then point. Monotone in max_len.

    If w = uv then M(vu) = M(u)^-1 M(uv) M(u) up to a scalar, so whether
    tr^2 - 4 det is a positive square depends only on the necklace (the
    rotation class) of w. The scan walks the freely reduced prenecklaces by
    the Fredricksen-Kessler-Maiorana rule over the ranks A < a < B < b: a
    node of length t and Lyndon period p extends by letters of rank at
    least that of r = word[t - p], listed in a table by r and the last
    letter, keeping p on equality and setting it to t + 1 otherwise; it is
    a necklace, with p distinct rotations, when p divides t. Nodes carry
    four plain integers with the content divided out and no canonical sign
    (m and -m share discriminant and fixed points), and check that the
    determinant is positive. Each cyclically reduced necklace gets one
    square test; only the few that pass have their p rotations multiplied
    out and recorded. These rotations are exactly the cyclically reduced
    words, so the output equals that of a scan over every reduced word.

    A node M tests each child word + L by trace alone; only nodes shorter
    than max_len - 1 recurse. The child is a cyclically reduced necklace iff
    its period divides its length and L is not word[0]^-1, and ML = k M' for
    its reduced M', so det(ML) = k^2 det(M'), tr^2 - 4 det = k^2 disc(M').
    """
    if not 1 <= max_len <= SPECIAL_SCAN_MAX_LEN:
        raise ParameterError(f"scan length must be in 1..{SPECIAL_SCAN_MAX_LEN}, got {max_len}")
    letters = [(ch, *g.letter_matrix(ch)) for ch in LETTERS]
    steps = {(r, last): [(ch, la, lb, lc, ld, la * ld - lb * lc, ch == r)
                         for ch, la, lb, lc, ld in letters[_LETTER_RANK[r]:] if ch != INVERSE[last]]
             for r in LETTERS for last in LETTERS}
    best: dict[ProjPoint, Word] = {}

    def record(word: str, p: int, tr: int, det: int) -> None:
        if det <= 0:
            raise InternalCheckError(f"word {word} has non-positive determinant")
        disc = tr * tr - 4 * det
        if disc > 0 and isqrt(disc) ** 2 == disc:
            for w in (word[i:] + word[:i] for i in range(p)):
                for x in fixed_points(word_matrix(g, w)).points:
                    if not x.is_infinity and (x not in best or _word_key(w) < _word_key(best[x])):
                        best[x] = w

    def rec(word: str, p: int, a: int, b: int, c: int, d: int) -> None:
        t, det = len(word), a * d - b * c
        if det <= 0:
            raise InternalCheckError(f"word {word} has non-positive determinant")
        for ch, la, lb, lc, ld, dl, same in steps[word[t - p], word[-1]]:
            q = p if same else t + 1
            if (t + 1) % q == 0 and ch != INVERSE[word[0]]:  # cyclically reduced necklace
                record(word + ch, q, a * la + b * lc + c * lb + d * ld, det * dl)
            if t + 1 < max_len:
                a2, b2 = a * la + b * lc, a * lb + b * ld
                c2, d2 = c * la + d * lc, c * lb + d * ld
                k = gcd(a2, b2, c2, d2)
                if k > 1:
                    a2, b2, c2, d2 = a2 // k, b2 // k, c2 // k, d2 // k
                rec(word + ch, q, a2, b2, c2, d2)

    for ch, la, lb, lc, ld in letters:
        record(ch, 1, la + ld, la * ld - lb * lc)
        if max_len > 1:
            rec(ch, 1, la, lb, lc, ld)
    return sorted(best.items(), key=lambda item: (_word_key(item[1]), item[0]))
