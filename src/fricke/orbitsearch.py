"""Cusp orbit runs and their cache, the cusp orbit mod L, cusp and special point
tests, density probes.

The cusp set of a group here is the orbit of infinity. Finite cusps are
stored by their canonical representative modulo the translation by 2t,
reduced into [0, 2t), as an integer pair (num, den). One letter step,
_letter_step, applies a generator to such a pair and reduces the image
modulo 2t = p/q with one integer floor division and one gcd; cusp_bfs,
cusp_test and the orbit cache loader all use it.

A run of cusp_bfs is stored column-wise: the reduced representative of
each record, plus the parent index, letter and translation multiple that
produced it. Level and parity bits follow from the parent chain, and
witness words, adjusted by powers of the parabolic word so that they map
infinity to the stored representative exactly, are built from it only when
a caller needs one; the probes read only the integer columns until they
have a hit. The cache file is append-only and holds one block per run: the
parent index and letter of each record after infinity. A load replays the
letter step on each record's parent, so every loaded record is the exact
image of its parent.

orbit_closure reduces the cusp orbit mod a level L prime to the support
primes: the finite set of points of P1(Z/L) that cusps reach, each with a
parent word. A probe checks its ball against it before any search.

Positive probe answers (Found, Cusp, Special) are sound and re-verified
before being returned. A probe miss whose ball lies in a point that the
orbit mod L does not reach is proven, and runs no search; every other
negative answer (a miss after a search, Unknown) is evidence bounded by the
search depth.
"""

from __future__ import annotations

import heapq
import os
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, NamedTuple

from .errors import CacheError, InternalCheckError, ParameterError
from .exactnum import (
    INFINITY,
    ProjPoint,
    Rational,
    format_rational,
    is_prime,
    p1_reduce,
    prime_factors,
    reduce_point,
    require_prime,
)
from .groups import (
    IDENTITY,
    LAMBDA_WORDS,
    PARABOLIC_WORD,
    TRANSLATION_WORD,
    ElementClass,
    FrickeGroup,
    apply,
    classify_element,
    fixed_points,
    word_matrix,
)
from .words import INVERSE, LETTERS, Word, concat, invert_word

DEFAULT_NODE_BUDGET = 250_000


# ---------------------------------------------------------------------------
# orbit runs as integer columns
# ---------------------------------------------------------------------------

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


class CuspRecord(NamedTuple):
    """One cusp with a witness word mapping infinity to it exactly."""

    point: ProjPoint
    witness: Word
    depth: int
    parity_tag: tuple[int, int]


# a parity tag (e1, e2) is stored as the bits 2*e1 + e2; a letter flips one
PARITY_TAGS = ((0, 0), (0, 1), (1, 0), (1, 1))
PARITY_FLIP = {"A": 2, "a": 2, "B": 1, "b": 1}


class BfsResult:
    """One breadth-first run, kept as integer columns.

    Record i is the cusp nums[i]/dens[i] (infinity is 1/0). Record 0 is
    infinity; every other record is the image of record parents[i] under
    the letter letters[i], minus shifts[i] translations by 2t. A witness
    word is built from that chain, concat(_translation_word(k), letter,
    parent witness), only when one is asked for: witness(i) or records.
    Level and parity bits are not stored: a record lies one level below its
    parent, and its letter flips one parity bit of the parent's.
    """

    def __init__(self, u2: Fraction, two_t: Fraction, depth: int, budget: int, truncated: bool,
                 nums: list[int], dens: list[int], parents: list[int], letters: list[str],
                 shifts: list[int]):
        self.u2 = u2
        self.two_t = two_t
        self.depth = depth
        self.budget = budget
        self.truncated = truncated
        self.nums = nums
        self.dens = dens
        self._witnesses: list[Word | None] = [""] + [None] * (len(nums) - 1)
        self.parents = parents
        self.letters = letters
        self.shifts = shifts
        self._records: tuple[CuspRecord, ...] | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, BfsResult):
            return NotImplemented
        return (
            (self.u2, self.two_t, self.depth, self.budget, self.truncated)
            == (other.u2, other.two_t, other.depth, other.budget, other.truncated)
            and self.records == other.records
        )

    def __repr__(self) -> str:
        return (
            f"BfsResult(u2={self.u2!r}, two_t={self.two_t!r}, depth={self.depth}, "
            f"budget={self.budget}, records={len(self.nums)}, truncated={self.truncated})"
        )

    def witness(self, i: int) -> Word:
        """The witness word of record i, built along its parent chain."""
        ws = self._witnesses
        chain = []
        while ws[i] is None:
            chain.append(i)
            i = self.parents[i]
        w = ws[i]
        for j in reversed(chain):
            w = concat(_translation_word(self.shifts[j]), self.letters[j], w)
            ws[j] = w
        return w

    def finite_pairs(self) -> Iterator[tuple[int, int, int]]:
        """(index, numerator, denominator) of every finite record, in order."""
        return (
            (i, n, d) for i, (n, d) in enumerate(zip(self.nums, self.dens)) if d != 0
        )

    @property
    def records(self) -> tuple[CuspRecord, ...]:
        """Every CuspRecord, built once; one forward pass derives levels and parities."""
        if self._records is None:
            levels, tags = [0], [0]
            for parent, ch in zip(self.parents[1:], self.letters[1:]):
                levels.append(levels[parent] + 1)
                tags.append(tags[parent] ^ PARITY_FLIP[ch])
            witness = self.witness
            self._records = tuple(
                CuspRecord(ProjPoint(n, d), witness(i), levels[i], PARITY_TAGS[tags[i]])
                for i, (n, d) in enumerate(zip(self.nums, self.dens))
            )
        return self._records

    def finite_points(self) -> Iterator[CuspRecord]:
        return (r for r in self.records if not r.point.is_infinity)


# ---------------------------------------------------------------------------
# orbit cache (append-only, exact parameter match)
# ---------------------------------------------------------------------------

def _cache_header(result_or_params) -> str:
    u2, two_t, depth, budget = result_or_params
    return (
        f"#orbit u2={format_rational(u2)} twot={format_rational(two_t)} "
        f"depth={depth} budget={budget}"
    )


def _cache_line(parent: int, ch: str) -> str:
    return f"{parent}\t{ch}"


def append_bfs_cache(path: str, result: BfsResult) -> None:
    """Append one completed run; the file is never rewritten."""
    lines = [
        _cache_header((result.u2, result.two_t, result.depth, result.budget))
        + f" truncated={int(result.truncated)} records={len(result.nums)}"
    ]
    lines.extend(map(_cache_line, result.parents[1:], result.letters[1:]))
    try:
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CacheError(f"{path}: cannot write orbit cache: {exc}") from None


# the first line that is not a well-formed record line (parent index, letter);
# searching for it keeps no state per line, where matching the run of record
# lines with a repeated group keeps about 200 bytes a line
_CACHE_RECORDS_END = re.compile(r"^(?!(?:0|[1-9]\d*)\t[AaBb]\n)", re.MULTILINE)


def load_cached_bfs(
    path: str, g: FrickeGroup, depth: int, budget: int
) -> BfsResult | None:
    """Return the first cached run matching the parameters exactly, if any.

    A run's block is the lines after its header up to the next line that
    starts with "#", or the end of the file: records - 1 lines
    "parent<TAB>letter", each record the image of its parent, an earlier
    record, under its letter. Raises CacheError when the file is not ASCII
    text it can read, else at the first failed check in this order: the
    header (truncated 0 or 1, records at least 1), the line count (more
    lines, then fewer or a last line without its newline), the line syntax,
    and the replay (each parent earlier, no step to infinity).
    """
    if not os.path.exists(path):
        return None
    marker = _cache_header((g.u2, g.two_t, depth, budget)) + " truncated="
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"{path}: cannot read orbit cache: {exc}") from None
    pos = ("\n" + text).find("\n" + marker)  # the run's header starts a line
    if pos < 0:
        return None
    end = text.find("\n", pos)
    if end < 0:
        raise CacheError(f"{path}: cached run is cut short in its header")
    header = text[pos:end]
    try:
        trunc_s, records_s = header[len(marker):].split(" records=")
        truncated = bool(("0", "1").index(trunc_s))
        count = int(records_s)
        if records_s != str(count):  # the writer prints a bare decimal count
            raise ValueError
    except ValueError:
        raise CacheError(f"{path}: malformed cache header {header!r}") from None
    if count < 1:
        raise CacheError(f"{path}: cached run must hold at least 1 record, not {count}")
    start = end + 1
    stop = text.find("\n#", end) + 1 or len(text)  # find gives -1 past the last block
    lines = text.count("\n", start, stop)
    if lines > count - 1:
        raise CacheError(f"{path}: cached run does not end after {count} records")
    if lines < count - 1 or text[stop - 1] != "\n":  # text[start - 1] is the header's "\n"
        raise CacheError(f"{path}: cached run holds fewer than {count} records")
    bad = _CACHE_RECORDS_END.search(text, start, stop).start()
    if bad < stop:
        line = text[bad:text.find("\n", bad)]
        raise CacheError(f"{path}: malformed cache line {line!r}")
    steps = {ch: tuple(g.letter_matrix(ch)) for ch in LETTERS}
    p, q = g.two_t.numerator, g.two_t.denominator
    nums, dens, parents, letters, shifts = [1], [0], [-1], [""], [0]
    fields = iter(text[start:stop].split())
    # zip draws a parent, then its letter, from the one iterator
    for i, (parent, ch) in enumerate(zip(map(int, fields), fields), 1):
        if parent >= i:  # a parent is an earlier record
            raise CacheError(f"{path}: malformed cache line {_cache_line(parent, ch)!r}")
        step = _letter_step(steps[ch], p, q, nums[parent], dens[parent])
        if step is None:
            raise CacheError(
                f"{path}: cache line {_cache_line(parent, ch)!r} maps its parent to infinity"
            )
        nums.append(step[0])
        dens.append(step[1])
        shifts.append(step[2])
        parents.append(parent)
        letters.append(ch)
    return BfsResult(g.u2, g.two_t, depth, budget, truncated, nums, dens, parents, letters, shifts)


# ---------------------------------------------------------------------------
# breadth-first cusp enumeration
# ---------------------------------------------------------------------------

def cusp_bfs(
    g: FrickeGroup,
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> BfsResult:
    """Breadth-first closure of {infinity} under the four generator letters.

    Points are canonically reduced modulo the translation. Output order is
    deterministic (discovery order, letters in the order A, a, B, b). A
    budget stop marks the result truncated. Runs whose parameters match a
    cached run exactly are loaded from the cache instead of recomputed;
    every other run is computed (or taken from the in-process memo of
    recent runs) and appended to the cache.
    """
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    if budget < 1:
        raise ParameterError(f"budget must be >= 1, got {budget}")
    if cache_path:
        cached = load_cached_bfs(cache_path, g, depth, budget)
        if cached is not None:
            return cached
    result = _computed_bfs(g, depth, budget)
    if cache_path:
        append_bfs_cache(cache_path, result)
    return result


# results are immutable, so the memo of recent runs can share them
@lru_cache(maxsize=3)
def _computed_bfs(g: FrickeGroup, depth: int, budget: int) -> BfsResult:
    steps = [(ch, tuple(g.letter_matrix(ch)), PARITY_FLIP[ch]) for ch in LETTERS]
    p, q = g.two_t.numerator, g.two_t.denominator
    nums, dens, parents, letters, shifts = [1], [0], [-1], [""], [0]
    # (num, den) of the reduced representative -> its parity bits; infinity is (1, 0)
    seen: dict[tuple[int, int], int] = {(1, 0): 0}
    truncated = False
    lo, hi = 0, 1  # the records of the previous level

    for _ in range(depth):
        if truncated or lo == hi:
            break
        for i in range(lo, hi):
            if truncated:
                break
            xn, xd = nums[i], dens[i]
            wp = seen[xn, xd]
            for ch, m, flip in steps:
                step = _letter_step(m, p, q, xn, xd)
                if step is None:
                    continue  # back to infinity, already recorded
                rn, rd, k = step
                key = (rn, rd)
                tag = wp ^ flip
                prev = seen.get(key)
                if prev is not None:
                    if prev != tag:
                        raise InternalCheckError(
                            f"cusp {format_rational(Fraction(rn, rd))} reached with "
                            f"parities {PARITY_TAGS[prev]} and {PARITY_TAGS[tag]}"
                        )
                    continue
                if len(nums) >= budget:
                    truncated = True
                    break
                seen[key] = tag
                nums.append(rn)
                dens.append(rd)
                parents.append(i)
                letters.append(ch)
                shifts.append(k)
        lo, hi = hi, len(nums)

    return BfsResult(g.u2, g.two_t, depth, budget, truncated, nums, dens, parents, letters, shifts)


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


# ---------------------------------------------------------------------------
# the cusp orbit mod L
# ---------------------------------------------------------------------------

# Coset transversal of the parity kernel Lambda in the group: the cusps are
# the union of the orbits Lambda.c(inf) over these words c.
COSET_WORDS: tuple[Word, ...] = ("", "A", "B", "AB")

# Largest psi(L) = L prod (1 + 1/p), the number of points of P1(Z/L), at which
# orbit_closure closes; above it the closure is taken at the largest divisor
# of L under it. On 2 cores (6/11, 6) closes 150 points (level 125) in 0.44 to
# 0.88 ms, 392 (343) in 1.2 to 2.3 ms and 1,452 (1331) in 4.8 to 8.1 ms, where
# the 20,000-record search behind a (1/4, 4) probe miss takes 23 ms; at the
# cap a probe pays about 1 ms for its check. With vectors=True a closure holds
# up to phi(L)/2 times as many classes: (1, 6) closes 22,260 at level 211 in
# 61 to 78 ms, and 24,576 at level 256 in 74 ms.
ORBIT_CLOSURE_MAX_POINTS = 256


def _psi(factors: dict[int, int]) -> int:
    """psi(n) = n prod (1 + 1/p) of n = prod p^e: the points of P1(Z/n)."""
    return prod(p ** (e - 1) * (p + 1) for p, e in factors.items())


def _closure_level(level: int) -> int:
    """The largest divisor d of level with psi(d) at most the cap. As
    psi(d) >= d, only the prime powers up to the cap that divide it count."""
    cap = ORBIT_CLOSURE_MAX_POINTS
    divisors: list[tuple[int, dict[int, int]]] = [(1, {})]
    for p in range(2, min(level, cap) + 1):
        if level % p == 0 and is_prime(p):
            powers = []
            q = p
            while q <= cap and level % q == 0:
                powers.append(q)
                q *= p
            divisors += [(d * q, {**f, p: k}) for d, f in divisors
                         for k, q in enumerate(powers, 1) if d * q <= cap]
    return max(d for d, f in divisors if _psi(f) <= cap)


class OrbitClosure:
    """The classes mod `level` that the cusps of a group reach; see orbit_closure.

    A class is a primitive vector (a, c) mod level up to the scalars in
    `units`: every unit for the points of P1(Z/level), or U_S for the gamma
    labels. parents maps the key of each reached class, in the order of
    discovery, to (the parent's key, the Lambda word that takes the parent
    to it), or, at a coset start point c(inf), to (None, c).
    """

    def __init__(self, level: int, units: frozenset[int] | None,
                 parents: dict[tuple[int, int], tuple[tuple[int, int] | None, Word]]):
        self.level = level
        self.units = units
        self.parents = parents
        # residue -> (its inverse times its coset representative, the
        # representative), or None for a residue that is not a unit
        self._scale: list[tuple[int, int] | None] = [None] * level
        for c in range(level):
            if self._scale[c] is None and gcd(c, level) == 1:
                coset = [c] if units is None else [c * u % level for u in units]
                rep = 1 % level if units is None else min(coset)
                for x in coset:
                    self._scale[x] = (pow(x, -1, level) * rep % level, rep)

    def key(self, a: int, c: int) -> tuple[int, int]:
        """The representative of the class of (a, c), gcd(a, c, level) = 1:
        (a/c * r, r) when c is a unit, r the least of c*units, (r, c/a * r)
        when a is a unit and c is not, else the least pair of the class."""
        n = self.level
        a, c = a % n, c % n
        s = self._scale[c]
        if s is not None:
            return a * s[0] % n, s[1]
        s = self._scale[a]
        if s is not None:
            return s[1], c * s[0] % n
        if self.units is None:
            return p1_reduce(a, c, n)
        return min((u * a % n, u * c % n) for u in self.units)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self.key(*pair) in self.parents

    def word(self, key: tuple[int, int]) -> Word:
        """The word along the parent chain of a reached class: it maps
        infinity to a cusp whose lowest-terms pair lies in the class."""
        parts = []
        while key is not None:
            key, w = self.parents[key]
            parts.append(w)
        return concat(*parts)


def orbit_closure(g: FrickeGroup, level: int, vectors: bool = False) -> OrbitClosure | None:
    """The points of P1(Z/L) that cusps reach, each with a parent word, or
    None when L shares a prime with S = g.support_primes.

    Lambda, the kernel of the parity map, is free on LAMBDA_WORDS, and each
    generator lambda divided by s = sqrt(det lambda) lies in SL2(Z[1/S]).
    For L prime to S, reduction mod L is a ring map Z[1/S] -> Z/L. Lambda is
    normal of index 4, so the cusps are the union of Lambda.c(inf) over the
    coset words c in COSET_WORDS, and a cusp's point of P1(Z/L) lies in the
    closure of the four start points c(inf) under the generators mod L (a
    finite group, so the forward images close it). Conversely each point of
    the closure is the point of the cusp w(inf), w its parent word. The
    closure is therefore exactly the set of cusp points mod L: a rational
    whose point lies outside it is not a cusp, and so the group is not
    pseudomodular; no density theorem is needed. The integer generators act
    on P1(Z/L) as they are, since their determinants s^2 are units mod L.

    With vectors=True the classes are the vectors mod L up to U_S, the
    group generated by -1 and the primes of S mod L. A cusp's lowest-terms
    pair is u (lambda/s) v for v the pair of c(inf) and u a unit of Z[1/S],
    since (lambda/s) v is unimodular over Z[1/S]; so the generators act as
    lambda * s^-1 mod L on vectors, and a gamma label (a pair up to sign)
    whose U_S-class is not reached is carried by no cusp. Where U_S = {+-1}
    mod L the classes are the gamma labels, decided both ways.

    Where psi(L), the number of points of P1(Z/L), is above
    ORBIT_CLOSURE_MAX_POINTS, the closure is taken at the largest divisor of
    L under the cap instead, and that divisor is its level: a point missed
    mod a divisor of L is missed mod L too.
    """
    if level < 1:
        raise ParameterError(f"level must be >= 1, got {level}")
    if gcd(level, prod(g.support_primes)) != 1:
        return None
    if level > ORBIT_CLOSURE_MAX_POINTS or _psi(prime_factors(level)) > ORBIT_CLOSURE_MAX_POINTS:
        level = _closure_level(level)
    units = None
    if vectors:
        units = {1 % level}
        for p in (-1, *g.support_primes):
            while any(u * p % level not in units for u in units):
                units |= {u * p % level for u in units}
        units = frozenset(units)
    gens = []
    for w in LAMBDA_WORDS:
        m = word_matrix(g, w)
        s = pow(isqrt(m.det()), -1, level)
        gens.append((w, m.a * s % level, m.b * s % level, m.c * s % level, m.d * s % level))
    closure = OrbitClosure(level, units, {})
    parents, key = closure.parents, closure.key
    queue = []
    for c in COSET_WORDS:
        x = apply(word_matrix(g, c), INFINITY)
        k = key(x.a, x.c)
        if k not in parents:
            parents[k] = (None, c)
            queue.append(k)
    for k in queue:  # the queue grows while it is read
        a, c = k
        for w, m0, m1, m2, m3 in gens:
            k2 = key(m0 * a + m1 * c, m2 * a + m3 * c)
            if k2 not in parents:
                parents[k2] = (k, w)
                queue.append(k2)
    return closure


# ---------------------------------------------------------------------------
# density probes
# ---------------------------------------------------------------------------

class ProbeResult(NamedTuple):
    """found=True answers are verified exactly before being returned; the
    cusp is base_point + offset*2t with offset the least k >= 0 that hits.

    A proven miss (found=False, proven=True) ran no search: the ball lies in
    the point `point` of P1(Z/level), which no cusp reaches. Any other miss
    is evidence bounded by the search depth.
    """

    found: bool
    cusp: Fraction | None = None
    offset: int | None = None
    base_point: Fraction | None = None
    witness: Word | None = None
    depth: int = 0
    truncated: bool = False
    proven: bool = False
    level: int | None = None
    point: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.found

    def to_dict(self) -> dict:
        out = {"found": self.found, "depth": self.depth, "truncated": self.truncated}
        if self.found:
            out["cusp"] = format_rational(self.cusp)
            out["offset"] = self.offset
            out["base_point"] = format_rational(self.base_point)
            out["witness"] = self.witness
        if self.proven:
            out["proven"] = True
            out["level"] = self.level
            out["point"] = f"({self.point[0]}:{self.point[1]})"
        return out


def _proven_miss(g: FrickeGroup, x: Fraction, level: int) -> ProbeResult | None:
    """A proven miss when x's point mod level, or mod the divisor of level
    that orbit_closure takes, is outside the cusp orbit; else None.

    The probes pass for level the product of p^k over their targets (p, k)
    with p not in S. If v_p(c - x) >= k >= 1, then c and x have the same
    point mod p^k in either chart: both are p-integral and congruent, or
    v_p(c) = v_p(x) < 0 and v_p(1/c - 1/x) > k. So every c in the ball has
    x's point mod level, and a missed point leaves the ball without cusps.
    """
    closure = orbit_closure(g, level) if level > 1 else None
    pair = (x.numerator, x.denominator)
    if closure is None or pair in closure:
        return None
    return ProbeResult(found=False, proven=True, level=closure.level,
                       point=p1_reduce(*pair, closure.level))


def _first_hit(bfs: BfsResult, y: Fraction, m: Fraction, primes: tuple[int, ...]) -> ProbeResult:
    """The first cusp c = c0 + k*2t in enumeration order with (c - y)/m
    integral at every prime (primes empty) or at the given primes.

    Write c0 = cn/cd, y = yn/yd, m = mn/md and 2t = p/q. Then
    (c0 + k*2t - y)/m = (a*k - b)/d with a = p*cd*yd*md,
    b = (yn*cd - cn*yd)*q*md and d = cd*yd*q*|mn|, which is integral at a
    prime l iff the l-part of d divides a*k - b. So with d' = d, or the
    part of d at the given primes, the hits are the k with a*k = b mod d':
    none unless h = gcd(a, d') divides b, and otherwise k = (b/h)(a/h)^-1
    mod d'/h is the least k >= 0. The given primes are those of mn, so d'
    is the part of cd*yd*q at them times |mn|; splitting only cd*yd*q keeps
    a loop step per prime power off a modulus mn of up to 4096 bits.

    Each hit is rechecked in Fraction arithmetic on the cusp, not in the
    integers of the solve: gcd(den((c - y)/m), R) = 1, with R the product
    of the given primes, or 0 for every prime since gcd(n, 0) = n. For
    targets (p, k_p) and m = prod p^k_p this holds iff v_p(c - y) >= k_p at
    every target; c = y gives (c - y)/m = 0, of denominator 1.
    """
    p, q = bfs.two_t.numerator, bfs.two_t.denominator
    yn, yd = y.numerator, y.denominator
    mn, md = abs(m.numerator), m.denominator
    rad = prod(primes) if primes else 0
    for i, cn, cd in bfs.finite_pairs():
        a = p * cd * yd * md
        b = (yn * cd - cn * yd) * q * md
        d = cd * yd * q
        if rad:  # keep the part of cd*yd*q at the given primes
            rest, g = d, gcd(d, rad)
            while g > 1:
                rest //= g
                g = gcd(rest, g)
            d //= rest
        d *= mn
        h = gcd(a, d)
        if b % h:
            continue
        n = d // h
        k = b // h * pow(a // h, -1, n) % n
        c0 = Fraction(cn, cd)
        cusp = c0 + k * bfs.two_t
        if gcd(((cusp - y) / m).denominator, rad) != 1:
            raise InternalCheckError("probe produced an unverified hit")
        return ProbeResult(
            found=True,
            cusp=cusp,
            offset=k,
            base_point=c0,
            witness=bfs.witness(i),
            depth=bfs.depth,
            truncated=bfs.truncated,
        )
    return ProbeResult(found=False, depth=bfs.depth, truncated=bfs.truncated)


def adelic_probe(
    g: FrickeGroup,
    x: Rational,
    m: Rational,
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> ProbeResult:
    """Search the cusp set for a member of the adelic ball trace x + mZ:
    the first cusp c0 + k*2t in enumeration order with (c - x)/m in Z.

    The ball asks v_p(c - x) >= v_p(m) at each prime p of num(m), so it is
    first checked against the cusp orbit mod the part of num(m) prime to S;
    a proven miss runs no search and leaves the cache alone.
    """
    x = Fraction(x)
    m = Fraction(m)
    if m == 0:
        raise ParameterError("ball modulus m must be nonzero")
    level = abs(m.numerator)
    for p in g.support_primes:
        while level % p == 0:
            level //= p
    miss = _proven_miss(g, x, level)
    if miss is not None:
        return miss
    return _first_hit(cusp_bfs(g, depth, budget, cache_path), x, m, ())


# Largest combined target modulus prod p^k that normalize_targets accepts, in
# bits, counted as sum k * p.bit_length() >= log2 of it. On a 2-core machine
# a (6/11, 6) probe at depth 6 takes 0.16 s at 7:1000 (3,000 bits); 7:100000
# runs 9 s and then fails to print an integer of over 4,300 digits, and
# 7:1000000 runs past 60 s.
PADIC_MAX_MODULUS_BITS = 4096


def normalize_targets(targets: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: dict[int, int] = {}
    for p, k in targets:
        require_prime(p)
        if k < 1:
            raise ParameterError(f"target precision must be >= 1, got {k}")
        merged[p] = max(merged.get(p, 0), k)
    if not merged:
        raise ParameterError("at least one (prime, precision) target is required")
    bits = sum(k * p.bit_length() for p, k in merged.items())
    if bits > PADIC_MAX_MODULUS_BITS:
        raise ParameterError(
            f"sum of precision * bit length of prime over the targets must be "
            f"at most {PADIC_MAX_MODULUS_BITS}, got {bits}"
        )
    return sorted(merged.items())


def padic_probe(
    g: FrickeGroup,
    y: Rational,
    targets: Iterable[tuple[int, int]],
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> ProbeResult:
    """Search cusps and their translates for c with v_p(c - y) >= k for all
    targets (p, k) simultaneously: the first cusp c0 + k*2t in enumeration
    order with (c - y)/prod p^k integral at the target primes.

    The targets at primes outside S are first checked against the cusp
    orbit mod the product of their p^k; a proven miss runs no search and
    leaves the cache alone.
    """
    y = Fraction(y)
    targets = normalize_targets(targets)
    level = prod(p ** k for p, k in targets if p not in g.support_primes)
    miss = _proven_miss(g, y, level)
    if miss is not None:
        return miss
    modulus = Fraction(prod(p ** k for p, k in targets))
    return _first_hit(
        cusp_bfs(g, depth, budget, cache_path), y, modulus, tuple(p for p, _ in targets)
    )
