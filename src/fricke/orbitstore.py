"""Breadth-first orbit runs as integer columns, and the orbit cache file.

A run of cusp_bfs is stored column-wise: the reduced representative, BFS
level and parity bits of each record, plus the parent index, letter and
translation multiple that produced it. Witness words are built from that
parent chain only when a caller needs one. The cache file is append-only
and holds one block per run: the parent index and letter of each record
after infinity. A load replays the letter step on each record's parent,
so every loaded record is the exact image of its parent.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

from .errors import CacheError
from .exactnum import ProjPoint, format_rational
from .groups import PARABOLIC_WORD, TRANSLATION_WORD, FrickeGroup
from .words import LETTERS, Word, concat


def _letter_step(
    m: tuple[int, int, int, int], p: int, q: int, xn: int, xd: int
) -> tuple[int, int, int] | None:
    """Apply the letter matrix m to xn/xd (infinity is 1/0) and reduce the
    image modulo the translation 2t = p/q.

    Returns None when the image is infinity, else (rn, rd, k) with the image
    equal to rn/rd + k*2t, rn/rd in lowest terms, rd > 0 and rn/rd in [0, 2t).
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

    Record i is the cusp nums[i]/dens[i] (infinity is 1/0), found at level
    depths[i] with parity bits tags[i]. Record 0 is infinity; every other
    record is the image of record parents[i] under the letter letters[i],
    minus shifts[i] translations by 2t. A witness word is built from that
    chain, concat(_translation_word(k), letter, parent witness), only when
    one is asked for: witness(i) or records. records materializes every
    CuspRecord once and keeps them.
    """

    def __init__(
        self,
        u2: Fraction,
        two_t: Fraction,
        depth: int,
        budget: int,
        truncated: bool,
        nums: list[int],
        dens: list[int],
        depths: list[int],
        tags: list[int],
        parents: list[int],
        letters: list[str],
        shifts: list[int],
    ):
        self.u2 = u2
        self.two_t = two_t
        self.depth = depth
        self.budget = budget
        self.truncated = truncated
        self.nums = nums
        self.dens = dens
        self.depths = depths
        self.tags = tags
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
        if self._records is None:
            witness = self.witness
            self._records = tuple(
                CuspRecord(ProjPoint(n, d), witness(i), level, PARITY_TAGS[tag])
                for i, (n, d, level, tag) in enumerate(
                    zip(self.nums, self.dens, self.depths, self.tags)
                )
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


def append_bfs_cache(path: str, result: BfsResult) -> None:
    """Append one completed run; the file is never rewritten."""
    lines = [
        _cache_header((result.u2, result.two_t, result.depth, result.budget))
        + f" truncated={int(result.truncated)} records={len(result.nums)}"
    ]
    lines.extend(
        f"{parent}\t{ch}" for parent, ch in zip(result.parents[1:], result.letters[1:])
    )
    try:
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CacheError(f"{path}: cannot write orbit cache: {exc}") from None


# parent index, letter
_CACHE_LINE = re.compile(r"(0|[1-9]\d*)\t([AaBb])")


def load_cached_bfs(
    path: str, g: FrickeGroup, depth: int, budget: int
) -> BfsResult | None:
    """Return the first cached run matching the parameters exactly, if any.

    Each record is rebuilt by applying its letter to its parent, an earlier
    record, and takes its level and parity from the parent. Raises
    CacheError when the file cannot be read as ASCII text, or when that
    run's block is cut short, does not end where its record count says, or
    holds a malformed line.
    """
    if not os.path.exists(path):
        return None
    marker = _cache_header((g.u2, g.two_t, depth, budget)) + " truncated="
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"{path}: cannot read orbit cache: {exc}") from None
    if text.startswith(marker):
        pos = 0
    else:
        pos = text.find("\n" + marker) + 1
        if pos == 0:
            return None
    end = text.find("\n", pos)
    if end < 0:
        raise CacheError(f"{path}: cached run is cut short in its header")
    header = text[pos:end]
    try:
        trunc_s, records_s = header[len(marker):].split(" records=")
        truncated = bool(int(trunc_s))
        count = int(records_s)
    except ValueError:
        raise CacheError(f"{path}: malformed cache header {header!r}") from None
    if count < 1:
        raise CacheError(f"{path}: cached run must hold at least 1 record, not {count}")
    # count - 1 record lines, then the next header or the end of the file
    body = text[end + 1:].split("\n", count)
    if len(body) < count:
        raise CacheError(f"{path}: cached run holds fewer than {count} records")
    after = body[count - 1]
    if not (after.startswith("#") or (after == "" and len(body) == count)):
        raise CacheError(f"{path}: cached run does not end after {count} records")
    steps = {ch: (g.letter_matrix(ch), PARITY_FLIP[ch]) for ch in LETTERS}
    p, q = g.two_t.numerator, g.two_t.denominator
    nums, dens, depths, tags = [1], [0], [0], [0]
    parents, letters, shifts = [-1], [""], [0]
    for i, line in enumerate(body[:count - 1], 1):
        match = _CACHE_LINE.fullmatch(line)
        parent = int(match[1]) if match else i
        if parent >= i:  # a parent is an earlier record
            raise CacheError(f"{path}: malformed cache line {line!r}")
        ch = match[2]
        m, flip = steps[ch]
        step = _letter_step(m, p, q, nums[parent], dens[parent])
        if step is None:
            raise CacheError(f"{path}: cache line {line!r} maps its parent to infinity")
        nums.append(step[0])
        dens.append(step[1])
        shifts.append(step[2])
        depths.append(depths[parent] + 1)
        tags.append(tags[parent] ^ flip)
        parents.append(parent)
        letters.append(ch)
    return BfsResult(g.u2, g.two_t, depth, budget, truncated, nums, dens, depths, tags,
                     parents, letters, shifts)
