"""Breadth-first orbit runs as integer columns, and the orbit cache file.

A run of cusp_bfs is stored column-wise: the reduced representative, BFS
level and parity bits of each record, plus the parent index, letter and
translation multiple that produced it. Witness words are built from that
parent chain only when a caller needs one. The cache file is append-only
and holds one block per run, with its witnesses written out.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .errors import CacheError
from .exactnum import ProjPoint, format_rational
from .groups import PARABOLIC_WORD, TRANSLATION_WORD, FrickeGroup
from .words import Word, concat


def _translation_word(k: int) -> Word:
    # the parabolic word shifts by -2t, its inverse by +2t
    if k >= 0:
        return PARABOLIC_WORD * k
    return TRANSLATION_WORD * (-k)


@dataclass(frozen=True, slots=True)
class CuspRecord:
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
    depths[i] with parity bits tags[i]. A computed run also keeps, per
    record, the parent index, the letter and the translation multiple k, and
    builds a witness word from that chain, concat(_translation_word(k),
    letter, parent witness), only when one is asked for: witness(i),
    records, or a cache write. A run loaded from the cache carries its
    witnesses. records materializes every CuspRecord once and keeps them.
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
        witnesses: list[Word | None],
        parents: list[int] | None = None,
        letters: list[str] | None = None,
        shifts: list[int] | None = None,
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
        self._witnesses = witnesses
        self._parents = parents
        self._letters = letters
        self._shifts = shifts
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
            i = self._parents[i]
        w = ws[i]
        for j in reversed(chain):
            w = concat(_translation_word(self._shifts[j]), self._letters[j], w)
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
        f"#bfs u2={format_rational(u2)} twot={format_rational(two_t)} "
        f"depth={depth} budget={budget}"
    )


def append_bfs_cache(path: str, result: BfsResult) -> None:
    """Append one completed run; the file is never rewritten."""
    lines = [
        _cache_header((result.u2, result.two_t, result.depth, result.budget))
        + f" truncated={int(result.truncated)} records={len(result.nums)}"
    ]
    witness = result.witness
    for i, (n, d, level, tag) in enumerate(
        zip(result.nums, result.dens, result.depths, result.tags)
    ):
        e1, e2 = PARITY_TAGS[tag]
        lines.append(f"{ProjPoint(n, d)}\t{witness(i)}\t{level}\t{e1},{e2}")
    with open(path, "a", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# point, witness, depth, parity bits
_CACHE_LINE = re.compile(r"(inf|-?\d+(?:/[1-9]\d*)?)\t([AaBb]*)\t(\d+)\t([01]),([01])")
_UNREDUCED = re.compile(r"Aa|aA|Bb|bB")


def load_cached_bfs(
    path: str, g: FrickeGroup, depth: int, budget: int
) -> BfsResult | None:
    """Return the first cached run matching the parameters exactly, if any.

    Raises CacheError when that run's block is cut short or holds a
    malformed line.
    """
    if not os.path.exists(path):
        return None
    marker = _cache_header((g.u2, g.two_t, depth, budget)) + " truncated="
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    if text.startswith(marker):
        pos = 0
    else:
        pos = text.find("\n" + marker) + 1
        if pos == 0:
            return None
    end = text.find("\n", pos)
    if end < 0:
        end = len(text)
    header = text[pos:end]
    try:
        trunc_s, records_s = header[len(marker):].split(" records=")
        truncated = bool(int(trunc_s))
        count = int(records_s)
    except ValueError:
        raise CacheError(f"{path}: malformed cache header {header!r}") from None
    lines = text[end + 1:].split("\n", count)[:count]
    if len(lines) < count or (lines and not lines[-1]):
        raise CacheError(f"{path}: cached run holds fewer than {count} records")
    nums, dens, depths, tags, witnesses = [], [], [], [], []
    for line in lines:
        match = _CACHE_LINE.fullmatch(line)
        if match is None:
            raise CacheError(f"{path}: malformed cache line {line!r}")
        pt_s, word_s, depth_s, e1, e2 = match.groups()
        if pt_s == "inf":
            n, d = 1, 0
        else:
            n, _, d_s = pt_s.partition("/")
            n, d = int(n), int(d_s or 1)
        # accept only what append_bfs_cache writes: points in lowest terms,
        # freely reduced witnesses
        if (d and gcd(n, d) != 1) or _UNREDUCED.search(word_s):
            raise CacheError(f"{path}: malformed cache line {line!r}")
        nums.append(n)
        dens.append(d)
        depths.append(int(depth_s))
        tags.append(2 * (e1 == "1") + (e2 == "1"))
        witnesses.append(word_s)
    return BfsResult(g.u2, g.two_t, depth, budget, truncated, nums, dens, depths, tags,
                     witnesses)
