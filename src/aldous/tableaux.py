"""Partitions, Young diagrams, and standard Young tableaux.

Everything downstream (orthogonal representations, Jucys-Murphy matrices,
per-block Laplacians) is indexed by the objects defined here. The one
convention that matters globally is the *dictionary order* on standard
tableaux: read each tableau row by row, top row first, and compare the
resulting words; the tableau whose word is larger at the first
disagreement is the larger tableau. `enumerate_syt` returns tableaux in
this order, and every matrix that `aldous.yor` returns uses it as the
basis order.

Inside, tableaux are one integer array per shape, `last_letter_rows`:
row t holds the row of each value 1..n in tableau t, and the tableaux
come in Young's last-letter order, where those with n in one corner are
contiguous. `aldous.yor` builds on that array directly. The dictionary
order is a sort of its reading words (`_dictionary_positions`), and only
`enumerate_syt` turns it into row tuples, for validated
`StandardTableau` objects.
"""

from __future__ import annotations

import math
from collections import ChainMap
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def conjugate(self) -> Partition:
        """Flip rows and columns of the diagram."""
        cols = [sum(1 for p in self.parts if p >= c) for c in range(1, self.parts[0] + 1)]
        return Partition(tuple(cols))


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts with optional ``^`` exponents.

    ``"4,3^2,1"`` means (4,3,3,1). Parts are normalized to weakly
    decreasing order.
    """
    parts: list[int] = []
    for token in text.replace(" ", "").split(","):
        if not token:
            raise ValueError(f"empty part in partition text: {text!r}")
        if "^" in token:
            base_s, _, exp_s = token.partition("^")
            base, exp = int(base_s), int(exp_s)
            if exp < 1:
                raise ValueError(f"exponent must be >= 1 in {token!r}")
            parts.extend([base] * exp)
        else:
            parts.append(int(token))
    return Partition(tuple(sorted(parts, reverse=True)))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in reverse lexicographic order.

    (4) comes before (3,1) comes before (2,2) and so on; each partition
    appears exactly once.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    return list(rec(n, n, []))


@dataclass(frozen=True)
class StandardTableau:
    """A bijective filling of a Young diagram with 1..n.

    Rows increase left to right, columns increase top to bottom. Stored
    row-major as a tuple of row tuples.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = sum(len(r) for r in rows)
        values = sorted(chain.from_iterable(rows))
        if values != list(range(1, n + 1)):
            raise ValueError("filling must use each of 1..n exactly once")
        Partition(tuple(len(r) for r in rows))  # validates weakly decreasing shape
        for row in rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row not increasing: {row}")
        for r in range(len(rows) - 1):
            if any(rows[r][c] >= rows[r + 1][c] for c in range(len(rows[r + 1]))):
                raise ValueError("column not increasing")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def position(self, value: int) -> tuple[int, int]:
        """(row, col), 1-based, of the box holding `value`."""
        for r, row in enumerate(self.rows, start=1):
            for c, v in enumerate(row, start=1):
                if v == value:
                    return r, c
        raise ValueError(f"{value} not in tableau of size {self.n}")

    def reading_word(self) -> tuple[int, ...]:
        """Row-major word, top row first; the dictionary-order sort key."""
        return tuple(chain.from_iterable(self.rows))

    def swap_values(self, a: int, b: int) -> StandardTableau:
        """Exchange the boxes holding a and b (result must be standard)."""
        table = {a: b, b: a}
        return StandardTableau(
            tuple(tuple(table.get(v, v) for v in row) for row in self.rows)
        )

    def restricted(self) -> StandardTableau:
        """Drop the box holding n (always a removable corner)."""
        n = self.n
        rows = tuple(tuple(v for v in row if v != n) for row in self.rows)
        return StandardTableau(tuple(row for row in rows if row))

    def __str__(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.rows)


def content(t: StandardTableau, i: int) -> int:
    """Column minus row of the box holding i."""
    if not 1 <= i <= t.n:
        raise ValueError(f"i must be in 1..{t.n}, got {i}")
    row, col = t.position(i)
    return col - row


def content_sum(lam: Partition) -> int:
    """Sum of all box contents of the diagram; tableau-independent.

    Row j contributes lam_j*(lam_j-1)/2 - (j-1)*lam_j.
    """
    return sum(p * (p - 1) // 2 - (j - 1) * p for j, p in enumerate(lam.parts, start=1))


def removable_corners(lam: Partition) -> list[tuple[int, int]]:
    """(row, col) of boxes whose removal leaves a partition, row-ascending."""
    corners = []
    for j, p in enumerate(lam.parts, start=1):
        below = lam.parts[j] if j < len(lam.parts) else 0
        if p > below:
            corners.append((j, p))
    return corners


def covers_below(lam: Partition) -> list[Partition]:
    """Partitions obtained by removing one corner box, corner row ascending."""
    result = []
    for row, _ in removable_corners(lam):
        parts = list(lam.parts)
        parts[row - 1] -= 1
        if parts[-1] == 0:
            parts.pop()
        if parts:
            result.append(Partition(tuple(parts)))
    return result


def max_corner_content(lam: Partition) -> int:
    """Largest content among removable corners.

    This is the largest value the content of n can take over all standard
    tableaux of this shape (n always sits in a removable corner, and every
    corner is attainable).
    """
    return max(col - row for row, col in removable_corners(lam))


# 32-bit rows hold every row index of a shape whose arrays fit in memory
_LAST_LETTER: dict[tuple[int, ...], np.ndarray] = {(1,): np.zeros((1, 1), np.int32)}


def last_letter_rows(parts: tuple[int, ...]) -> np.ndarray:
    """Every standard tableau of the shape as one read-only f x n array
    R in Young's last-letter order, where R[t, v - 1] is the row (0-based)
    of the box holding v in tableau t. Tableaux are grouped by the corner
    holding n, corner rows ascending (the `covers_below` order), and each
    group is in the last-letter order of the shape one box below; so the
    reversed rows of R (row of n, row of n - 1, ..., row of 1) ascend.

    R stacks the arrays of the shapes one box below, each with a column
    for n. The missing shapes under `parts` are built level by level,
    smallest first, so no recursion grows with n, and each level is
    dropped once the next is built: only the asked-for shape is kept, as
    the shapes under (2, 2, 1^255) would hold 2.1 GiB against its 33 MiB.
    """
    if parts not in _LAST_LETTER:
        levels = [{Partition(parts)}]
        while levels[-1]:
            under = {mu for lam in levels[-1] for mu in covers_below(lam)}
            levels.append({mu for mu in under if mu.parts not in _LAST_LETTER})
        built: dict[tuple[int, ...], np.ndarray] = {}
        for level in reversed(levels):
            below, built = ChainMap(built, _LAST_LETTER), {}
            for lam in level:
                subs = [below[mu.parts] for mu in covers_below(lam)]
                corners = np.array([row - 1 for row, _ in removable_corners(lam)], np.int32)
                R = np.column_stack((np.concatenate(subs), corners.repeat([len(S) for S in subs])))
                built[lam.parts] = R
        built[parts].flags.writeable = False
        _LAST_LETTER[parts] = built[parts]
    return _LAST_LETTER[parts]


@lru_cache(maxsize=None)
def _dictionary_positions(parts: tuple[int, ...]) -> np.ndarray:
    """Last-letter position of each tableau of the shape, tableaux taken
    in dictionary order: a sort of their reading words, which a stable
    sort of each row of `last_letter_rows` by row gives."""
    return np.lexsort(np.argsort(last_letter_rows(parts), axis=1, kind="stable").T[::-1])


@lru_cache(maxsize=None)
def _syt_cached(parts: tuple[int, ...]) -> tuple[StandardTableau, ...]:
    R = last_letter_rows(parts)[_dictionary_positions(parts)]
    return tuple(
        StandardTableau(tuple(np.flatnonzero(t == j) + 1 for j in range(len(parts)))) for t in R
    )


def enumerate_syt(lam: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the given shape, in dictionary order."""
    return _syt_cached(lam.parts)


def f_dim(lam: Partition) -> int:
    """Number of standard tableaux of the shape (block dimension), by the
    hook length formula: n! over the product of the hook lengths, with
    no tableau enumerated."""
    conj = lam.conjugate().parts
    hooks = math.prod(
        row - c + conj[c] - r - 1 for r, row in enumerate(lam.parts) for c in range(row)
    )
    return math.factorial(lam.n) // hooks
