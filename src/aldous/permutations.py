"""Permutations in one-line notation: the group elements that
`yor.rho_sigma` and `aldous rep` represent.

Composition is right to left: ``(a * b)(i) == a(b(i))``, so ``a * b``
means "apply b first". The explicit interchange route uses no
permutation: its states are words of block labels on a Young module,
sorted by their codes (`interchange._module_block`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n} stored as the tuple (sigma(1), ..., sigma(n))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"argument must be in 1..{self.n}, got {i}")
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> Permutation:
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"need distinct i, j in 1..{n}, got ({i}, {j})")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    def adjacent_factorization(self) -> list[int]:
        """Indices i meaning (i, i+1), left-to-right product order.

        Bubble-sorting the one-line word records right-multiplications
        that reduce the word to the identity; reversing that record gives
        sigma as a product of adjacent transpositions. Deterministic and
        of minimal length (one factor per inversion).
        """
        word = list(self.images)
        recorded: list[int] = []
        changed = True
        while changed:
            changed = False
            for p in range(len(word) - 1):
                if word[p] > word[p + 1]:
                    word[p], word[p + 1] = word[p + 1], word[p]
                    recorded.append(p + 1)
                    changed = True
        return recorded[::-1]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            v = self(start)
            while v != start:
                cycle.append(v)
                seen[v - 1] = True
                v = self(v)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation or a one-line word.

    Accepts ``"(1 4)(2 3)"``, ``"(1,4)"``, the single-digit shorthand
    ``"(14)"``, and the one-line form ``"2,1,4,3"``. Cycle notation must
    be parenthesised groups and nothing else, optionally separated by
    spaces. Entries must lie in 1..n; unmentioned points are fixed.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if text.startswith("("):
        if not re.fullmatch(r"(\([^()]*\)\s*)+", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        chunks = re.findall(r"\(([^()]*)\)", text)
        perm = Permutation.identity(n)
        for chunk in chunks:
            chunk = chunk.strip()
            if not chunk:
                continue
            if "," in chunk or " " in chunk:
                values = [int(tok) for tok in re.split(r"[,\s]+", chunk) if tok]
            else:
                values = [int(ch) for ch in chunk]  # single-digit shorthand
            if len(values) != len(set(values)):
                raise ValueError(f"repeated entry in cycle: {chunk!r}")
            if any(not 1 <= v <= n for v in values):
                raise ValueError(f"cycle entry out of 1..{n}: {chunk!r}")
            images = list(range(1, n + 1))
            for a, b in zip(values, values[1:] + values[:1]):
                images[a - 1] = b
            perm = perm * Permutation(tuple(images))  # later cycles apply first
        return perm
    values = [int(tok) for tok in re.split(r"[,\s]+", text) if tok]
    if len(values) != n:
        raise ValueError(f"one-line word must have {n} entries, got {len(values)}")
    return Permutation(tuple(values))
