"""Presentations of string groups generated by involutions.

A presentation is a generator count plus a list of relator words; each word is
a tuple of 0-based generator indices.  The involution relators s_i^2 are
implicit everywhere and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

Word = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    rank: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for rel in self.relators:
            for g in rel:
                if not 0 <= g < self.rank:
                    raise ValueError(f"generator index {g} out of range in relator {rel}")

    def with_relators(self, extra) -> "Presentation":
        """New presentation with additional relators appended."""
        return Presentation(self.rank, self.relators + tuple(tuple(w) for w in extra))


def power_word(base: Word, exponent: int) -> Word:
    return tuple(base) * exponent


def cyclic_forms(word: Word) -> tuple[list[Word], int]:
    """The rotations of the word's least period u and of u's reverse, with
    the exponent k of word = u^k.  Each cyclic form of the word or of its
    reverse, the rotations of either, is one of these to the power k: a
    rotation of u^k by i is the rotation of u by i mod |u|, repeated."""
    n = len(word)
    if not n:
        return [()], 1
    d = next(d for d in range(1, n + 1) if n % d == 0 and word[d:] == word[:n - d])
    u = tuple(word[:d])
    return [w[i:] + w[:i] for w in (u, u[::-1]) for i in range(d)], n // d


def normalize_relators(relators) -> tuple[Word, ...]:
    """Drop implicit involution relators and duplicates, keep first-seen order."""
    seen = set()
    out = []
    for rel in relators:
        rel = tuple(rel)
        if len(rel) == 2 and rel[0] == rel[1]:
            continue
        if rel and rel not in seen:
            seen.add(rel)
            out.append(rel)
    return tuple(out)


def format_presentation(pres: Presentation, comment: str | None = None) -> str:
    """Render in the text format: `rank n` then one `rel i j k ...` line per relator."""
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"rank {pres.rank}")
    for rel in pres.relators:
        lines.append("rel " + " ".join(str(g) for g in rel))
    return "\n".join(lines) + "\n"
