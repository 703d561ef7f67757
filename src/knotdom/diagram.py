"""Knot diagram input: PD codes, braid words, Seifert circles.

A planar diagram (PD) code lists one 4-tuple of arc labels per crossing.
Labels run 1..2n consecutively along the knot's orientation (wrapping
2n -> 1), each label appearing exactly twice.  A tuple (a, b, c, d) reads
counterclockwise starting at the incoming under-strand a; the under-strand
exits at c = a+1.  The over-strand occupies b and d: the crossing is
positive when b = d+1 and negative when d = b+1.  Only single-component
diagrams (knots) are accepted.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .laurent import _Frozen


class DiagramError(ValueError):
    """Raised for malformed or non-knot diagram input."""


class PDCode(NamedTuple):
    """A validated planar diagram code.

    crossings holds the raw tuples and signs[i] is +1/-1 per the b/d
    convention.  The empty code is the 0-crossing unknot diagram.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]

    @staticmethod
    def from_tuples(crossings: list[tuple[int, int, int, int]] | tuple) -> PDCode:
        crossings = tuple(tuple(c) for c in crossings)
        return PDCode(crossings, _validate(crossings))

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        return sum(self.signs)

    def mirror(self) -> PDCode:
        """Swap over and under strands at every crossing."""
        return PDCode.from_tuples([(a, d, c, b) for a, b, c, d in self.crossings])

    def __str__(self) -> str:
        return " ".join(f"X({a},{b},{c},{d})" for a, b, c, d in self.crossings)


class BraidWord(_Frozen):
    """A braid word: letter i stands for the generator sigma_|i| with
    sign(i) as the crossing sign."""

    __slots__ = ("strand_count", "letters")

    def __init__(self, strand_count: int, letters: tuple[int, ...]) -> None:
        if strand_count < 1:
            raise DiagramError(f"strand count must be >= 1, got {strand_count}")
        for letter in letters:
            if letter == 0 or abs(letter) >= strand_count:
                raise DiagramError(f"letter {letter} out of range for {strand_count} strands")
        object.__setattr__(self, "strand_count", strand_count)
        object.__setattr__(self, "letters", letters)

    def _key(self) -> tuple:
        return self.strand_count, self.letters


_PD_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> PDCode:
    """Parse whitespace-separated X(a,b,c,d) tokens; empty input is the
    0-crossing unknot diagram."""
    s = text.strip()  # so every run of whitespace below ends at a token
    crossings = []
    pos = 0
    while pos < len(s):
        while s[pos].isspace():
            pos += 1
        m = _PD_TOKEN.match(s, pos)
        if not m:
            raise DiagramError(f"malformed PD token at offset {pos} in {text!r}")
        crossings.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    return PDCode.from_tuples(crossings)


def _succ(label: int, n: int) -> int:
    """Next arc label along the orientation, wrapping 2n -> 1."""
    return label % (2 * n) + 1


def _validate(crossings: tuple[tuple[int, int, int, int], ...]) -> tuple[int, ...]:
    n = len(crossings)
    if n == 0:
        return ()
    counts: dict[int, int] = {}
    for tup in crossings:
        if len(tup) != 4:
            raise DiagramError(f"crossing {tup} does not have 4 arc labels")
        for label in tup:
            counts[label] = counts.get(label, 0) + 1
    for label in range(1, 2 * n + 1):
        if counts.get(label, 0) != 2:
            raise DiagramError(
                f"arc {label} appears {counts.get(label, 0)} times, expected 2"
            )

    # Over-strand orientation per crossing.  b = d+1 means the over-strand
    # runs d -> b (positive crossing); d = b+1 means b -> d (negative).
    # Both hold only for n = 1, where {b, d} = {a, c}: the over-strand
    # must enter at the label the under-strand does not.
    signs: list[int] = []
    over_in: list[int] = []
    over_out: list[int] = []
    for a, b, c, d in crossings:
        if c != _succ(a, n):
            raise DiagramError(
                f"under-strand at X({a},{b},{c},{d}) must exit at {_succ(a, n)}, got {c}"
            )
        forward, backward = b == _succ(d, n), d == _succ(b, n)
        if not (forward or backward):
            raise DiagramError(
                f"over-strand labels {b},{d} at X({a},{b},{c},{d}) are not consecutive"
            )
        positive = d != a if forward and backward else forward
        signs.append(1 if positive else -1)
        over_in.append(d if positive else b)
        over_out.append(b if positive else d)
    heads = sorted([tup[0] for tup in crossings] + over_in)
    tails = sorted([tup[2] for tup in crossings] + over_out)
    if not heads == list(range(1, 2 * n + 1)) == tails:
        raise DiagramError("arc labeling is not a consistent single-knot traversal")
    return tuple(signs)


_BRAID_RE = re.compile(r"B(\d+)\s*:\s*(.*)$", re.DOTALL)


def parse_braid(text: str) -> BraidWord:
    """Parse the textual braid grammar "B<n>: i1 i2 ..."."""
    m = _BRAID_RE.match(text.strip())
    if not m:
        raise DiagramError(f"malformed braid word {text!r}, expected 'B<n>: i1 i2 ...'")
    strand_count = int(m.group(1))
    body = m.group(2).split()
    try:
        letters = tuple(int(tok) for tok in body)
    except ValueError as exc:
        raise DiagramError(f"malformed braid letter in {text!r}") from exc
    return BraidWord(strand_count, letters)


def check_knot_closure(braid: BraidWord) -> None:
    """Raise DiagramError unless the trace closure (strand i top joined to
    strand i bottom) is a knot: one cycle of the strand permutation."""
    m, letters = braid.strand_count, braid.letters
    n = len(letters)
    # Each crossing joins at most two cycles of the permutation, so more
    # strands than letters + 1 cannot close into a knot.
    if m > n + 1:
        raise DiagramError(f"braid closure has at least {m - n} components, expected a knot")
    perm = list(range(m))
    for letter in letters:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen: set[int] = set()
    cycles = 0
    for j in range(m):
        cycles += j not in seen
        while j not in seen:
            seen.add(j)
            j = perm[j]
    if cycles != 1:
        raise DiagramError(f"braid closure has {cycles} components, expected a knot")


def braid_to_pd(braid: BraidWord) -> PDCode:
    """PD code of the trace closure, which must be a knot
    (`check_knot_closure`).

    >>> str(braid_to_pd(parse_braid("B2: 1 1 1")))
    'X(1,5,2,4) X(5,3,6,2) X(3,1,4,6)'
    """
    check_knot_closure(braid)
    m, letters = braid.strand_count, braid.letters
    n = len(letters)
    if n == 0:
        return PDCode.from_tuples([])

    # Strands run downward and cross NW -> SE or NE -> SW.  below[k, p] is
    # the next crossing under crossing k at position p, wrapping to the top
    # (the trace closure).  The walk labels the stretches between crossings
    # 1..2n in the order it meets them, from the top of crossing 0's NW.
    column: list[list[int]] = [[] for _ in range(m)]
    for k, letter in enumerate(letters):
        column[abs(letter) - 1].append(k)
        column[abs(letter)].append(k)
    below = {(k, p): nxt for p, ks in enumerate(column) for k, nxt in zip(ks, ks[1:] + ks[:1])}
    nw, ne, sw, se = ([0] * n for _ in range(4))
    k, p = 0, abs(letters[0]) - 1
    for label in range(1, 2 * n + 1):
        left = abs(letters[k]) - 1
        if p == left:
            nw[k], se[k], p = label, _succ(label, n), left + 1
        else:
            ne[k], sw[k], p = label, _succ(label, n), left
        k = below[k, p]
    # A positive letter puts the NE->SW strand on top, which is a positive
    # crossing in the PD sign convention; negative letters mirror it.  The
    # tuple reads counterclockwise from the under-strand's entry, NW or NE.
    return PDCode.from_tuples(
        [
            (nw[k], sw[k], se[k], ne[k]) if letter > 0 else (ne[k], nw[k], sw[k], se[k])
            for k, letter in enumerate(letters)
        ]
    )


def seifert_circles(pd: PDCode) -> tuple[int, int]:
    """Count the circles of the orientation-respecting resolution and the
    genus upper bound (n - s + 1) / 2 of the resulting Seifert surface."""
    n = pd.crossing_count
    if n == 0:
        return 1, 0
    # The oriented smoothing sends each incoming label to the outgoing
    # label on the same side of the crossing; the circles are the cycles
    # of that permutation of the labels.
    turn: dict[int, int] = {}
    for (a, b, c, d), sign in zip(pd.crossings, pd.signs):
        if sign > 0:  # over-strand runs d -> b
            turn[a], turn[d] = b, c
        else:  # over-strand runs b -> d
            turn[a], turn[b] = d, c
    circles = 0
    while turn:
        circles += 1
        label = next(iter(turn))
        while label in turn:
            label = turn.pop(label)
    if (n - circles + 1) % 2 != 0:
        raise DiagramError("Seifert resolution gave an odd n - s + 1")
    return circles, (n - circles + 1) // 2
