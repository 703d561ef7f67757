"""Knot diagram input: PD codes, braid words, Wirtinger data, Seifert circles.

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

    crossings holds the raw tuples; signs[i] is +1/-1 per the b/d
    convention and over_in[i] is the arc entering crossing i on the
    over-strand.  The empty code is the 0-crossing unknot diagram.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]
    over_in: tuple[int, ...]

    @staticmethod
    def from_tuples(crossings: list[tuple[int, int, int, int]] | tuple) -> PDCode:
        crossings = tuple(tuple(c) for c in crossings)
        signs, over_in = _validate(crossings)
        return PDCode(crossings, signs, over_in)

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


class WirtingerPresentation(NamedTuple):
    """Meridian generators, one per arc of the diagram, with one
    conjugation relation x_out = x_over^sign * x_in * x_over^-sign per
    crossing."""

    generator_count: int
    relations: tuple[tuple[int, int, int, int], ...]  # (out, over, in, sign)


_PD_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> PDCode:
    """Parse whitespace-separated X(a,b,c,d) tokens; empty input is the
    0-crossing unknot diagram."""
    s = text.strip()
    if not s:
        return PDCode.from_tuples([])
    crossings = []
    pos = 0
    while pos < len(s):
        while pos < len(s) and s[pos].isspace():
            pos += 1
        if pos >= len(s):
            break
        m = _PD_TOKEN.match(s, pos)
        if not m:
            raise DiagramError(f"malformed PD token at offset {pos} in {text!r}")
        crossings.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    return PDCode.from_tuples(crossings)


def _succ(label: int, n: int) -> int:
    """Next arc label along the orientation, wrapping 2n -> 1."""
    return label % (2 * n) + 1


def _disjoint_sets(size: int):
    """find and union over 0..size-1, with path halving; union(x, y)
    puts x's root under y's root."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    return find, union


def _validate(crossings: tuple[tuple[int, int, int, int], ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = len(crossings)
    if n == 0:
        return (), ()
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
    return tuple(signs), tuple(over_in)


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


def braid_to_pd(braid: BraidWord) -> PDCode:
    """PD code of the trace closure (strand i top joined to strand i
    bottom).  The closure must be a knot: one permutation cycle."""
    m = braid.strand_count
    # Each crossing joins at most two cycles of the permutation, so more
    # strands than letters + 1 cannot close into a knot.
    if m > len(braid.letters) + 1:
        raise DiagramError(
            f"braid closure has at least {m - len(braid.letters)} components, expected a knot"
        )
    perm = list(range(m))
    for letter in braid.letters:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = set()
    cycles = 0
    for start in range(m):
        if start in seen:
            continue
        cycles += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
    if cycles != 1:
        raise DiagramError(f"braid closure has {cycles} components, expected a knot")
    if not braid.letters:
        return PDCode.from_tuples([])

    # Wire the diagram: edge ids flow top to bottom, positions 0..m-1.
    # Each crossing records its four port edges; the trace closure
    # identifies bottom edges with the top edges of the same position.
    next_edge = m
    position_edge = list(range(m))
    ports = []  # per crossing: dict NW/NE/SW/SE -> edge id
    for letter in braid.letters:
        i = abs(letter) - 1
        nw, ne = position_edge[i], position_edge[i + 1]
        sw, se = next_edge, next_edge + 1
        next_edge += 2
        ports.append({"NW": nw, "NE": ne, "SW": sw, "SE": se})
        position_edge[i], position_edge[i + 1] = sw, se

    find, union = _disjoint_sets(next_edge)
    for pos in range(m):
        union(position_edge[pos], pos)

    # Orientation: strands run downward; both strands cross NW->SE and
    # NE->SW.  A positive letter puts the NE->SW strand on top, which is
    # a positive crossing in the PD sign convention; negative letters
    # mirror it.
    exits: dict[int, tuple[int, str]] = {}  # entering edge -> (crossing, out port)
    for idx, (letter, port) in enumerate(zip(braid.letters, ports)):
        exits[find(port["NW"])] = (idx, "SE")
        exits[find(port["NE"])] = (idx, "SW")

    start_edge = find(ports[0]["NW"])
    labels: dict[int, int] = {}
    edge = start_edge
    for label in range(1, 2 * len(braid.letters) + 1):
        labels[edge] = label
        crossing, out_port = exits[edge]
        edge = find(ports[crossing][out_port])
    if edge != start_edge or len(labels) != 2 * len(braid.letters):
        raise DiagramError("braid traversal did not close into a single knot")

    tuples = []
    for letter, port in zip(braid.letters, ports):
        nw = labels[find(port["NW"])]
        ne = labels[find(port["NE"])]
        sw = labels[find(port["SW"])]
        se = labels[find(port["SE"])]
        if letter > 0:
            tuples.append((nw, sw, se, ne))  # under NW->SE; CCW from NW
        else:
            tuples.append((ne, nw, sw, se))  # under NE->SW; CCW from NE
    return PDCode.from_tuples(tuples)


def wirtinger(pd: PDCode) -> WirtingerPresentation:
    """One meridian generator per arc (maximal overpass), one conjugation
    relation per crossing.  The 0-crossing unknot gives one free generator."""
    n = pd.crossing_count
    if n == 0:
        return WirtingerPresentation(1, ())
    find, union = _disjoint_sets(2 * n + 1)  # labels 1..2n; 0 unused
    for o_in in pd.over_in:
        union(_succ(o_in, n), o_in)  # over passage keeps the same arc
    roots = sorted({find(label) for label in range(1, 2 * n + 1)})
    arc_index = {root: i for i, root in enumerate(roots)}

    relations = []
    for (a, _, c, _), sign, o_in in zip(pd.crossings, pd.signs, pd.over_in):
        relations.append(
            (arc_index[find(c)], arc_index[find(o_in)], arc_index[find(a)], sign)
        )
    return WirtingerPresentation(len(roots), tuple(relations))


def seifert_circles(pd: PDCode) -> tuple[int, int]:
    """Count the circles of the orientation-respecting resolution and the
    genus upper bound (n - s + 1) / 2 of the resulting Seifert surface."""
    n = pd.crossing_count
    if n == 0:
        return 1, 0
    find, union = _disjoint_sets(2 * n + 1)  # labels 1..2n; 0 unused
    # The oriented smoothing joins each incoming arc to the outgoing arc
    # on the same side of the crossing.
    for (a, b, c, d), sign in zip(pd.crossings, pd.signs):
        if sign > 0:  # over-strand runs d -> b
            union(a, b)
            union(d, c)
        else:  # over-strand runs b -> d
            union(a, d)
            union(b, c)
    circles = len({find(label) for label in range(1, 2 * n + 1)})
    if (n - circles + 1) % 2 != 0:
        raise DiagramError("Seifert resolution gave an odd n - s + 1")
    return circles, (n - circles + 1) // 2
