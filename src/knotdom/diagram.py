"""Knot diagram input: PD codes, braid words, Seifert circles, and the
braid word a closed-braid PD code draws (`closed_braid`).

A planar diagram (PD) code lists one 4-tuple of arc labels per crossing.
Labels run 1..2n consecutively along the knot's orientation (wrapping
2n -> 1), each label appearing exactly twice.  A tuple (a, b, c, d) reads
counterclockwise starting at the incoming under-strand a; the under-strand
exits at c = a+1.  The over-strand occupies b and d: the crossing is
positive when b = d+1 and negative when d = b+1.  `PDCode(crossings)`
checks all this for one component, and planarity; `BraidWord(...)`
checks that its trace closure is a knot.
"""
from __future__ import annotations

import re

from .laurent import _Frozen


class DiagramError(ValueError):
    """Raised for malformed or non-knot diagram input."""


class PDCode(_Frozen):
    """A validated PD code: one tuple of int labels per crossing, with
    signs[i] (+1/-1 per the b/d convention) derived by the constructor.
    The empty code is the 0-crossing unknot diagram."""

    __slots__ = ("crossings", "signs")

    def __init__(self, crossings: list[tuple[int, int, int, int]] | tuple) -> None:
        crossings = tuple(tuple(c) for c in crossings)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "signs", _validate(crossings))

    def _key(self) -> tuple:
        return self.crossings

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        return sum(self.signs)

    def mirror(self) -> PDCode:
        """Swap over and under strands at every crossing."""
        return PDCode([(a, d, c, b) for a, b, c, d in self.crossings])

    def __str__(self) -> str:
        return " ".join(f"X({a},{b},{c},{d})" for a, b, c, d in self.crossings)

    def __repr__(self) -> str:
        return f"PDCode({self.crossings!r})"


class BraidWord(_Frozen):
    """A braid word whose trace closure is a knot: letter i stands for the
    generator sigma_|i| with sign(i) as the crossing sign."""

    __slots__ = ("strand_count", "letters")

    def __init__(self, strand_count: int, letters: tuple[int, ...] | list[int]) -> None:
        letters = tuple(letters)
        if strand_count < 1:
            raise DiagramError(f"strand count must be >= 1, got {strand_count}")
        for letter in letters:
            if letter == 0 or abs(letter) >= strand_count:
                raise DiagramError(f"letter {letter} out of range for {strand_count} strands")
        # Each crossing joins at most two cycles of the strand permutation,
        # so more strands than letters + 1 cannot close into a knot.
        if (idle := strand_count - len(letters)) > 1:
            raise DiagramError(f"braid closure has at least {idle} components, expected a knot")
        perm = list(range(strand_count))
        for letter in letters:
            i = abs(letter) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        cycles = 0
        for j in range(strand_count):  # a cycle's strands are marked -1 as it is walked
            cycles += perm[j] >= 0
            while perm[j] >= 0:
                perm[j], j = -1, perm[j]
        if cycles != 1:
            raise DiagramError(f"braid closure has {cycles} components, expected a knot")
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
    return PDCode(crossings)


def _succ(label: int, n: int) -> int:
    """Next arc label along the orientation, wrapping 2n -> 1."""
    return label % (2 * n) + 1


def _validate(crossings: tuple[tuple[int, int, int, int], ...]) -> tuple[int, ...]:
    n = len(crossings)
    counts: dict[int, int] = {}
    for tup in crossings:
        if len(tup) != 4:
            raise DiagramError(f"crossing {tup} does not have 4 arc labels")
        for label in tup:
            if type(label) is not int:
                raise DiagramError(f"arc label {label!r} in crossing {tup} is not an int")
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

    # Faces, on slots 4i + j (position j of crossing i): cross to the other
    # end of the slot's label, then turn to the next slot of that crossing.
    # The one component makes the code connected, so with n vertices and
    # 2n edges it is planar exactly when it has n + 2 faces (Euler).
    flat = [label for tup in crossings for label in tup]
    ends = [0] * (2 * n + 1)  # the sum of each label's two slots
    for slot, label in enumerate(flat):
        ends[label] += slot
    unseen = [True] * (4 * n)
    faces = 0
    for slot in range(4 * n):
        faces += unseen[slot]
        while unseen[slot]:
            unseen[slot] = False
            slot = ends[flat[slot]] - slot
            slot += 1 if slot % 4 < 3 else -3
    if n and faces != n + 2:
        raise DiagramError(f"PD code is not planar: {faces} faces, expected {n + 2}")
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


def braid_to_pd(braid: BraidWord) -> PDCode:
    """PD code of the trace closure (strand i top to strand i bottom).

    >>> str(braid_to_pd(parse_braid("B2: 1 1 1")))
    'X(1,5,2,4) X(5,3,6,2) X(3,1,4,6)'
    """
    m, letters = braid.strand_count, braid.letters
    n = len(letters)
    if n == 0:
        return PDCode([])

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
    return PDCode(
        [
            (nw[k], sw[k], se[k], ne[k]) if letter > 0 else (ne[k], nw[k], sw[k], se[k])
            for k, letter in enumerate(letters)
        ]
    )


def seifert_circles(pd: PDCode) -> tuple[int, int]:
    """Count the circles s of the oriented resolution and the genus bound
    (n - s + 1) / 2 of its Seifert surface.  A PDCode is one oriented
    component, so the surface is connected with one boundary: s - n = 1 - 2g."""
    n = pd.crossing_count
    circles = len(_smoothing(pd)[1]) if n else 1
    return circles, (n - circles + 1) // 2


def _smoothing(pd: PDCode) -> tuple[list[int], list[list[int]]]:
    """Walk the oriented smoothing, which sends each incoming label to the
    outgoing label on the same side of its crossing; its cycles are the
    Seifert circles.  Returns the circle of each smoothing arc, at 2k + 1
    for the left arc of crossing k and 2k for the right one, and each
    circle's crossings in the order it meets them.  The left arc runs
    d -> c on a positive crossing (over-strand d -> b) and a -> d on a
    negative one (over-strand b -> d)."""
    n = pd.crossing_count
    turn = [0] * (2 * n + 1)
    slot = [0] * (2 * n + 1)  # the arc each incoming label takes
    for k, (a, b, c, d) in enumerate(pd.crossings):
        if pd.signs[k] > 0:
            turn[a], turn[d], slot[a], slot[d] = b, c, 2 * k, 2 * k + 1
        else:
            turn[a], turn[b], slot[a], slot[b] = d, c, 2 * k + 1, 2 * k
    circle_of = [0] * (2 * n)
    sequences: list[list[int]] = []
    for label in range(1, 2 * n + 1):
        if turn[label]:
            sequence = []
            while turn[label]:
                arc = slot[label]
                circle_of[arc] = len(sequences)
                sequence.append(arc >> 1)
                turn[label], label = 0, turn[label]
            sequences.append(sequence)
    return circle_of, sequences


def closed_braid(pd: PDCode) -> BraidWord | None:
    """The braid word whose trace closure the diagram draws, one strand
    per Seifert circle, or None when the diagram is not a closed braid.
    The closure is the diagram up to isotopy of the sphere, so the word
    closes into the same oriented knot.

    The walk of the oriented smoothing (`_smoothing`) gives each Seifert
    circle as the cyclic sequence of crossings it meets, and the circles
    of each crossing's left and right arcs, which run side by side.  The
    code is a closed braid exactly when no circle meets two different
    circles on its left, nor two on its right (Yamada, Invent. Math. 89,
    1987: the circles are then coherently nested):

    - The Seifert circles are disjoint simple closed curves on the sphere,
      since `PDCode` checks planarity, and a circle met on C's left lies in
      the component of the complement of C on its left (Jordan).  So no
      circle is its own neighbour or both neighbours of one circle, and
      with at most one neighbour per side the circles form one chain (a
      knot diagram is connected) or one cycle.  A cycle C_0, ..., C_(k-1),
      each met on the left of the one before, cannot occur: C_2, ...,
      C_(k-1) are joined to C_1 by crossings that C_0 does not meet, so
      they lie on C_0's left with C_1, while C_(k-1) meets C_0 on C_0's
      right.
    - Along the chain C_0, ..., C_(m-1), C_0 with no circle on its right,
      each circle separates the circles before it from those after it, so
      the circles nest coaxially and alike oriented, and every crossing
      lies in the annulus between two neighbours C_i and C_(i+1): it is
      the letter (i + 1) sign.  Two neighbours meet their shared
      crossings in the same cyclic order.
    - The word starts as C_1's sequence, which holds every crossing of
      C_0 too.  Each next circle's sequence is rotated to start at the
      first crossing it shares with the word so far, and its other
      crossings are inserted in order between the shared ones.  The word
      then keeps every circle's sequence, cut just before its first
      crossing in the word, and those cuts join into one path from C_0 to
      C_(m-1) that passes no crossing: the word reads the cut-open braid.

    >>> closed_braid(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")).letters
    (-1, -1, -1)
    """
    n = pd.crossing_count
    if not n:
        return BraidWord(1, ())
    circle_of, sequences = _smoothing(pd)
    m = len(sequences)
    left_of, right_of = [-1] * m, [-1] * m
    for k in range(n):
        right, left = circle_of[2 * k], circle_of[2 * k + 1]
        if left_of[right] != left:
            if left_of[right] >= 0:
                return None
            left_of[right] = left
        if right_of[left] != right:
            if right_of[left] >= 0:
                return None
            right_of[left] = right
    level = [0] * m
    circle = left_of[right_of.index(-1)]
    level[circle] = 1
    word = sequences[circle]
    for i in range(2, m):
        circle = left_of[circle]
        level[circle] = i
        sequence = sequences[circle]
        start = sequence.index(next(k for k in word if circle_of[2 * k + 1] == circle))
        merged, j = [], 0
        for k in sequence[start:] + sequence[:start]:
            if circle_of[2 * k + 1] == circle:  # shared with the word
                at = word.index(k, j) + 1
                merged += word[j:at]
                j = at
            else:
                merged.append(k)
        word = merged + word[j:]
    return BraidWord(m, tuple([(level[circle_of[2 * k]] + 1) * pd.signs[k] for k in word]))
