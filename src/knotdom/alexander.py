"""Alexander and Jones polynomials from diagram data.

The Alexander polynomial of a PD code is computed classically: Fox
derivatives of the Wirtinger relations with every meridian abelianized to
t, one relation row and one generator column deleted, written row by row
in one walk along the diagram (`alexander_rows`).  Every entry of that
minor is linear in t, so its determinant is taken without polynomial
arithmetic: evaluated once, at t = 2^b over Z, by one sparse fraction-free
elimination (Bareiss), with b chosen from Hadamard's bound so that every
coefficient is below 2^(b-1) in absolute value, and read off the value as
balanced base-2^b digits (`linear_determinant`).  A braid word takes the
reduced Burau representation instead, det(I - psi(beta)) = (1 + t + ... +
t^(m-1)) delta(t) up to a unit: its (m-1) x (m-1) matrix is kept at the
same kind of evaluation point, each letter rewrites one column by shifts
and adds, and the same elimination and digit reading finish it
(`braid_alexander_polynomial`); the input kind alone picks the kernel.
The Jones polynomial comes from the
Kauffman bracket with the writhe correction (-A^3)^-w and the
substitution t = A^-4, applied in one pass over the bracket's terms.  The
bracket is computed by a frontier sweep: crossings are contracted one at
a time, in a greedy order kept up to date crossing by crossing, keeping
one polynomial per planar matching of the open arc ends, as in
Bar-Natan's tangle contraction for Khovanov homology (arXiv
math/0606318).  Each of those polynomials is one integer, its value at
A = 2^b (the same Kronecker substitution, `kauffman_bracket`).
"""
from __future__ import annotations

from operator import itemgetter

from .diagram import BraidWord, PDCode, _succ, check_knot_closure
from .laurent import LaurentPoly

# `jones_polynomial` returns None above this many crossings, which keeps
# the `invariants` output of larger diagrams unchanged (no `jones` field).
# The sweep would be fast there too: its work follows the widest frontier,
# not the crossing count (under 1 ms per bracket on closures of 2- and
# 3-braids of 25 to 41 crossings, 4 or 6 open ends, in CPython 3.11).
JONES_CROSSING_BUDGET = 24


def alexander_rows(pd: PDCode) -> list[dict[int, tuple[int, int]]]:
    """Square presentation matrix of the Alexander module, written in one
    walk along the diagram, as sparse rows {column: (c0, c1)} meaning
    c0 + c1 t.

    Arcs (maximal overpasses) are numbered along the orientation: arc 0
    starts at label c of crossing 0, and a new arc starts after each label
    that enters a crossing as its under-strand a.  Each crossing's
    Wirtinger relation says that the meridian of the arc leaving at c is
    that of the arc entering at a, conjugated by the over-arc's (d on a
    positive crossing, b on a negative one).  Its row holds the relation's
    Fox derivatives with every meridian abelianized to t, at the in, over
    and out arcs: t, 1 - t and -1 on a positive crossing, and t^-1,
    1 - t^-1 and -1 times the unit -t on a negative one, so that every
    entry lies in Z[t].  The last crossing's row and the last arc's column
    are left out (the normalized determinant does not depend on the
    choice).  Below, the arcs are {2, 3}, {4, 5} and {6, 1}:

    >>> from knotdom.diagram import parse_pd
    >>> alexander_rows(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"))
    [{1: (1, -1), 0: (0, 1)}, {0: (-1, 0), 1: (0, 1)}]
    """
    n = pd.crossing_count
    if n == 0:
        return []
    under_in = {a for a, _, _, _ in pd.crossings}
    arc_of = [0] * (2 * n + 1)  # labels 1..2n; 0 unused
    arc, label = 0, pd.crossings[0][2]
    for _ in range(2 * n):
        arc_of[label] = arc
        arc += label in under_in
        label = _succ(label, n)
    last = n - 1
    rows = []
    for (a, b, c, d), sign in zip(pd.crossings[:-1], pd.signs):
        inp, out = arc_of[a], arc_of[c]
        if sign > 0:
            contributions = ((inp, 0, 1), (arc_of[d], 1, -1), (out, -1, 0))
        else:
            contributions = ((inp, -1, 0), (arc_of[b], 1, -1), (out, 0, 1))
        row: dict[int, tuple[int, int]] = {}
        for col, c0, c1 in contributions:
            if col != last:
                e0, e1 = row.get(col, (0, 0))
                row[col] = (e0 + c0, e1 + c1)
        rows.append({col: entry for col, entry in row.items() if entry != (0, 0)})
    return rows


def linear_determinant(rows: list[dict[int, tuple[int, int]]]) -> LaurentPoly:
    """Exact determinant of a square integer matrix whose entries are
    linear in t, given as sparse rows {column: (c0, c1)}.

    The determinant is evaluated once, at t = X = 2^b over Z, and its
    coefficients are read off det M(X) as balanced base-X digits
    (Kronecker substitution).  Each coefficient is a Fourier coefficient
    of det M(t) on the unit circle, so by Hadamard's inequality it is at
    most H^(1/2), H the product over the rows of sum_j (|c0| + |c1|)^2;
    b is the least with X^2 > 4H, so every coefficient lies below X / 2
    in absolute value and the digits are exact.  det M(X) itself comes
    from one sparse fraction-free elimination (`_bareiss`).
    """
    n = len(rows)
    if any(not 0 <= col < n for row in rows for col in row):
        raise ValueError("determinant of a non-square matrix")
    bound = 4
    for row in rows:
        bound *= sum((abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values())
    b = (bound.bit_length() + 1) // 2
    x = 1 << b
    return _balanced_digits(_bareiss([{col: c0 + c1 * x for col, (c0, c1) in row.items()} for row in rows]), b)


def _balanced_digits(value: int, b: int, exp: int = 0) -> LaurentPoly:
    """The Laurent polynomial whose coefficients are the balanced base-2^b
    digits of `value`, each in [-2^(b-1), 2^(b-1)), the lowest one at t^exp.
    A run of zero digits is skipped in one shift."""
    x = 1 << b
    mask, half = x - 1, x >> 1
    terms = []
    while value:
        zeros = ((value & -value).bit_length() - 1) // b
        value >>= zeros * b
        exp += zeros
        digit = ((value + half) & mask) - half
        terms.append((exp, digit))
        value = (value - digit) >> b
        exp += 1
    return LaurentPoly(tuple(terms))


def _bareiss(rows: list[dict[int, int]]) -> int:
    """Determinant of a square integer matrix given as sparse rows
    {column: value}, by fraction-free elimination (Bareiss, Math. Comp.
    22, 1968).  Each step pivots on the shortest live row and, within it,
    on the column held by the fewest live rows (Markowitz, 1957).  Step k,
    with pivot p_k, updates each row holding the pivot column as
    a <- (p_k a - f v) / p_(k-1), f the row's entry in the pivot column
    and v the pivot row's; the other rows would only be scaled by
    p_k / p_(k-1), so they are left alone.  Each row keeps its lag s, the
    last step that updated it (p_0 = 1): its true entries are its stored
    ones times p_(k-1) / p_s, so its update divides by p_s instead, and as
    the pivot row it is first scaled up.  Every division is exact.  A row
    that turns empty makes the determinant 0."""
    live = dict(enumerate(rows))
    holders: dict[int, set[int]] = {}
    for i, row in live.items():
        for col in row:
            holders.setdefault(col, set()).add(i)
    lags = [0] * len(rows)
    pivots = [1]
    order = []
    while live:
        i = min(live, key=lambda k: len(live[k]))
        row = live.pop(i)
        if not row:
            return 0
        col = min(row, key=lambda c: len(holders[c]))
        order.append((i, col))
        for c in row:
            holders[c].discard(i)
        if lags[i] < len(pivots) - 1:
            row = {c: value * pivots[-1] // pivots[lags[i]] for c, value in row.items()}
        pivot = row.pop(col)
        for k in holders.pop(col):
            other = live[k]
            divisor = pivots[lags[k]]
            lags[k] = len(pivots)
            factor = other.pop(col)
            updated = {c: value * pivot // divisor for c, value in other.items() if c not in row}
            for c, value in row.items():
                entry = (other.get(c, 0) * pivot - factor * value) // divisor
                if entry:
                    updated[c] = entry
                    holders[c].add(k)
                else:
                    holders[c].discard(k)
            live[k] = updated
        pivots.append(pivot)
    return _permutation_sign(order) * pivots[-1]


def _permutation_sign(pivots: list[tuple[int, int]]) -> int:
    """Sign of the permutation taking each pivot row to its pivot column."""
    image = [0] * len(pivots)
    for i, col in pivots:
        image[i] = col
    sign = 1
    for i in range(len(image)):
        while image[i] != i:
            j = image[i]
            image[i], image[j] = image[j], j
            sign = -sign
    return sign


def alexander_polynomial(pd: PDCode) -> LaurentPoly:
    """Normalized Alexander polynomial of the diagram.  Satisfies
    delta(1) = +-1 and has palindromic coefficients."""
    return linear_determinant(alexander_rows(pd)).normalize()


def braid_alexander_polynomial(braid: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the braid's closure, which must
    be a knot, from the reduced Burau representation psi of the m-strand
    braid group: det(I - psi(beta)) = (1 + t + ... + t^(m-1)) delta(t) up
    to a unit +-t^s (Burau 1936; Birman, *Braids, Links, and Mapping
    Class Groups*, Thm. 3.11).

    The (m-1) x (m-1) matrix S = X^k psi(beta)(X) is kept as integers,
    column by column, at X = 2^b, k the word's count of negative letters.
    psi(sigma_i^(+-1)) differs from the identity in column i only, so a
    letter rewrites column c = i - 1 from its neighbours (zero past the
    ends):

    - sigma_i sets col_c <- X (col_(c-1) - col_c) + col_(c+1), a shift left;
    - sigma_i^-1 sets col_c <- col_(c-1) + (col_(c+1) - col_c) / X, a shift
      right that is exact: before the j-th negative letter every entry of
      psi of the letters read so far is a Laurent polynomial of lowest
      degree >= 1 - j >= 1 - k, so X^k times its value at X is a multiple
      of X.

    Then det(X^k I - S) = X^(k(m-1)) det(I - psi(X)) is an integer multiple
    U(X) of (X^m - 1) / (X - 1), U = +-t^s delta with every exponent >= 0
    (the cofactor 1 + t + ... has constant term 1).  Before the
    determinant each column of X^k I - S is divided by the highest power
    of X that divides all of it, which divides det and U(X) by the same
    X^v (the cofactor is odd) and keeps the elimination's integers small.
    The determinant is one sparse fraction-free elimination (`_bareiss`)
    of the columns taken as rows, whose work stays polynomial in the
    strand count, unlike a cofactor expansion.  U(X) / X^v is read off as
    balanced base-X digits, which are exact because:

    - delta is also the determinant of the Fox minor of the closure's
      n-crossing diagram (`alexander_rows`): n - 1 rows, each of L1 norm at
      most 4 in its coefficients, so |delta(t)| <= 4^(n-1) on |t| = 1 by
      Hadamard's inequality, and every coefficient, a Fourier coefficient
      of delta on the unit circle, is at most 2^(2n-2);
    - with b = 2n that is below X / 2, so U(X) = sum c_e X^e is the
      balanced digit expansion, and since X^v divides it, its digits below
      X^v vanish (a lowest nonzero digit d X^e has 2-adic valuation below
      (e + 1) b), and U(X) / X^v has the same digits, shifted.
    """
    check_knot_closure(braid)
    m, letters = braid.strand_count, braid.letters
    size = m - 1
    if not size:
        return LaurentPoly.const(1)
    b = 2 * len(letters)
    one = 1 << b * sum(letter < 0 for letter in letters)
    zero = [0] * size
    cols = [zero] + [[one if r == c else 0 for r in range(size)] for c in range(size)] + [zero]
    for letter in letters:  # sigma_i rewrites column i of the padded list
        i = abs(letter)
        left, col, right = cols[i - 1 : i + 2]
        if letter > 0:
            cols[i] = [((u - v) << b) + w for u, v, w in zip(left, col, right)]
        else:
            cols[i] = [u + ((w - v) >> b) for u, v, w in zip(left, col, right)]
    rows = []
    for c, col in enumerate(cols[1:-1]):
        col = [-v for v in col]
        col[c] += one
        low = min(((v & -v).bit_length() - 1) // b for v in col if v) * b
        rows.append({r: v >> low for r, v in enumerate(col) if v})
    return _balanced_digits(_bareiss(rows) // (((1 << m * b) - 1) // ((1 << b) - 1)), b).normalize()


def determinant_invariant(delta: LaurentPoly) -> int:
    """|delta(-1)|, the order of the first homology of the double branched
    cover."""
    return abs(delta.eval_int(-1))


def connected_sum_delta(*deltas: LaurentPoly) -> LaurentPoly:
    """Alexander polynomial of a connected sum: the product of the
    summands' polynomials, normalized once."""
    product = LaurentPoly.const(1)
    for delta in deltas:
        product = product * delta
    return product.normalize()


def satellite_delta(pattern: LaurentPoly, companion: LaurentPoly, winding: int) -> LaurentPoly:
    """Alexander polynomial of a satellite with the given pattern and
    companion polynomials: pattern(t) * companion(t^winding).  Winding 0
    returns the pattern since companion(1) = +-1."""
    if winding < 0:
        raise ValueError(f"winding number must be >= 0, got {winding}")
    return (pattern * companion.substitute_power(winding)).normalize()


def kauffman_bracket(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket in the variable A by a frontier sweep.

    Crossings are contracted one at a time, in the order of
    `_sweep_order`.  Each state is a planar matching of the open arc ends
    (the labels seen once so far) with its polynomial in A.  A crossing
    (a,b,c,d) branches every state into the A-smoothing, which joins
    (a,b) and (c,d) with weight A, and the B-smoothing, which joins (a,d)
    and (b,c) with weight A^-1; each loop that closes multiplies by
    delta = -A^2 - A^-2, except the last, as in the state sum
    A^(#A - #B) * delta^(k-1).  The work grows with the number of
    matchings of the widest frontier, not with 2^n.

    Every state holds its polynomial as one integer, its value at
    A = X = 2^b times X^(3n) (Kronecker substitution, as in
    `linear_determinant`): the A-smoothing is a shift left by b bits, the
    B-smoothing a shift right, and a closed loop takes q to
    -(q X^2 + q X^-2).  The matchings of one frontier all open the same
    labels, so a state is keyed by the far ends of those labels in a fixed
    order.  The shifts right are exact and the digits readable because:

    - A full state has k <= n + 1 loops: they bound a connected surface
      of k disks and n bands, of Euler characteristic k - n <= 1.  Until the last crossing the frontier is not empty (the
      knot runs through the swept crossings and the others), so at least
      one loop of every completion is still open and at most n are
      closed.  Every monomial of a state over m crossings, with or without
      the loops its last crossing closed, is therefore A^e with
      e >= -m - 2n >= -3n, and after the factor X^(3n) every exponent is
      >= 0: each shift right by k b bits yields such a state, so it divides
      a multiple of X^k by X^k.
    - The bracket sums at most 2^n terms A^(#A - #B) delta^(k-1), each of
      L1 norm 2^(k-1) <= 2^n, so every coefficient lies within 2^(2n) of 0.
      With b = 2n + 2 that is below X / 2, and the coefficients are the
      balanced base-X digits of the final value.
    """
    n = pd.crossing_count
    if not n:
        return LaurentPoly.const(1)
    bits, offset = 2 * n + 2, 3 * n
    states: dict[tuple, list] = {(): [{}, 1 << offset * bits]}
    frontier: set[int] = set()
    for a, b, c, d in _sweep_order(pd.crossings):
        for x in (a, b, c, d):  # a label seen twice leaves the frontier
            if x in frontier:
                frontier.remove(x)
            else:
                frontier.add(x)
        key_of = itemgetter(*frontier) if frontier else lambda ends: ()
        swept: dict[tuple, list] = {}
        for ends, q in states.values():
            _smooth(swept, key_of, ends.copy(), q << bits, bits, a, b, c, d)
            _smooth(swept, key_of, ends, q >> bits, bits, a, d, b, c)
        states = swept
    ((_, value),) = states.values()
    return _balanced_digits(value, bits, -offset)


def _smooth(
    swept: dict[tuple, list], key_of, ends: dict[int, int], value: int, bits: int, x: int, y: int, z: int, w: int
) -> None:
    """Add one smoothing of a state to `swept`: join the arc ends x-y and
    z-w in `ends`, which it takes over, and multiply `value`, already
    weighted, by delta for each loop this closes (but the last)."""
    loops = _join(ends, x, y) + _join(ends, z, w)
    if not ends:
        loops -= 1
    if loops == 1:
        value = -((value << 2 * bits) + (value >> 2 * bits))
    elif loops == 2:
        value = (value << 4 * bits) + (value << 1) + (value >> 4 * bits)
    key = key_of(ends)
    entry = swept.get(key)
    if entry is None:
        swept[key] = [ends, value]
    else:
        entry[1] += value


def _join(ends: dict[int, int], x: int, y: int) -> int:
    """Join arc ends x and y in the matching `ends` (each open end maps to
    the far end of its path).  A label already open closes, and its path
    extends to the far end.  Returns 1 when the join closes a loop."""
    if x == y or ends.get(x) == y:
        ends.pop(x, None)
        ends.pop(y, None)
        return 1
    far_x = ends.pop(x, x)
    far_y = ends.pop(y, y)
    ends[far_x] = far_y
    ends[far_y] = far_x
    return 0


def _sweep_order(crossings):
    """Greedy contraction order: next, the crossing with the most arc
    labels on the open frontier; ties go to the lower index.

    A crossing's score is its label slots whose other slot lies in a swept
    crossing.  Every label has two slots, so a label leaves the frontier
    only at a crossing already swept: sweeping a crossing adds one to the
    score of the crossing at the other slot of each of its labels, and no
    score ever falls."""
    others: list[list[int]] = [[] for _ in crossings]
    first: dict[int, int] = {}
    for i, crossing in enumerate(crossings):
        for x in crossing:
            j = first.pop(x, None)
            if j is None:
                first[x] = i
            else:
                others[i].append(j)
                others[j].append(i)
    score = [0] * len(crossings)
    remaining = list(range(len(crossings)))
    order = []
    while remaining:
        best = max(remaining, key=score.__getitem__)  # the first, so the lowest index
        remaining.remove(best)
        order.append(crossings[best])
        for j in others[best]:
            score[j] += 1
    return order


def jones_polynomial(pd: PDCode) -> LaurentPoly | None:
    """Jones polynomial via the normalized Kauffman bracket, or None for a
    diagram over the crossing budget at the top of this module.

    The value depends on diagram chirality (mirroring swaps t and t^-1);
    it is reported exactly as computed, without normalization.
    """
    if pd.crossing_count > JONES_CROSSING_BUDGET:
        return None
    w = pd.writhe()
    sign = -1 if w % 2 else 1
    terms = []
    for e, c in reversed(kauffman_bracket(pd).terms):  # times (-A^3)^-w, then t = A^-4
        e -= 3 * w
        if e % 4 != 0:
            raise ArithmeticError("corrected bracket exponent not a multiple of 4")
        terms.append((-e // 4, sign * c))
    return LaurentPoly(tuple(terms))
