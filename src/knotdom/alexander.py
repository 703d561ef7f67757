"""Alexander and Jones polynomials from diagram data.

The Alexander polynomial is computed classically: Fox derivatives of the
Wirtinger relations with every meridian abelianized to t, one relation row
and one generator column deleted.  Every entry of that minor is linear in
t, so its determinant is taken without polynomial arithmetic: evaluated
once, at t = 2^b over Z, by one sparse fraction-free elimination
(Bareiss), with b chosen from Hadamard's bound so that every coefficient
is below 2^(b-1) in absolute value, and read off the value as balanced
base-2^b digits (`linear_determinant`).  The Jones polynomial comes from the
Kauffman bracket with the writhe correction (-A^3)^-w and the
substitution t = A^-4.  The bracket is computed by a frontier sweep:
crossings are contracted one at a time, keeping one polynomial per
planar matching of the open arc ends, as in Bar-Natan's tangle
contraction for Khovanov homology (arXiv math/0606318).
"""
from __future__ import annotations

from .diagram import DiagramError, PDCode, WirtingerPresentation, wirtinger
from .laurent import LaurentPoly

# Diagrams above this many crossings get no computed Jones polynomial.
# The sweep would be fast there too; the budget keeps the `invariants`
# output of larger diagrams unchanged (no `jones` field).
JONES_CROSSING_BUDGET = 24


def alexander_rows(pres: WirtingerPresentation) -> list[dict[int, tuple[int, int]]]:
    """Square presentation matrix of the Alexander module as sparse rows
    {column: (c0, c1)}, meaning c0 + c1 t: Fox derivatives of the relations
    with each generator abelianized to t, without the last relation row
    and the last generator column (the normalized determinant is
    independent of the choice).  Rows for negative crossings are scaled
    by the unit -t so every entry lies in Z[t]."""
    last = pres.generator_count - 1
    rows = []
    for out, over, inp, sign in pres.relations[:-1]:
        if sign > 0:
            contributions = ((inp, 0, 1), (over, 1, -1), (out, -1, 0))
        else:
            contributions = ((inp, -1, 0), (over, 1, -1), (out, 0, 1))
        row: dict[int, tuple[int, int]] = {}
        for col, c0, c1 in contributions:
            if col != last:
                a, b = row.get(col, (0, 0))
                row[col] = (a + c0, b + c1)
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
    value = _bareiss([{col: c0 + c1 * x for col, (c0, c1) in row.items()} for row in rows])
    mask, half = x - 1, x >> 1
    coeffs = []
    for _ in range(n + 1):  # the degree is at most n
        digit = ((value + half) & mask) - half  # in [-X/2, X/2)
        coeffs.append(digit)
        value = (value - digit) >> b
    return LaurentPoly.from_dict(dict(enumerate(coeffs)))


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
    return linear_determinant(alexander_rows(wirtinger(pd))).normalize()


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
    matchings of the widest frontier, not with 2^n."""
    if not pd.crossings:
        return LaurentPoly.const(1)
    states: dict[frozenset, dict[int, int]] = {frozenset(): {0: 1}}
    for a, b, c, d in _sweep_order(pd.crossings):
        swept: dict[frozenset, dict[int, int]] = {}
        for matching, poly in states.items():
            for weight, strands in ((1, ((a, b), (c, d))), (-1, ((a, d), (b, c)))):
                ends = dict(matching)
                loops = _join(ends, *strands[0]) + _join(ends, *strands[1])
                if not ends:
                    loops -= 1
                target = swept.setdefault(frozenset(ends.items()), {})
                for e, coeff in poly.items():
                    for de, dc in _DELTA_POWERS[loops]:
                        exp = e + weight + de
                        target[exp] = target.get(exp, 0) + coeff * dc
        states = swept
    (bracket,) = states.values()
    return LaurentPoly.from_dict(bracket)


# delta^k = (-A^2 - A^-2)^k for the at most two loops one crossing closes
_DELTA_POWERS = (((0, 1),), ((-2, -1), (2, -1)), ((-4, 1), (0, 2), (4, 1)))


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
    labels on the open frontier; ties go to the lower index."""
    remaining = list(range(len(crossings)))
    frontier: set[int] = set()
    order = []
    while remaining:
        best = max(remaining, key=lambda i: (sum(x in frontier for x in crossings[i]), -i))
        remaining.remove(best)
        order.append(crossings[best])
        for x in crossings[best]:  # a label seen twice leaves the frontier
            if x in frontier:
                frontier.remove(x)
            else:
                frontier.add(x)
    return order


def jones_polynomial(pd: PDCode) -> LaurentPoly:
    """Jones polynomial via the normalized Kauffman bracket.

    The value depends on diagram chirality (mirroring swaps t and t^-1);
    it is reported exactly as computed, without normalization.
    """
    n = pd.crossing_count
    if n > JONES_CROSSING_BUDGET:
        raise DiagramError(
            f"diagram has {n} crossings, over the {JONES_CROSSING_BUDGET}-crossing Jones budget"
        )
    bracket = kauffman_bracket(pd)
    w = pd.writhe()
    corrected = bracket.shift(-3 * w)
    if w % 2 != 0:
        corrected = -corrected
    out: dict[int, int] = {}
    for e, c in corrected.terms:
        if e % 4 != 0:
            raise ArithmeticError("corrected bracket exponent not a multiple of 4")
        out[-e // 4] = c
    return LaurentPoly.from_dict(out)
