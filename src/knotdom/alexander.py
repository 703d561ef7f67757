"""Alexander and Jones polynomials from diagram data.

The Alexander polynomial is computed classically: Fox derivatives of the
Wirtinger relations with every meridian abelianized to t, one relation row
and one generator column deleted, and the determinant taken by
fraction-free Bareiss elimination over Z[t].  Every interior division in
the elimination is exact and asserted; it is integer long division
(`LaurentPoly.divided_by`), with no rationals.  The Jones polynomial
comes from the Kauffman bracket with the writhe correction (-A^3)^-w and
the substitution t = A^-4.  The bracket is computed by a frontier sweep:
crossings are contracted one at a time, keeping one polynomial per planar
matching of the open arc ends, as in Bar-Natan's tangle contraction for
Khovanov homology (arXiv math/0606318).
"""
from __future__ import annotations

from .diagram import DiagramError, PDCode, WirtingerPresentation, wirtinger
from .laurent import LaurentPoly

# Diagrams above this many crossings get no computed Jones polynomial.
# The sweep would be fast there too; the budget keeps the `invariants`
# output of larger diagrams unchanged (no `jones` field).
JONES_CROSSING_BUDGET = 24

_ONE = LaurentPoly.const(1)
_MINUS_ONE = LaurentPoly.const(-1)
_T = LaurentPoly.t()
_ONE_MINUS_T = _ONE - _T


def fox_matrix(pres: WirtingerPresentation) -> list[list[LaurentPoly]]:
    """Fox-derivative matrix with each generator abelianized to t, one row
    per relation.  Rows for negative crossings are scaled by the unit -t
    so every entry lies in Z[t]."""
    zero = LaurentPoly()
    rows = []
    for out, over, inp, sign in pres.relations:
        row = [zero] * pres.generator_count
        if sign > 0:
            contributions = ((inp, _T), (over, _ONE_MINUS_T), (out, _MINUS_ONE))
        else:
            contributions = ((inp, _MINUS_ONE), (over, _ONE_MINUS_T), (out, _T))
        for col, value in contributions:
            row[col] = row[col] + value
        rows.append(row)
    return rows


def alexander_matrix(pres: WirtingerPresentation) -> list[list[LaurentPoly]]:
    """Square presentation matrix of the Alexander module: the Fox matrix
    without its last relation row and its last generator column (the
    normalized determinant is independent of the choice)."""
    return [row[:-1] for row in fox_matrix(pres)[:-1]]


def bareiss_determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant over Z[t, t^-1] by fraction-free elimination.

    Bareiss elimination is exact over any integral domain, and every
    interior division is exact division in Z[t, t^-1], so entries with
    negative exponents need no shift: the result is the literal
    determinant.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return LaurentPoly.const(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = LaurentPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return LaurentPoly()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                quotient = numerator.divided_by(prev)
                if quotient is None:
                    raise ArithmeticError("inexact interior division in Bareiss elimination")
                m[i][j] = quotient
            m[i][k] = LaurentPoly()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def alexander_polynomial(pd: PDCode) -> LaurentPoly:
    """Normalized Alexander polynomial of the diagram.  Satisfies
    delta(1) = +-1 and has palindromic coefficients."""
    return bareiss_determinant(alexander_matrix(wirtinger(pd))).normalize()


def determinant_invariant(delta: LaurentPoly) -> int:
    """|delta(-1)|, the order of the first homology of the double branched
    cover."""
    value = delta.eval_int(-1)
    return abs(int(value))


def connected_sum_delta(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Alexander polynomial of a connected sum: the product of the
    summands' polynomials."""
    return (a * b).normalize()


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
