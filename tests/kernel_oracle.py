"""The exponential, dense and `Fraction` kernels that `knotdom` replaced,
kept as test oracles.

`state_sum_bracket` is the Kauffman bracket summed over all 2^n states
with a fresh union-find per state; `fox_matrix`, `alexander_matrix` and
`bareiss_determinant` are the dense Fox matrix over Z[t, t^-1] and its
fraction-free Bareiss determinant; `fraction_divided_by` is long division
of Laurent polynomials over Q, accepting only an integral quotient;
`fraction_eval_int` sums the value at an integer term by term in `Fraction`;
`trial_division_is_prime_power` factors by trial division up to the
square root; `backtracking_summands_cover` matches summands by recursive
backtracking.  The library's frontier sweep, modular determinant, integer
division, integer evaluation, Miller-Rabin test and augmenting-path
matching must agree with them.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

from knotdom.diagram import PDCode, WirtingerPresentation
from knotdom.laurent import LaurentPoly

_ONE = LaurentPoly.const(1)
_MINUS_ONE = LaurentPoly.const(-1)
_T = LaurentPoly.t()
_ONE_MINUS_T = _ONE - _T


def state_sum_bracket(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket state sum in the variable A over all 2^n
    resolutions: each A-smoothing joins (a,b) and (c,d), each B-smoothing
    joins (a,d) and (b,c), a state with k loops contributing
    A^(#A - #B) * (-A^2 - A^-2)^(k-1)."""
    n = pd.crossing_count
    if n == 0:
        return LaurentPoly.const(1)

    slots_of_edge: dict[int, list[int]] = {}
    for ci, (a, b, c, d) in enumerate(pd.crossings):
        for pos, edge in enumerate((a, b, c, d)):
            slots_of_edge.setdefault(edge, []).append(4 * ci + pos)
    edge_pairs = [tuple(slots) for slots in slots_of_edge.values()]

    delta = LaurentPoly.from_dict({2: -1, -2: -1})
    delta_powers = [LaurentPoly.const(1)]
    for _ in range(2 * n):
        delta_powers.append(delta_powers[-1] * delta)

    total = LaurentPoly()
    size = 4 * n
    for state in range(1 << n):
        parent = list(range(size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            parent[find(x)] = find(y)

        for x, y in edge_pairs:
            union(x, y)
        a_count = 0
        for ci in range(n):
            base = 4 * ci
            if state >> ci & 1:
                a_count += 1
                union(base + 0, base + 1)
                union(base + 2, base + 3)
            else:
                union(base + 0, base + 3)
                union(base + 1, base + 2)
        loops = len({find(x) for x in range(size)})
        total = total + LaurentPoly.t(2 * a_count - n) * delta_powers[loops - 1]
    return total


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
    without its last relation row and its last generator column."""
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


def linear_rows(matrix: list[list[LaurentPoly]]) -> list[dict[int, tuple[int, int]]]:
    """A dense matrix with entries in Z[t] of degree at most 1 as the
    sparse rows {column: (c0, c1)} of `linear_determinant`."""
    rows = []
    for entries in matrix:
        row = {}
        for col, entry in enumerate(entries):
            if not entry.is_zero():
                if entry.min_degree < 0 or entry.max_degree > 1:
                    raise ValueError(f"entry {entry} is not linear in t")
                row[col] = (entry.coefficient(0), entry.coefficient(1))
        rows.append(row)
    return rows


def fraction_divided_by(self: LaurentPoly, divisor: LaurentPoly) -> LaurentPoly | None:
    """Literal exact division in Z[t, t^-1].

    Returns q with self = divisor * q, or None when no such Laurent
    polynomial exists.  Raises ZeroDivisionError on a zero divisor.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if self.is_zero():
        return self
    shift = self.min_degree - divisor.min_degree
    num = [Fraction(c) for c in _dense_from_zero(self.shift(-self.min_degree))]
    den = [Fraction(c) for c in _dense_from_zero(divisor.shift(-divisor.min_degree))]
    if len(num) < len(den):
        return None
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    rem = num[:]
    for i in range(len(quot) - 1, -1, -1):
        q = rem[i + len(den) - 1] / den[-1]
        quot[i] = q
        if q:
            for j, d in enumerate(den):
                rem[i + j] -= q * d
    if any(rem) or any(q.denominator != 1 for q in quot):
        return None
    return LaurentPoly.from_dict({i: int(q) for i, q in enumerate(quot)}).shift(shift)


def fraction_eval_int(p: LaurentPoly, x: int) -> int | Fraction:
    """Exact value at a nonzero integer, summed in `Fraction`; an int when
    the denominator is 1."""
    if x == 0:
        raise ValueError("cannot evaluate at 0: negative exponents")
    total = Fraction(0)
    for e, c in p.terms:
        total += c * Fraction(x) ** e
    return int(total) if total.denominator == 1 else total


def _dense_from_zero(p: LaurentPoly) -> list[int]:
    """Dense coefficient list of a polynomial with min degree 0."""
    out = [0] * (p.max_degree + 1)
    for e, c in p.terms:
        out[e] = c
    return out


def trial_division_is_prime_power(n: int) -> bool:
    """True iff n = p^e with p prime and e >= 1.  By convention 1 is not
    a prime power."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    if n == 1:
        return False
    p = None
    m = n
    for d in range(2, m):
        if d * d > m:
            break
        if m % d == 0:
            p = d
            while m % d == 0:
                m //= d
            break
    if p is None:
        return True  # n itself is prime
    return m == 1


def backtracking_summands_cover(
    sum1: tuple[str, ...],
    sum2: tuple[str, ...],
    certified: frozenset[tuple[str, str]],
) -> bool:
    """Can every summand of k2 be matched injectively to a summand of k1
    that equals it or certifiably dominates it?  Plain sub-multiset
    inclusion is the identity matching."""
    available = Counter(sum1)

    def match(targets: list[str]) -> bool:
        if not targets:
            return True
        target = targets[0]
        for source in sorted(available):
            if available[source] == 0:
                continue
            if source == target or (source, target) in certified:
                available[source] -= 1
                if match(targets[1:]):
                    available[source] += 1
                    return True
                available[source] += 1
        return False

    return match(sorted(sum2))
