"""The exponential, dense and `Fraction` kernels that `knotdom` replaced,
kept as test oracles.

`state_sum_bracket` is the Kauffman bracket summed over all 2^n states
with a fresh union-find per state; `dict_sweep_bracket` is the frontier
sweep with a dict of terms per state and a `frozenset` key per matching,
in the order of `quadratic_sweep_order`, which recounts every remaining
crossing's frontier labels at each step; `fox_matrix`, `alexander_matrix` and
`bareiss_determinant` are the dense Fox matrix over Z[t, t^-1] and its
fraction-free Bareiss determinant; `node_determinant` evaluates a Fox
minor at t = 2..D+2 modulo 61-bit primes, replaying one pivot sequence
across the nodes, then interpolates and recombines by CRT (it is also the
fast oracle for large closures); `fraction_divided_by` is long division
of Laurent polynomials over Q, accepting only an integral quotient;
`exact_div` is division up to units by `LaurentPoly.divided_by`, the
quotient that `divides` only tests for;
`fraction_eval_int` sums the value at an integer term by term in `Fraction`;
`shift_normalize` rebuilds every polynomial it normalizes, normalized or not;
`trial_division_is_prime_power` factors by trial division up to the
square root; `backtracking_summands_cover` matches summands by recursive
backtracking; `eager_enrich_record` computes the Jones polynomial of every
diagram within the budget at enrichment; `eager_build_corpus` enriches
every record of a corpus at load; `eager_load_corpus` parses every record
of a corpus file at load; `union_find_braid_to_pd`, `union_find_wirtinger`
and `union_find_seifert_circles` merge arc labels with a union-find
(`_disjoint_sets`).  `union_find_wirtinger` is the one Wirtinger
presentation (`Presentation`) that the dense Fox oracles read, and
`in_walk_order` renumbers its generators the way `alexander_rows` numbers
arcs, so that rows can be compared entry for entry.  The library's
integer frontier sweep and its incremental order, Kronecker determinant,
integer division, divisibility test, integer evaluation, normalization,
Miller-Rabin test, augmenting-path matching, Jones computed only where it
is read, records parsed and enriched on first read and its walks along
the diagram must agree with them.

The braid oracle is the library's own Fox kernel on the closure's PD
code, `alexander_polynomial(braid_to_pd(braid))`, which PD input still
takes: braid input takes the reduced Burau kernel
(`braid_alexander_polynomial`), and the two must agree on every braid
(`test_kernels.TestBurauKernel`, `test_alexander.TestBurauKernel`, and
the braid moves of `test_alexander`); `node_determinant` checks both on
closures too large for the dense oracles.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from knotdom.alexander import JONES_CROSSING_BUDGET, _join, _permutation_sign, jones_polynomial
from knotdom.diagram import BraidWord, DiagramError, PDCode, _succ
from knotdom.knotbase import Corpus, CorpusError, KnotRecord, _walk, build_corpus, enrich_record, record_from_json
from knotdom.laurent import LaurentPoly, format_poly, is_prime

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


def dict_sweep_bracket(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket by the frontier sweep with one dict {exponent:
    coefficient} per matching, keyed by the matching's `frozenset` of
    (end, far end) pairs and rebuilt as a dict for every branch; each
    closed loop multiplies by a precomputed power of -A^2 - A^-2."""
    if not pd.crossings:
        return LaurentPoly.const(1)
    states: dict[frozenset, dict[int, int]] = {frozenset(): {0: 1}}
    for a, b, c, d in quadratic_sweep_order(pd.crossings):
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


def quadratic_sweep_order(crossings):
    """Greedy contraction order: next, the crossing with the most arc
    labels on the open frontier, counted afresh for every remaining
    crossing at every step; ties go to the lower index."""
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


class Presentation(NamedTuple):
    """Meridian generators, one per arc of the diagram, with one
    conjugation relation x_out = x_over^sign * x_in * x_over^-sign per
    crossing."""

    generator_count: int
    relations: tuple[tuple[int, int, int, int], ...]  # (out, over, in, sign)


def fox_matrix(pres: Presentation) -> list[list[LaurentPoly]]:
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


def alexander_matrix(pres: Presentation) -> list[list[LaurentPoly]]:
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
                coeffs = entry.coefficients()
                row[col] = (coeffs.get(0, 0), coeffs.get(1, 0))
        rows.append(row)
    return rows


# The first evaluation node of `node_determinant`.  At t = 0 the Fox minor
# is usually singular and at t = 1 every 1 - t entry vanishes, so pivots
# chosen there would suit no other node.
_FIRST_NODE = 2

# The 61-bit primes of `node_determinant`, downward from 2^61 - 1, each
# found on first use (importing the module searches for none).
_PRIMES: list[int] = []


def node_determinant(rows: list[dict[int, tuple[int, int]]]) -> LaurentPoly:
    """Exact determinant of a square integer matrix whose entries are
    linear in t, given as sparse rows {column: (c0, c1)}, by evaluation
    at nodes modulo primes.

    The determinant has degree at most D, the number of rows with a t
    term.  It is evaluated at the D + 1 nodes t = 2..D+2 modulo 61-bit
    primes (`_determinants_mod`), interpolated modulo each prime, and the
    primes are combined by CRT with a symmetric lift (von zur Gathen and
    Gerhard, "Modern Computer Algebra", ch. 5).  Each coefficient is at
    most H^(1/2) by Hadamard's inequality, H the product over the rows of
    sum_j (|c0| + |c1|)^2; primes are taken until the square of their
    product exceeds 4H, and the lift is exact.
    """
    n = len(rows)
    if any(not 0 <= col < n for row in rows for col in row):
        raise ValueError("determinant of a non-square matrix")
    bound = 4
    for row in rows:
        bound *= sum((abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values())
    degree = sum(any(c1 for _, c1 in row.values()) for row in rows)
    nodes = range(_FIRST_NODE, _FIRST_NODE + degree + 1)
    coeffs = [0] * (degree + 1)
    modulus = 1
    primes = _primes()
    while modulus * modulus <= bound:
        p = next(primes)
        residues = _interpolate(_determinants_mod(rows, nodes, p), p)
        inverse = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c) * inverse % p) for c, r in zip(coeffs, residues)]
        modulus *= p
    half = modulus // 2
    return LaurentPoly.from_dict({e: c - modulus if c > half else c for e, c in enumerate(coeffs)})




def _primes():
    """The primes downward from 2^61 - 1, proven by Miller-Rabin."""
    for i in itertools.count():
        if i == len(_PRIMES):
            candidate = _PRIMES[-1] - 2 if _PRIMES else 2**61 - 1
            while not is_prime(candidate):
                candidate -= 2
            _PRIMES.append(candidate)
        yield _PRIMES[i]


def _determinants_mod(rows: list[dict[int, tuple[int, int]]], nodes: range, p: int) -> list[int]:
    """Determinants mod p of the rows at t = each of `nodes`.  The pivots
    are chosen once, by `_determinant_mod` at the last node still to be
    done, and replayed at all the others together (`_replay_mod`).  A node
    where the rows are singular gives 0 and passes the choice to the next
    one down; the nodes where a replayed pivot vanishes are done again the
    same way, with pivots chosen at one of them."""
    values: dict[int, int] = {}
    pending = list(nodes)
    while pending:
        x = pending.pop()
        values[x], pivots = _determinant_mod(rows, x, p)
        if values[x] and pending:
            replayed = _replay_mod(rows, pivots, pending, p)
            values.update((x, det) for x, det in zip(pending, replayed) if det is not None)
            pending = [x for x, det in zip(pending, replayed) if det is None]
    return [values[x] for x in nodes]


def _determinant_mod(rows: list[dict[int, tuple[int, int]]], x: int, p: int) -> tuple[int, list[tuple[int, int]]]:
    """Determinant mod p of the rows at t = x by sparse Gaussian
    elimination, and its (row, column) pivot sequence (cut short where the
    rows turn out singular, with determinant 0).  Each step pivots on the
    shortest live row and, within it, on the column held by the fewest
    live rows (Markowitz, 1957)."""
    live: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        values = {}
        for col, (c0, c1) in row.items():
            value = (c0 + c1 * x) % p
            if value:
                values[col] = value
                holders.setdefault(col, set()).add(i)
        live[i] = values
    pivots = []
    det = 1
    while live:
        i = min(live, key=lambda k: len(live[k]))
        row = live.pop(i)
        if not row:
            return 0, pivots
        col = min(row, key=lambda c: len(holders[c]))
        pivots.append((i, col))
        for c in row:
            holders[c].discard(i)
        pivot = row.pop(col)
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        for k in holders.pop(col):
            other = live[k]
            factor = other.pop(col) * inverse % p
            for c, value in row.items():
                updated = (other.get(c, 0) - factor * value) % p
                if updated:
                    if c not in other:
                        holders[c].add(k)
                    other[c] = updated
                elif c in other:
                    del other[c]
                    holders[c].discard(k)
    return _permutation_sign(pivots) * det % p, pivots


def _replay_mod(
    rows: list[dict[int, tuple[int, int]]], pivots: list[tuple[int, int]], nodes: list[int], p: int
) -> list[int | None]:
    """Determinants mod p of the rows at t = each of `nodes`, eliminating
    with the given full pivot sequence.  Every entry holds one residue per
    node (a lane) and each step updates all lanes at once; the sign of the
    permutation pivot row -> pivot column is the same in every lane.  A
    lane where a pivot is 0 mod p gives None: the sequence is no valid
    elimination there.  Such a lane, and only such a lane, ends with
    product 0, since every pivot of a valid lane is a unit."""
    zeros = [0] * len(nodes)
    live: dict[int, dict[int, list[int]]] = {}
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        live[i] = {col: [(c0 + c1 * x) % p for x in nodes] for col, (c0, c1) in row.items()}
        for col in row:
            holders.setdefault(col, set()).add(i)
    dets = [_permutation_sign(pivots)] * len(nodes)
    for i, col in pivots:
        row = live.pop(i)
        for c in row:
            holders[c].discard(i)
        pivot = row.pop(col)
        dets = [d * v % p for d, v in zip(dets, pivot)]
        # A vanished pivot is inverted as 1: its lane is dropped anyway.
        inverses = _inverses([value or 1 for value in pivot], p)
        for k in holders.pop(col):
            other = live[k]
            factors = [a * b % p for a, b in zip(other.pop(col), inverses)]
            for c, values in row.items():
                old = other.get(c)
                if old is None:
                    holders[c].add(k)
                    old = zeros
                other[c] = [(o - f * v) % p for o, f, v in zip(old, factors, values)]
    return [det or None for det in dets]


def _inverses(values: list[int], p: int) -> list[int]:
    """The inverses mod p of nonzero residues with one `pow`: Montgomery's
    batch inversion, by prefix products and one walk back."""
    prefix = []
    product = 1
    for value in values:
        prefix.append(product)
        product = product * value % p
    inverse = pow(product, -1, p)
    out = [0] * len(values)
    for k in range(len(values) - 1, -1, -1):
        out[k] = prefix[k] * inverse % p
        inverse = inverse * values[k] % p
    return out


def _interpolate(values: list[int], p: int) -> list[int]:
    """Coefficients mod p of the polynomial of degree < len(values) that
    takes values[k] at the node t = k + 2.  Newton's divided differences:
    the nodes are unit-spaced, so level j divides by j."""
    coeffs = list(values)
    top = len(values) - 1
    for j in range(1, top + 1):
        inverse = pow(j, -1, p)
        for i in range(top, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) * inverse % p
    # Newton form to monomials: c_top, then multiply by (t - node k) and add c_k.
    out = [0] * (top + 1)
    for k in range(top, -1, -1):
        node = k + _FIRST_NODE
        for i in range(top - k, 0, -1):
            out[i] = (out[i - 1] - node * out[i]) % p
        out[0] = (coeffs[k] - node * out[0]) % p
    return out


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


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """Division up to units: both arguments are normalized first.

    Returns the (normalized) quotient, or None when the normalized
    divisor is not a factor.  Raises ZeroDivisionError when b = 0.  A
    unit divisor returns the normalized dividend without dividing.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    divisor = b.normalize()
    return a.normalize() if divisor.is_one() else a.normalize().divided_by(divisor)


def fraction_eval_int(p: LaurentPoly, x: int) -> int | Fraction:
    """Exact value at a nonzero integer, summed in `Fraction`; an int when
    the denominator is 1."""
    if x == 0:
        raise ValueError("cannot evaluate at 0: negative exponents")
    total = Fraction(0)
    for e, c in p.terms:
        total += c * Fraction(x) ** e
    return int(total) if total.denominator == 1 else total


def shift_normalize(p: LaurentPoly) -> LaurentPoly:
    """p times the unit +-t^k with minimum degree 0 and a positive constant
    term, built anew through shift and negation."""
    if p.is_zero():
        return p
    shifted = p.shift(-p.min_degree)
    return -shifted if shifted.terms[0][1] < 0 else shifted


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


def eager_enrich_record(record: KnotRecord, siblings: dict[str, KnotRecord] | None = None) -> KnotRecord:
    """`enrich_record` that also computes the Jones polynomial of every
    diagram within JONES_CROSSING_BUDGET, whether or not one is declared:
    the computed value must equal a declared one, satisfy V(1) = 1 and
    |V(-1)| = det, and is stored in the record."""
    enriched = enrich_record(record, siblings)
    diagram = enriched.diagram
    if diagram is None or diagram.crossing_count > JONES_CROSSING_BUDGET:
        return enriched
    name, jones = enriched.name, jones_polynomial(diagram)
    if enriched.jones is not None and enriched.jones != jones:
        declared, computed = format_poly(enriched.jones), format_poly(jones)
        raise CorpusError(f"{name}: declared jones {declared} != computed {computed}")
    at_one, at_minus_one = fraction_eval_int(jones, 1), abs(fraction_eval_int(jones, -1))
    if at_one != 1:
        raise CorpusError(f"{name}: jones(1) = {at_one}, expected 1")
    if at_minus_one != enriched.determinant:
        raise CorpusError(f"{name}: |jones(-1)| = {at_minus_one} != determinant {enriched.determinant}")
    return enriched._replace(jones=jones)


def eager_build_corpus(records: list[KnotRecord]) -> Corpus:
    """`build_corpus` that enriches every record at load, in input order,
    each after the records it references, and holds the enriched records.
    A circular reference raises here, and `enrich_record` raises on a
    dangling one."""
    build_corpus(records)  # names, connected sums and mutant classes
    by_name = {r.name: r for r in records}
    order, cycle = _walk([r.name for r in records], lambda name: [r for r in by_name[name].references() if r in by_name])
    if cycle is not None:
        raise CorpusError(f"circular composite references among {sorted(cycle[1:])}")
    enriched: dict[str, KnotRecord] = {}
    for name in order:
        enriched[name] = enrich_record(by_name[name], enriched)
    return Corpus(tuple(enriched[r.name] for r in records))


def eager_load_corpus(path: str | Path) -> Corpus:
    """`load_corpus` that parses every record at load: `record_from_json`
    on every entry, in input order, then `build_corpus`."""
    return build_corpus([record_from_json(obj) for obj in json.loads(Path(path).read_text(encoding="utf-8"))])


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



def union_find_braid_to_pd(braid: BraidWord) -> PDCode:
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
        return PDCode([])

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
    return PDCode(tuples)



def union_find_wirtinger(pd: PDCode) -> Presentation:
    """One meridian generator per arc (maximal overpass), one conjugation
    relation per crossing, arcs numbered in the order of their union-find
    roots.  The over-strand enters at d when the crossing is positive and
    at b when it is negative.  The 0-crossing unknot gives one free
    generator."""
    n = pd.crossing_count
    if n == 0:
        return Presentation(1, ())
    over_in = [d if sign > 0 else b for (_, b, _, d), sign in zip(pd.crossings, pd.signs)]
    find, union = _disjoint_sets(2 * n + 1)  # labels 1..2n; 0 unused
    for o_in in over_in:
        union(_succ(o_in, n), o_in)  # over passage keeps the same arc
    roots = sorted({find(label) for label in range(1, 2 * n + 1)})
    arc_index = {root: i for i, root in enumerate(roots)}

    relations = []
    for (a, _, c, _), sign, o_in in zip(pd.crossings, pd.signs, over_in):
        relations.append(
            (arc_index[find(c)], arc_index[find(o_in)], arc_index[find(a)], sign)
        )
    return Presentation(len(roots), tuple(relations))


def in_walk_order(pd: PDCode) -> Presentation:
    """`union_find_wirtinger(pd)` with its generators renumbered in the
    order the orientation meets their arcs from label c of crossing 0:
    the numbering of `alexander_rows`."""
    pres = union_find_wirtinger(pd)
    n = pd.crossing_count
    if n == 0:
        return pres
    arc_of = {}  # every label enters a crossing once, as a or as the over-strand
    for (a, b, _, d), (_, over, inp, sign) in zip(pd.crossings, pres.relations):
        arc_of[a], arc_of[d if sign > 0 else b] = inp, over
    order: dict[int, int] = {}
    label = pd.crossings[0][2]
    for _ in range(2 * n):
        order.setdefault(arc_of[label], len(order))
        label = _succ(label, n)
    return Presentation(
        pres.generator_count,
        tuple((order[out], order[over], order[inp], sign) for out, over, inp, sign in pres.relations),
    )



def union_find_seifert_circles(pd: PDCode) -> tuple[int, int]:
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
