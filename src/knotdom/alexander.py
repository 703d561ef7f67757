"""Alexander and Jones polynomials from diagram data.

The Alexander polynomial is computed classically: Fox derivatives of the
Wirtinger relations with every meridian abelianized to t, one relation row
and one generator column deleted.  Every entry of that minor is linear in
t, so its determinant is taken without polynomial arithmetic: evaluated
at the integer nodes t = 2..D+2 modulo 61-bit primes, interpolated, and
recombined by the Chinese remainder theorem under Hadamard's bound on
the coefficients (`linear_determinant`).  Per prime, one sparse
elimination picks the pivots at the last node and the other nodes replay
them together; a node where a replayed pivot vanishes is eliminated
again with pivots of its own.  The Jones polynomial comes from the
Kauffman bracket with the writhe correction (-A^3)^-w and the
substitution t = A^-4.  The bracket is computed by a frontier sweep:
crossings are contracted one at a time, keeping one polynomial per
planar matching of the open arc ends, as in Bar-Natan's tangle
contraction for Khovanov homology (arXiv math/0606318).
"""
from __future__ import annotations

import itertools

from .diagram import DiagramError, PDCode, WirtingerPresentation, wirtinger
from .laurent import LaurentPoly, is_prime

# Diagrams above this many crossings get no computed Jones polynomial.
# The sweep would be fast there too; the budget keeps the `invariants`
# output of larger diagrams unchanged (no `jones` field).
JONES_CROSSING_BUDGET = 24

# The first evaluation node.  At t = 0 the Fox minor is usually singular
# and at t = 1 every 1 - t entry vanishes, so pivots chosen there would
# suit no other node.
_FIRST_NODE = 2

# The 61-bit primes of `linear_determinant`, downward from 2^61 - 1, each
# found on first use (importing the module searches for none).
_PRIMES: list[int] = []


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

    The determinant has degree at most D, the number of rows with a t
    term.  It is evaluated at the D + 1 nodes t = 2..D+2 modulo 61-bit
    primes (`_determinants_mod`), interpolated modulo each prime, and the
    primes are combined by CRT with a symmetric lift (von zur Gathen and
    Gerhard, "Modern Computer Algebra", ch. 5).  Each coefficient is a
    Fourier coefficient of det M(t) on the unit circle, so by Hadamard's
    inequality it is at most H^(1/2), H the product over the rows of
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


def alexander_polynomial(pd: PDCode) -> LaurentPoly:
    """Normalized Alexander polynomial of the diagram.  Satisfies
    delta(1) = +-1 and has palindromic coefficients."""
    return linear_determinant(alexander_rows(wirtinger(pd))).normalize()


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
