"""The integer frontier-sweep Kauffman bracket and its contraction
order, the Kronecker Alexander
determinant, integer exact division and the diagram walks against the
kernels they replaced (`kernel_oracle`), and the reduced Burau kernel of
braid input against Fox on the closure's PD code, on seeded random
input."""
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotdom
from knotdom.alexander import (
    _sweep_order,
    alexander_polynomial,
    alexander_rows,
    braid_alexander_polynomial,
    jones_polynomial,
    kauffman_bracket,
    linear_determinant,
)
from knotdom.diagram import BraidWord, DiagramError, PDCode, braid_to_pd, parse_pd, seifert_circles
from knotdom.laurent import LaurentPoly, exact_div, is_prime, parse_poly
import kernel_oracle
from kernel_oracle import (
    _determinant_mod,
    _determinants_mod,
    _replay_mod,
    alexander_matrix,
    bareiss_determinant,
    dict_sweep_bracket,
    fraction_divided_by,
    in_walk_order,
    linear_rows,
    node_determinant,
    quadratic_sweep_order,
    shift_normalize,
    state_sum_bracket,
    union_find_braid_to_pd,
    union_find_seifert_circles,
    union_find_wirtinger,
)
from test_alexander import cofactor_determinant


def random_knot_braid(rng: random.Random, strands: int, length: int) -> BraidWord:
    """A random braid word whose closure has one component."""
    while True:
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
        )
        braid = BraidWord(strands, letters)
        try:
            braid_to_pd(braid)
        except DiagramError:
            continue
        return braid


def random_closures(seed: int, count: int, max_crossings: int, min_strands: int = 3):
    """Knots closing random min_strands- to 6-strand braids of 3 to
    max_crossings letters; a knot on s strands needs at least s - 1
    letters and their count must have the parity of s - 1."""
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(min_strands, 6)
        length = rng.randrange(strands - 1, max_crossings + 1, 2)
        if length < 3:
            length += 2
        braid = random_knot_braid(rng, strands, length)
        yield rng, braid, braid_to_pd(braid)


class TestBracketSweep:
    @pytest.mark.parametrize(
        "text",
        ["", "X(1,1,2,2)", "X(1,2,2,1)", "X(2,1,3,2) X(4,4,1,3)", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"],
    )
    def test_kinks_and_small_diagrams(self, text):
        pd = parse_pd(text)
        assert kauffman_bracket(pd) == state_sum_bracket(pd) == dict_sweep_bracket(pd)

    def test_random_closures_mirrors_and_shuffles(self):
        for rng, braid, pd in random_closures(20261018, 30, 12):
            expected = state_sum_bracket(pd)
            assert kauffman_bracket(pd) == expected, braid
            mirror = pd.mirror()
            assert kauffman_bracket(mirror) == state_sum_bracket(mirror), braid
            shuffled = PDCode.from_tuples(rng.sample(pd.crossings, len(pd.crossings)))
            assert kauffman_bracket(shuffled) == expected, braid

    def test_against_the_dict_sweep_up_to_24_crossings(self):
        for rng, braid, pd in random_closures(20261019, 60, 24, min_strands=2):
            expected = dict_sweep_bracket(pd)
            assert kauffman_bracket(pd) == expected, braid
            mirror = pd.mirror()
            assert kauffman_bracket(mirror) == dict_sweep_bracket(mirror), braid
            shuffled = PDCode.from_tuples(rng.sample(pd.crossings, len(pd.crossings)))
            assert kauffman_bracket(shuffled) == expected, braid

    def test_digits_stay_below_half_the_base(self):
        """The docstring's bound on the densest diagrams within the Jones
        budget: every coefficient of the bracket of an n-crossing knot
        lies within 2^(2n) of 0 (its L1 norm is at most 4^n), below
        X / 2 = 2^(2n+1) for the kernel's base X = 2^(2n+2)."""
        for pd in dense_diagrams():
            n = pd.crossing_count
            bracket = kauffman_bracket(pd)
            assert bracket == dict_sweep_bracket(pd), str(pd)
            coeffs = [abs(c) for _, c in bracket.terms]
            assert sum(coeffs) <= 4**n and max(coeffs) < 2 ** (2 * n + 1), str(pd)

    def test_incremental_order_is_the_quadratic_rule(self):
        texts = ["X(1,1,2,2)", "X(1,2,2,1)", "X(2,1,3,2) X(4,4,1,3)"]
        diagrams = [parse_pd(text) for text in texts] + list(dense_diagrams())
        for rng, braid, pd in random_closures(20261020, 60, 24, min_strands=2):
            shuffled = PDCode.from_tuples(rng.sample(pd.crossings, len(pd.crossings)))
            diagrams += [pd, pd.mirror(), shuffled]
        for pd in diagrams:
            assert _sweep_order(pd.crossings) == quadratic_sweep_order(pd.crossings), str(pd)


def dense_diagrams():
    """T(2,23) and seeded alternating closures of 21 to 24 crossings: a
    3-braid in sigma_1 and sigma_2^-1 (even length) or a 4-braid in
    sigma_1, sigma_2^-1 and sigma_3 (odd length), redrawn until it closes
    into a knot."""
    yield braid_to_pd(BraidWord(2, (1,) * 23))
    rng = random.Random(2123)
    for crossings in (21, 22, 23, 24, 22, 24, 21, 23):
        letters = (1, -2) if crossings % 2 == 0 else (1, -2, 3)
        while True:
            braid = BraidWord(len(letters) + 1, tuple(rng.choice(letters) for _ in range(crossings)))
            try:
                yield braid_to_pd(braid)
            except DiagramError:
                continue
            break


class TestJonesBraidMoves:
    def test_inserting_a_cancelling_pair(self):
        for rng, braid, pd in random_closures(7, 30, 14):
            i = rng.randint(1, braid.strand_count - 1)
            at = rng.randint(0, len(braid.letters))
            sign = rng.choice((1, -1))
            letters = braid.letters[:at] + (sign * i, -sign * i) + braid.letters[at:]
            moved = braid_to_pd(BraidWord(braid.strand_count, letters))
            assert jones_polynomial(moved) == jones_polynomial(pd), (braid, letters)

    def test_stabilisation(self):
        for rng, braid, pd in random_closures(11, 30, 14):
            m = braid.strand_count
            letters = braid.letters + (rng.choice((1, -1)) * m,)
            stabilised = braid_to_pd(BraidWord(m + 1, letters))
            assert jones_polynomial(stabilised) == jones_polynomial(pd), (braid, letters)


class TestBurauKernel:
    def test_random_closures_against_fox(self):
        count = 0
        for _, braid, pd in random_closures(20261026, 2000, 16, min_strands=2):
            assert braid_alexander_polynomial(braid) == alexander_polynomial(pd), braid
            count += 1
        assert count == 2000

    @pytest.mark.parametrize(
        "strands, runs",
        [
            (2, [(-1, 61)]),
            (2, [(1, 61)]),
            (3, [(-1, 15), (-2, 9)]),
            (3, [(1, 21), (-2, 3), (1, 2), (2, 4)]),
            (4, [(-1, 13), (-2, 11), (-3, 9)]),
            (4, [(3, 7), (-1, 5), (2, 9), (-3, 4)]),
            (5, [(-1, 9), (-2, 7), (-3, 5), (-4, 3), (-1, 2)]),
        ],
    )
    def test_long_single_letter_runs(self, strands, runs):
        """Runs of one letter, many of them negative: each negative letter
        is an exact shift right, and long runs push the coefficients up."""
        letters = tuple(letter for letter, length in runs for _ in range(length))
        braid = BraidWord(strands, letters)
        assert braid_alexander_polynomial(braid) == alexander_polynomial(braid_to_pd(braid)), runs

    def test_all_negative_words(self):
        rng = random.Random(2026)
        for _ in range(200):
            strands = rng.randint(2, 6)
            braid = random_knot_braid(rng, strands, rng.randrange(strands + 1, 24, 2))
            negative = BraidWord(strands, tuple(-abs(letter) for letter in braid.letters))
            try:
                pd = braid_to_pd(negative)
            except DiagramError:
                continue
            assert braid_alexander_polynomial(negative) == alexander_polynomial(pd), negative

    def test_digits_stay_below_half_the_base(self):
        """The docstring's bound on the densest closures here: every
        coefficient of delta for an n-crossing closure is at most 4^(n-1),
        below X / 2 = 2^(2n-1) for the kernel's base X = 2^(2n)."""
        braids = [braid for _, braid, _ in random_closures(20261027, 40, 40, min_strands=2)]
        braids += [BraidWord(max(map(abs, letters)) + 1, letters) for letters in ((1, -2) * 11, (1, -2, 3) * 9)]
        for braid in braids:
            n = len(braid.letters)
            delta = braid_alexander_polynomial(braid)
            assert delta == alexander_polynomial(braid_to_pd(braid)), braid
            assert max(abs(c) for _, c in delta.terms) <= 4 ** (n - 1) < 2 ** (2 * n - 1), braid

    def test_two_hundred_crossing_closure_against_the_node_oracle(self):
        braid = random_knot_braid(random.Random(201), 4, 201)
        rows = alexander_rows(braid_to_pd(braid))
        assert braid_alexander_polynomial(braid) == node_determinant(rows).normalize(), braid


def determinant_bound(rows):
    """Four times the product over the rows of sum (|c0| + |c1|)^2 (the
    Hadamard bound): X^2 must exceed it, X = 2^b the kernel's evaluation
    point, and so must the square of the node oracle's modulus."""
    bound = 4
    for row in rows:
        bound *= sum((abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values())
    return bound


def degree_bound(rows):
    """The number of rows with a t term."""
    return sum(any(c1 for _, c1 in row.values()) for row in rows)


P61 = 2**61 - 1


@st.composite
def vanishing_rows(draw):
    """Sparse linear rows of a 1x1 to 6x6 matrix.  About half the entries
    are c1 (t - x) for an evaluation node x, so that a pivot can vanish at
    some nodes and not at others."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.builds(lambda x, c1: (-x * c1, c1), st.integers(2, n + 2), st.integers(-3, 3).filter(bool)),
    )
    rows = [draw(st.dictionaries(st.integers(0, n - 1), entry, max_size=n)) for _ in range(n)]
    return [{col: e for col, e in row.items() if e != (0, 0)} for row in rows]


@st.composite
def wide_rows(draw):
    """Sparse linear rows of a 1x1 to 7x7 matrix with coefficients up to
    2^200.  One draw in three is made singular: a row replaced by an
    integer combination of two others, or a column emptied."""
    n = draw(st.integers(1, 7))
    width = draw(st.sampled_from((2, 2**20, 2**200)))
    coeff = st.integers(-width, width)
    rows = [draw(st.dictionaries(st.integers(0, n - 1), st.tuples(coeff, coeff), max_size=n)) for _ in range(n)]
    singular = draw(st.sampled_from((None, "combination", "column")))
    if singular == "combination" and n >= 2:
        i = draw(st.integers(0, n - 1))
        j, k = draw(st.lists(st.sampled_from([r for r in range(n) if r != i]), min_size=2, max_size=2))
        a, b = draw(coeff), draw(coeff)
        zero = (0, 0)
        rows[i] = {
            col: tuple(a * x + b * y for x, y in zip(rows[j].get(col, zero), rows[k].get(col, zero)))
            for col in rows[j].keys() | rows[k].keys()
        }
    elif singular == "column":
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row.pop(col, None)
    return [{col: e for col, e in row.items() if e != (0, 0)} for row in rows]


def as_dense(rows):
    """Sparse linear rows as a dense matrix of Laurent polynomials."""
    return [[LaurentPoly.from_dict(dict(zip((0, 1), row.get(j, (0, 0))))) for j in range(len(rows))] for row in rows]


def rotated(pd: PDCode, k: int) -> PDCode:
    """The same diagram with every arc label i renamed i + k mod 2n."""
    n2 = 2 * pd.crossing_count
    return PDCode.from_tuples([tuple((x - 1 + k) % n2 + 1 for x in c) for c in pd.crossings])


class TestLinearDeterminant:
    def test_random_closures_against_bareiss(self):
        # The node oracle needs a second prime from about 48 crossings on.
        rng = random.Random(48)
        long_braids = [random_knot_braid(rng, strands, length) for strands, length in ((3, 50), (3, 52))]
        two_primes = 0
        for braid in [braid for _, braid, _ in random_closures(45, 16, 45)] + long_braids:
            pd = braid_to_pd(braid)
            rows = alexander_rows(pd)
            expected = bareiss_determinant(alexander_matrix(in_walk_order(pd)))
            assert linear_determinant(rows) == expected == node_determinant(rows), braid
            two_primes += determinant_bound(rows) >= P61**2
        assert two_primes >= 2

    def test_three_braid_closures_of_the_benchmark_tail(self):
        rng = random.Random(2540)
        for length in range(26, 41, 2):
            braid = random_knot_braid(rng, 3, length)
            pd = braid_to_pd(braid)
            assert linear_determinant(alexander_rows(pd)) == bareiss_determinant(alexander_matrix(in_walk_order(pd))), braid

    def test_shuffled_and_relabelled_codes(self):
        for rng, braid, pd in random_closures(46, 12, 30):
            expected = linear_determinant(alexander_rows(pd)).normalize()
            shuffled = PDCode.from_tuples(rng.sample(pd.crossings, len(pd.crossings)))
            moved = rotated(shuffled, rng.randrange(1, 2 * pd.crossing_count))
            got = linear_determinant(alexander_rows(moved))
            assert got == bareiss_determinant(alexander_matrix(in_walk_order(moved))), braid
            assert got.normalize() == expected, braid

    def test_wide_coefficients_take_several_primes(self):
        rng = random.Random(2**40)
        for _ in range(60):
            rows = [
                {
                    col: (rng.randint(-(2**40), 2**40), rng.randint(-(2**40), 2**40))
                    for col in rng.sample(range(4), rng.randint(1, 4))
                }
                for _ in range(4)
            ]
            assert determinant_bound(rows) > 2**244
            expected = cofactor_determinant(as_dense(rows))
            assert linear_determinant(rows) == expected == node_determinant(rows)

    @pytest.mark.parametrize("c", [P61 // 2, P61 // 2 + 1, -(P61 // 2) - 1])
    def test_coefficient_past_half_the_first_prime(self, c):
        # A coefficient over half the node oracle's modulus lifts to the
        # wrong sign: its bound must take a second prime for |c| > P61 / 2.
        for rows, expected in (([{0: (c, 0)}], {0: c}), ([{0: (0, c)}], {1: c})):
            expected = LaurentPoly.from_dict(expected)
            assert linear_determinant(rows) == expected == node_determinant(rows)

    def test_small_coefficients_vanish_at_evaluation_points(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [
                {col: (rng.randint(-2, 2), rng.randint(-2, 2)) for col in rng.sample(range(n), rng.randint(0, n))}
                for _ in range(n)
            ]
            rows = [{col: entry for col, entry in row.items() if entry != (0, 0)} for row in rows]
            assert linear_determinant(rows) == cofactor_determinant(as_dense(rows)), rows

    def test_minor_singular_at_evaluation_points(self):
        # 6_1: the minor's determinant 2t - 5t^2 + 2t^3 vanishes at t = 2,
        # one of the node oracle's evaluation points 2..7.
        pd = parse_pd("X(1,4,2,5) X(7,10,8,11) X(3,9,4,8) X(9,3,10,2) X(5,12,6,1) X(11,6,12,7)")
        rows = alexander_rows(pd)
        expected = parse_poly("2t - 5t^2 + 2t^3")
        assert degree_bound(rows) == 5
        assert linear_determinant(rows) == expected == node_determinant(rows)
        assert bareiss_determinant(alexander_matrix(in_walk_order(pd))) == expected
        # (t - 2)(t - 3), singular at two of the oracle's points 2..5
        rows = [{0: (-2, 1), 2: (-2, 1)}, {0: (1, 1), 1: (-1, 0), 2: (1, 0)}, {0: (-2, 1), 2: (1, 0)}]
        assert degree_bound(rows) == 3
        expected = P("6 - 5t + t^2")
        assert linear_determinant(rows) == expected == node_determinant(rows) == cofactor_determinant(as_dense(rows))

    @settings(max_examples=200, deadline=None)
    @given(vanishing_rows(), st.sampled_from((5, 7, 101, P61)))
    def test_replayed_pivots_match_one_elimination_per_node(self, rows, p):
        nodes = range(2, degree_bound(rows) + 3)
        assert _determinants_mod(rows, nodes, p) == [_determinant_mod(rows, x, p)[0] for x in nodes]

    def test_singular_where_the_pivots_are_chosen(self):
        # (t - 4)(t - 5): singular at the last two of the nodes 2..5, so
        # the pivots are chosen at t = 3.
        rows = [{0: (-4, 1), 2: (-4, 1)}, {0: (1, 1), 1: (-1, 0), 2: (1, 0)}, {0: (-4, 1), 2: (1, 0)}]
        assert degree_bound(rows) == 3
        assert _determinant_mod(rows, 5, P61)[0] == _determinant_mod(rows, 4, P61)[0] == 0
        assert _determinants_mod(rows, range(2, 6), P61) == [6, 2, 0, 0]
        expected = P("20 - 9t + t^2")
        assert node_determinant(rows) == expected == linear_determinant(rows) == cofactor_determinant(as_dense(rows))

    def test_replayed_pivot_vanishing_where_the_determinant_does_not(self):
        # t (2t - 7): the pivots chosen at t = 4 take t - 3 as the second
        # pivot, which vanishes at the node 3 where the determinant is -3.
        rows = [{0: (-3, 1), 1: (1, 0)}, {0: (1, 0), 1: (2, 0)}, {2: (0, 1)}]
        assert degree_bound(rows) == 2
        det, pivots = _determinant_mod(rows, 4, P61)
        assert (det, pivots[1]) == (4, (0, 0))
        assert _replay_mod(rows, pivots, [2, 3], P61) == [P61 - 6, None]
        assert _determinants_mod(rows, range(2, 5), P61) == [P61 - 6, P61 - 3, 4]
        expected = P("-7t + 2t^2")
        assert node_determinant(rows) == expected == linear_determinant(rows) == cofactor_determinant(as_dense(rows))

    def test_rejects_non_square_rows(self):
        with pytest.raises(ValueError, match="non-square"):
            linear_determinant([{0: (1, 0), 1: (0, 1)}])

    def test_primes_are_the_61_bit_primes_from_the_top(self):
        primes = kernel_oracle._primes()
        found = [next(primes) for _ in range(3)]
        assert found[0] == 2**61 - 1
        for above, below in zip(found, found[1:]):
            assert 2**60 < below < above
            assert is_prime(below)
            assert not any(is_prime(c) for c in range(below + 2, above, 2))

    def test_import_does_no_prime_search(self):
        # The library holds no primes at all; the node oracle finds its
        # first one on first use.
        code = (
            "import knotdom, knotdom.alexander as a, kernel_oracle as o\n"
            "assert not hasattr(a, '_PRIMES')\n"
            "assert o._PRIMES == [], o._PRIMES\n"
            "pd = knotdom.parse_pd('X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)')\n"
            "o.node_determinant(a.alexander_rows(pd))\n"
            "assert o._PRIMES == [2**61 - 1], o._PRIMES\n"
        )
        paths = [str(Path(knotdom.__file__).parents[1]), str(Path(kernel_oracle.__file__).parent)]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": os.pathsep.join(paths)}
        )
        assert proc.returncode == 0, proc.stderr

    @settings(max_examples=150, deadline=None)
    @given(wide_rows())
    def test_wide_sparse_rows_against_both_oracles(self, rows):
        dense = as_dense(rows)
        assert linear_determinant(rows) == bareiss_determinant(dense) == cofactor_determinant(dense)

    @pytest.mark.parametrize("k", [0, 1, 2, 31, 60, 61, 62, 200])
    def test_coefficients_at_the_hadamard_bound(self, k):
        # (c, 0) and (0, c) meet the bound: their one coefficient is
        # H^(1/2) = |c|, which X / 2 must still exceed.  So do the
        # Hadamard matrix [[t, t], [t, -t]], det -2t^2, and its scalings.
        for c in (2**k, 2**k - 1, -(2**k), 2**k + 1):
            if c:
                for rows, expected in (([{0: (c, 0)}], {0: c}), ([{0: (0, c)}], {1: c})):
                    assert linear_determinant(rows) == LaurentPoly.from_dict(expected)
        c = 2**k
        rows = [{0: (0, c), 1: (0, c)}, {0: (0, c), 1: (0, -c)}]
        assert linear_determinant(rows) == LaurentPoly.from_dict({2: -2 * c * c})
        rows = [{0: (c, 0), 1: (c, 0)}, {0: (c, 0), 1: (-c, 0)}]
        assert linear_determinant(rows) == LaurentPoly.from_dict({0: -2 * c * c})

    def test_rows_that_wait_several_steps(self):
        # Markowitz pivots on rows 0 to 6 in turn.  Rows 3 and 6 are first
        # touched at steps 3 and 5, up from the identity pivot of step 0;
        # row 5, touched at step 1, waits until step 4; row 4 is touched by
        # no step and is brought up from step 0 as the pivot row of step 5.
        rows = [
            {0: (2, 1)},
            {0: (1, -1), 1: (3, -1)},
            {1: (-1, 2), 2: (1, 3)},
            {2: (2, -1), 3: (-2, 1), 5: (1, 1)},
            {4: (5, 1), 6: (1, 2)},
            {0: (1, 1), 3: (1, 0), 5: (2, -3), 6: (1, 0)},
            {3: (1, 2), 4: (-1, 1), 6: (3, 0)},
        ]
        expected = cofactor_determinant(as_dense(rows))
        assert not expected.is_zero()
        assert linear_determinant(rows) == expected == bareiss_determinant(as_dense(rows))
        assert linear_determinant(rows[::-1]) == -expected  # three row swaps

    def test_eighty_crossing_closures_against_the_node_oracle(self):
        rng = random.Random(80)
        for strands in (3, 4, 5, 6):
            braid = random_knot_braid(rng, strands, 80 + (strands % 2 == 0))
            rows = alexander_rows(braid_to_pd(braid))
            assert linear_determinant(rows) == node_determinant(rows), braid


def P(text):
    return parse_poly(text)


def random_poly(rng: random.Random, max_terms: int = 5) -> LaurentPoly:
    low = rng.randint(-3, 3)
    return LaurentPoly.from_dict(
        {low + i: rng.randint(-4, 4) for i in range(rng.randint(1, max_terms))}
    )


def spread_poly(rng: random.Random, step: int) -> LaurentPoly:
    """A few terms whose exponents lie up to `step` apart."""
    exps = [rng.randint(-step, step)]
    for _ in range(rng.randint(0, 3)):
        exps.append(exps[-1] + rng.randint(1, step))
    return LaurentPoly.from_dict({e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps})


def nonzero_poly(rng: random.Random) -> LaurentPoly:
    while True:
        p = random_poly(rng)
        if not p.is_zero():
            return p


class TestIntegerDivision:
    def test_exact_products(self):
        rng = random.Random(3)
        for _ in range(400):
            a, b = random_poly(rng), nonzero_poly(rng)
            product = a * b
            assert product.divided_by(b) == a, (a, b)
            assert product.divided_by(b) == fraction_divided_by(product, b), (a, b)

    def test_inexact_products(self):
        rng = random.Random(4)
        inexact = 0
        for _ in range(400):
            a, b, r = random_poly(rng), nonzero_poly(rng), nonzero_poly(rng)
            dividend = a * b + r
            assert dividend.divided_by(b) == fraction_divided_by(dividend, b), (a, b, r)
            inexact += fraction_divided_by(dividend, b) is None
        assert inexact > 300

    @pytest.mark.parametrize(
        "dividend, divisor, quotient",
        [
            ("1 + t^2", "2 + 3t", None),  # the first step leaves 1/3
            ("2 + 5t + 3t^2", "2 + 3t", "1 + t"),
            ("1 + 2t", "2 + 4t", None),  # divides over Q, not over Z
            ("3t^-1 + 4 + 5t^3", "2 + 3t", None),
            ("-6 + 3t^2", "3", "-2 + t^2"),
            ("t^-3 + 1", "t^-1 + 1", "t^-2 - t^-1 + 1"),
        ],
    )
    def test_non_monic_divisors(self, dividend, divisor, quotient):
        p, d = parse_poly(dividend), parse_poly(divisor)
        expected = None if quotient is None else parse_poly(quotient)
        assert p.divided_by(d) == expected
        assert fraction_divided_by(p, d) == expected

    def test_spread_exponents(self):
        rng = random.Random(9)
        inexact = 0
        for _ in range(200):
            step = rng.randint(20, 120)
            a, b = spread_poly(rng, step), spread_poly(rng, step)
            if b.is_zero():
                continue
            for dividend in (a * b, a * b + spread_poly(rng, rng.randint(1, 300))):
                if dividend.is_zero():
                    continue
                expected = fraction_divided_by(dividend, b)
                assert dividend.divided_by(b) == expected, (dividend, b)
                inexact += expected is None
        assert inexact > 100

    def test_normalize_and_exact_div_match_rebuilding_oracle(self):
        # normalize returns a normalized polynomial as it is; values and
        # quotients up to units are those of the normalize that rebuilds
        rng = random.Random(12)
        kept = 0
        for _ in range(400):
            a, b = random_poly(rng), nonzero_poly(rng)
            for p in (a, b, a * b, spread_poly(rng, 40)):
                assert p.normalize() == shift_normalize(p), p
                kept += p.normalize() is p
            for dividend in (a * b, a * b + nonzero_poly(rng)):
                expected = fraction_divided_by(shift_normalize(dividend), shift_normalize(b))
                assert exact_div(dividend, b) == expected, (dividend, b)
                assert exact_div(dividend.normalize(), b.normalize()) == expected, (dividend, b)
        assert kept > 100

    def test_unit_divisor_skips_the_division(self, monkeypatch):
        # a divisor +-t^k normalizes to 1: exact_div returns the normalized
        # dividend, which is what dividing it by 1 gives
        rng = random.Random(13)
        units = [LaurentPoly.from_dict({k: sign}) for k in range(-3, 4) for sign in (1, -1)]
        cases = [(random_poly(rng), rng.choice(units)) for _ in range(200)]
        expected = [a.normalize().divided_by(LaurentPoly.const(1)) for a, _ in cases]
        assert expected == [a.normalize().divided_by(u) * u for a, u in cases]
        monkeypatch.setattr(LaurentPoly, "divided_by", lambda self, divisor: pytest.fail("divided"))
        assert [exact_div(a, u) for a, u in cases] == expected
        assert any(q.is_zero() for q in expected) and any(not q.is_one() for q in expected)

    def test_huge_sparse_degrees(self):
        # Memory follows the terms, not the degree span: one slot per degree
        # would take over 100 MB here.
        n = 2 * 10**6
        dividend, divisor = LaurentPoly.from_dict({0: 1, 2 * n: -1, 4 * n: 1}), LaurentPoly.from_dict({0: 1, n: -1, 2 * n: 1})
        cube = LaurentPoly.from_dict({-n: 1, 2 * n: 1})
        tracemalloc.start()
        try:
            assert dividend.divided_by(divisor) is None
            assert cube.divided_by(LaurentPoly.from_dict({0: 1, n: 1})) == LaurentPoly.from_dict({-n: 1, 0: -1, n: 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDiagramWalks:
    def test_walks_match_the_union_find_oracles(self):
        # The walk numbers Wirtinger arcs in its own order: its rows are the
        # union-find presentation's minor once generators are renamed in
        # that order, and without renaming the determinants agree up to a
        # unit.
        def same_invariants(pd):
            assert seifert_circles(pd) == union_find_seifert_circles(pd), pd
            rows = alexander_rows(pd)
            assert rows == linear_rows(alexander_matrix(in_walk_order(pd))), pd
            old = linear_rows(alexander_matrix(union_find_wirtinger(pd)))
            assert linear_determinant(rows).normalize() == linear_determinant(old).normalize(), pd

        for text in ("X(1,1,2,2)", "X(1,2,2,1)", "X(2,1,3,2) X(4,4,1,3)"):
            same_invariants(parse_pd(text))
        rng = random.Random(2020)
        knots = errors = 0
        for _ in range(1500):
            strands = rng.randint(2, 6)
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 30)))
            braid = BraidWord(strands, letters)
            try:
                expected = union_find_braid_to_pd(braid)
            except DiagramError as exc:
                with pytest.raises(DiagramError) as raised:
                    braid_to_pd(braid)
                assert str(raised.value) == str(exc), braid
                errors += 1
                continue
            pd = braid_to_pd(braid)
            assert pd.crossings == expected.crossings, braid
            knots += 1
            same_invariants(pd)
            if pd.crossing_count:
                shuffled = PDCode.from_tuples(rng.sample(pd.crossings, len(pd.crossings)))
                same_invariants(rotated(shuffled, rng.randrange(2 * pd.crossing_count)))
        assert knots > 300 and errors > 300
