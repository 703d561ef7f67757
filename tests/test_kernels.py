"""The frontier-sweep Kauffman bracket and integer exact division against
the kernels they replaced (`kernel_oracle`), on seeded random input."""
import random

import pytest

from knotdom.alexander import jones_polynomial, kauffman_bracket
from knotdom.diagram import BraidWord, DiagramError, PDCode, braid_to_pd, parse_pd
from knotdom.laurent import LaurentPoly, parse_poly
from kernel_oracle import fraction_divided_by, state_sum_bracket


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


def random_closures(seed: int, count: int, max_crossings: int):
    """Knots closing random 3- to 6-strand braids of 3 to max_crossings
    letters; a knot on s strands needs at least s - 1 letters and their
    count must have the parity of s - 1."""
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(3, 6)
        length = rng.randrange(strands - 1, max_crossings + 1, 2)
        if length < 3:
            length += 2
        braid = random_knot_braid(rng, strands, length)
        yield rng, braid, braid_to_pd(braid)


class TestBracketSweep:
    @pytest.mark.parametrize(
        "text",
        ["", "X(1,1,2,2)", "X(2,1,3,2) X(4,4,1,3)", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"],
    )
    def test_kinks_and_small_diagrams(self, text):
        pd = parse_pd(text)
        assert kauffman_bracket(pd) == state_sum_bracket(pd)

    def test_random_closures_mirrors_and_shuffles(self):
        for rng, braid, pd in random_closures(20261018, 30, 12):
            expected = state_sum_bracket(pd)
            assert kauffman_bracket(pd) == expected, braid
            mirror = pd.mirror()
            assert kauffman_bracket(mirror) == state_sum_bracket(mirror), braid
            shuffled = PDCode.from_tuples(rng.sample(pd.crossings, len(pd.crossings)))
            assert kauffman_bracket(shuffled) == expected, braid


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


def random_poly(rng: random.Random, max_terms: int = 5) -> LaurentPoly:
    low = rng.randint(-3, 3)
    return LaurentPoly.from_dict(
        {low + i: rng.randint(-4, 4) for i in range(rng.randint(1, max_terms))}
    )


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
