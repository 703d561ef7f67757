"""Laurent polynomial arithmetic: worked examples and ring-law property
suites."""
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotdom.laurent import (
    LaurentPoly,
    divides,
    format_poly,
    is_prime,
    is_prime_power,
    parse_poly,
)

from kernel_oracle import exact_div, fraction_eval_int, trial_division_is_prime_power

T = LaurentPoly.t()
ONE = LaurentPoly.const(1)


def test_module_doctests():
    import doctest

    import knotdom.laurent as module

    failures, _ = doctest.testmod(module)
    assert failures == 0


def P(text):
    return parse_poly(text)


polys = st.builds(
    LaurentPoly.from_dict,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
units = st.builds(lambda e, s: LaurentPoly.t(e, 1 if s else -1), st.integers(-5, 5), st.booleans())


class TestConstruction:
    def test_terms_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            LaurentPoly(((2, 1), (0, 1)))
        with pytest.raises(ValueError, match="strictly increase"):
            LaurentPoly(((0, 1), (0, 2)))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="zero at exponent 1"):
            LaurentPoly(((0, 1), (1, 0)))

    def test_zero_polynomial_leading_coefficient(self):
        assert LaurentPoly().leading_coefficient == 0
        assert P("2 - 3t").leading_coefficient == -3

    def test_zero_polynomial_has_no_degree(self):
        for degree in ("min_degree", "max_degree"):
            with pytest.raises(ValueError, match="^zero polynomial has no degree$"):
                getattr(LaurentPoly(), degree)

    @pytest.mark.parametrize(
        "combine", [lambda: T + 1.5, lambda: T * 0.5, lambda: 0.5 * T], ids=["add", "mul", "rmul"]
    )
    def test_float_operand_rejected(self, combine):
        with pytest.raises(TypeError, match="cannot combine"):
            combine()


class TestMul:
    def test_identity_factorization(self):
        assert (ONE + T) * (ONE - T + LaurentPoly.t(2)) == P("1 + t^3")

    def test_cable_factor_expansion(self):
        # hand expansion of (1 - t - t^2)(1 - t + t^2)(1 + t - t^2)
        assert P("1 - t + t^2") * P("1 - 3t^2 + t^4") == P(
            "1 - t - 2t^2 + 3t^3 - 2t^4 - t^5 + t^6"
        )
        assert P("1 - t - t^2") * P("1 + t - t^2") == P("1 - 3t^2 + t^4")

    def test_zero_absorbs(self):
        for p in (ONE, P("1 - t + t^2"), LaurentPoly.t(-3)):
            assert p * LaurentPoly() == LaurentPoly()

    
    @settings(max_examples=150)
    @given(polys, polys)
    def test_commutative(self, a, b):
        assert a * b == b * a

    
    @settings(max_examples=150)
    @given(polys, polys, polys)
    def test_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    
    @settings(max_examples=150)
    @given(polys, polys)
    def test_degrees_add(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            prod = a * b
            assert prod.min_degree == a.min_degree + b.min_degree
            assert prod.max_degree == a.max_degree + b.max_degree


class TestExactDiv:
    def test_inverse_of_identity(self):
        assert exact_div(P("1 + t^3"), P("1 + t")) == P("1 - t + t^2")

    def test_band_sum_division_fails(self):
        assert exact_div(P("1 - t^2 + t^4"), P("1 - t + t^2")) is None

    def test_cable_quotient(self):
        assert exact_div(
            P("1 - t - 2t^2 + 3t^3 - 2t^4 - t^5 + t^6"), P("1 - t + t^2")
        ) == P("1 - 3t^2 + t^4")

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(ONE, LaurentPoly())
        with pytest.raises(ZeroDivisionError, match="zero polynomial"):
            P("1 + t").divided_by(LaurentPoly())

    def test_zero_dividend(self):
        assert exact_div(LaurentPoly(), ONE + T) == LaurentPoly()

    
    @settings(max_examples=150)
    @given(polys, nonzero_polys)
    def test_roundtrip(self, a, b):
        assert exact_div(a * b, b) == a.normalize()

    
    @settings(max_examples=150)
    @given(polys, nonzero_polys, units, units)
    def test_unit_invariance(self, a, b, u, v):
        assert (exact_div(a, b) is None) == (exact_div(u * a, v * b) is None)


class TestDivides:
    """`divides(b, a)` against the long-division oracle `exact_div`."""

    def agrees(self, b, a):
        answer = divides(b, a)
        assert answer == (exact_div(a, b) is not None), (b, a)
        return answer

    @pytest.fixture
    def divisions(self, monkeypatch):
        """The number of `divided_by` calls made so far."""
        count = []
        original = LaurentPoly.divided_by
        monkeypatch.setattr(LaurentPoly, "divided_by", lambda self, d: count.append(1) or original(self, d))
        return count

    @settings(max_examples=200)
    @given(polys, nonzero_polys, units, units)
    def test_products(self, a, b, u, v):
        assert self.agrees(v * b, u * a * b)

    @settings(max_examples=200)
    @given(polys, nonzero_polys, nonzero_polys)
    def test_non_products(self, a, b, r):
        self.agrees(b, a * b + r)
        self.agrees(b, a)

    @pytest.mark.parametrize("unit", ["1", "-1", "t^3", "-t^-2"])
    def test_units(self, unit, divisions):
        a = P("3t^-1 - 4 + 2t^5")
        assert divides(P(unit), a) and divides(P(unit), LaurentPoly())
        assert not divisions
        assert self.agrees(a, P(unit) * a) and not self.agrees(a, P(unit))

    def test_content_above_one(self):
        b = P("2 + 2t")
        assert self.agrees(b, P("2 + 4t + 2t^2"))
        assert not self.agrees(b, P("1 + 2t + t^2"))  # divides over Q, not over Z
        assert not self.agrees(b, P("2 + 3t + t^2"))
        assert self.agrees(P("6"), P("6 - 12t^5")) and not self.agrees(P("6"), P("3 - 12t^5"))

    def test_zero(self):
        assert self.agrees(P("1 - t + t^2"), LaurentPoly())
        with pytest.raises(ZeroDivisionError):
            divides(LaurentPoly(), ONE)

    def test_lower_degree_dividend(self):
        assert not self.agrees(P("1 - t + t^2"), P("1 + t"))
        assert not self.agrees(P("2 - 3t + 2t^2"), P("t^-4"))

    def test_jones_polynomials(self):
        trefoil = P("-t^-4 + t^-3 + t^-1")
        assert self.agrees(trefoil, trefoil * P("t^-2 - t^-1 + 1 - t + t^2"))
        assert not self.agrees(trefoil, P("t^-2 - t^-1 + 1 - t + t^2"))
        assert not self.agrees(trefoil, trefoil * P("t^-1 + t") + ONE)

    @pytest.mark.parametrize("copies, divided", [(10, False), (200, True)])
    def test_both_routes(self, copies, divided, divisions):
        # Delta of a sum of trefoils; a long dense dividend would pack into
        # more words than long division takes steps, so it is divided.
        a = math.prod([P("1 - t + t^2")] * copies, start=ONE)
        assert divides(P("1 - t + t^2"), a) and not divides(P("1 - 3t + t^2"), a)
        assert divides(P("1 - t + t^2"), a + ONE) is False
        assert bool(divisions) is divided
        assert self.agrees(P("1 - t + t^2"), a) and not self.agrees(P("1 - 3t + t^2"), a)

    @pytest.mark.parametrize("n", [10**7, 10**12])
    def test_huge_sparse_dividend_refuted_mod_p(self, n, divisions):
        # a nonzero remainder mod p answers without walking the gap of 2n
        b = P("1 - t + t^2")
        a = LaurentPoly.from_dict({0: 1, n: -1, 2 * n: 1})
        start = time.perf_counter()
        assert not divides(b, a) and not divides(b * P("2 - 3t + 2t^2"), a)
        assert time.perf_counter() - start < 0.5
        assert not divisions

    def test_sparse_dividend_that_divides_is_divided(self, divisions):
        # 1 - t + t^2 divides t^6 - 1, so 1 - t^600, but not 1 - t^601
        assert self.agrees(P("1 - t + t^2"), LaurentPoly.from_dict({0: 1, 600: -1}))
        assert len(divisions) == 2  # divides, then the oracle
        assert not self.agrees(P("1 - t + t^2"), LaurentPoly.from_dict({0: 1, 601: -1}))

    def test_leading_coefficient_a_multiple_of_the_first_prime(self):
        # p = 2^61 - 1 divides lc(b), so the reduction takes the next prime
        b = ONE + LaurentPoly.t(1, 2**61 - 1)
        assert self.agrees(b, b * P("1 + t^300")) and not self.agrees(b, P("1 + t^300"))


class TestNormalize:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (P("t^-2 - t^-1 + 1"), P("1 - t + t^2")),
            (P("-t + 3t^2 - t^3"), P("1 - 3t + t^2")),
            (LaurentPoly(), LaurentPoly()),
        ],
    )
    def test_examples(self, raw, expected):
        assert raw.normalize() == expected

    
    @settings(max_examples=150)
    @given(polys)
    def test_idempotent(self, a):
        assert a.normalize().normalize() == a.normalize()

    
    @settings(max_examples=150)
    @given(polys, units)
    def test_unit_invariant(self, a, u):
        assert (u * a).normalize() == a.normalize()

    
    def test_normalized_is_returned_as_is(self):
        p = P("1 - t + t^2")
        assert p.normalize() is p
        assert LaurentPoly().normalize().is_zero()
        for raw in (P("t - t^2 + t^3"), P("-1 + t - t^2")):
            assert raw.normalize() is not raw and raw.normalize() == p

    
    @settings(max_examples=150)
    @given(polys)
    def test_normalize_of_normalized_is_identity(self, a):
        n = a.normalize()
        assert n.normalize() is n

    
    @settings(max_examples=150)
    @given(nonzero_polys)
    def test_shape(self, a):
        n = a.normalize()
        assert n.min_degree == 0 and n.terms[0][1] > 0


class TestEvalInt:
    def test_small_knot_determinants(self):
        assert P("1 - t + t^2").eval_int(-1) == 3
        assert P("1 - 3t + t^2").eval_int(-1) == 5
        assert P("2 - 3t + 2t^2").eval_int(1) == 1

    def test_negative_exponents_exact(self):
        # at -1 each term's sign follows its exponent's parity, t^-e as t^e
        assert P("2t^-1 + 4").eval_int(-1) == 2
        assert P("t^-3 + t^-2 + 3t").eval_int(-1) == -3
        assert P("t^-2 + t").eval_int(1) == 2
        for x in (0, 2, -2, 3, -3, 5):
            with pytest.raises(ValueError, match=f"^eval_int evaluates at 1 and -1 only, not at {x}$"):
                P("2t^-1 + 4").eval_int(x)

    def test_zero_rejected(self):
        for p in (T, P("t^-2 + 3"), LaurentPoly()):
            with pytest.raises(ValueError):
                p.eval_int(0)

    @settings(max_examples=600)
    @given(polys, st.sampled_from([0, -7]), st.sampled_from([1, -1, 0, 2, -2, 3, -3, 5]))
    def test_matches_fraction_oracle(self, p, shift, x):
        # shifted by -7 every exponent is negative; only +-1 has a value
        p = p.shift(shift)
        if x in (1, -1):
            value = p.eval_int(x)
            assert value == fraction_eval_int(p, x) and type(value) is int
        else:
            with pytest.raises(ValueError, match=f"not at {x}$"):
                p.eval_int(x)

    def test_corpus_and_adhoc_invariants_build_no_fraction(self, capsys, corpus_path):
        import knotdom.laurent
        from knotdom.cli import EXIT_OK, main
        from knotdom.knotbase import load_corpus

        assert "Fraction" not in vars(knotdom.laurent)
        load_corpus(corpus_path)
        assert main(["invariants", "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"]) == EXIT_OK
        assert "determinant: 5" in capsys.readouterr().out


class TestIsPrimePower:
    @pytest.mark.parametrize(
        "n, expected",
        [(8, True), (12, False), (1, False), (2, True), (3, True), (49, True),
         (6, False), (27, True), (1024, True), (100, False), (97, True)],
    )
    def test_values(self, n, expected):
        assert is_prime_power(n) is expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_prime_power(0)

    def test_matches_trial_division_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            assert is_prime_power(n) is trial_division_is_prime_power(n), n

    def test_matches_trial_division_on_seeded_prime_powers(self):
        # primes above the trial-division range, so that roots and
        # Miller-Rabin decide; every case stays below the proven bound
        rng = random.Random(43)
        primes = [
            p for p in (rng.randrange(43, 20000) for _ in range(400))
            if all(p % d for d in range(2, math.isqrt(p) + 1))
        ]
        kinds = set()
        for _ in range(300):
            p, q = rng.sample(primes, 2)
            e = rng.randint(1, 4)
            for n in (p**e, p**e * q, p**2 * q**2, p**e * 2**rng.randint(1, 3)):
                expected = trial_division_is_prime_power(n)
                assert is_prime_power(n) is expected, n
                kinds.add(expected)
        assert kinds == {True, False}

    @pytest.mark.parametrize(
        "n, expected",
        [
            pytest.param(1000000000000000003, True, id="19-digit prime"),
            pytest.param((10**18 + 3) ** 3, True, id="its cube, root below the bound"),
            pytest.param(318665857834031151167461, False, id="strong pseudoprime to 12 prime bases"),
            pytest.param(3825123056546413051, False, id="strong pseudoprime to 9 prime bases"),
            pytest.param(3317044064679887385961981, None, id="the bound, pseudoprime to all 13"),
            pytest.param(2**89 - 1, None, id="prime beyond the bound"),
            pytest.param((2**89 - 1) ** 2, None, id="its square"),
            pytest.param(3 * (2**89 - 1), False, id="three times it"),
        ],
    )
    def test_miller_rabin_range(self, n, expected):
        assert is_prime_power(n) is expected

    @pytest.mark.parametrize(
        "n, expected",
        [
            pytest.param((10**18 + 3) ** 1000, True, id="1000th power of a 19-digit prime"),
            pytest.param(1009**7000, True, id="7000th power of 1009"),
            pytest.param(1009**6999 * 1013, None, id="times another prime: no root below the bound"),
            pytest.param((1009 * 1013) ** 1000, False, id="1000th power of a product of two primes"),
        ],
    )
    def test_large_powers_take_few_roots(self, n, expected):
        # One integer root per exponent took about 20 s on the first two;
        # the 2-adic candidates take well under 0.1 s.
        start = time.perf_counter()
        assert is_prime_power(n) is expected
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize(
        "n, expected",
        [(0, False), (1, False), (2, True), (41, True), (43, True), (43 * 47, False),
         (2**61 - 1, True), (2**61 + 1, False), (3825123056546413051, False),
         (3317044064679887385961981, None)],
    )
    def test_is_prime(self, n, expected):
        assert is_prime(n) is expected



class TestTextForm:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (P("1 - t + t^2"), "1 - t + t^2"),
            (P("2 - 3t + 2t^2"), "2 - 3t + 2t^2"),
            (LaurentPoly(), "0"),
            (LaurentPoly.from_dict({-4: -1, -3: 1, -1: 1}), "-t^-4 + t^-3 + t^-1"),
            (
                LaurentPoly.from_dict({-5: 1, -4: -1, 1: 1, 3: 1, 4: -1, 7: -1, 8: 1}),
                "t^-5 - t^-4 + t + t^3 - t^4 - t^7 + t^8",
            ),
        ],
    )
    def test_golden(self, poly, text):
        assert format_poly(poly) == text
        assert parse_poly(text) == poly

    def test_star_form_accepted(self):
        assert parse_poly("2 - 3*t + 2*t^2") == P("2 - 3t + 2t^2")

    def test_malformed_rejected(self):
        for bad in ["", "t +", "1 ++ t", "q^2", "2 - - t"]:
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_terms_need_a_sign_between_them(self):
        with pytest.raises(ValueError, match=r"^expected '\+' or '-' at offset 2 in '1 2'$"):
            parse_poly("1 2")

    
    @settings(max_examples=150)
    @given(polys)
    def test_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p
