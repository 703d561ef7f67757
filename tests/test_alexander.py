"""Alexander and Jones computations against independent oracles and the
printed worked examples."""
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotdom.alexander import (
    alexander_polynomial,
    alexander_rows,
    braid_alexander_polynomial,
    connected_sum_delta,
    determinant_invariant,
    jones_polynomial,
    kauffman_bracket,
    linear_determinant,
    satellite_delta,
)
from knotdom.diagram import BraidWord, braid_to_pd, parse_braid, parse_pd, seifert_circles
from knotdom.laurent import LaurentPoly, parse_poly
from kernel_oracle import (
    alexander_matrix,
    bareiss_determinant,
    fox_delta,
    fox_matrix,
    in_walk_order,
    linear_rows,
    union_find_wirtinger,
)

TREFOIL = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
FIG8 = parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)")
FIVE2 = parse_pd("X(1,4,2,5) X(3,8,4,9) X(5,10,6,1) X(9,6,10,7) X(7,2,8,3)")
UNKNOT = parse_pd("")
GRANNY = braid_to_pd(parse_braid("B3: 1 1 1 2 2 2"))
TREFOIL_ALT = braid_to_pd(parse_braid("B2: -1 -1 -1 -1 1"))

BUNDLED = {
    "3_1": TREFOIL,
    "4_1": FIG8,
    "5_2": FIVE2,
    "unknot": UNKNOT,
    "granny": GRANNY,
    "trefoil_alt": TREFOIL_ALT,
    "5_1": parse_pd("X(2,8,3,7) X(4,10,5,9) X(6,2,7,1) X(8,4,9,3) X(10,6,1,5)"),
    "6_2": braid_to_pd(parse_braid("B3: 1 1 1 -2 1 -2")),
}


def P(text):
    return parse_poly(text)


def braid_fox_delta(braid):
    return fox_delta(braid_to_pd(braid))


# Fox on the closure's PD code, and the reduced Burau kernel.
BRAID_KERNELS = (braid_fox_delta, braid_alexander_polynomial)


def cofactor_determinant(rows):
    """Naive cofactor expansion, the independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.const(1)
    if n == 1:
        return rows[0][0]
    total = LaurentPoly()
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [
            [row[k] for k in range(n) if k != j] for row in rows[1:]
        ]
        term = entry * cofactor_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def minor_delta(pd, row, col):
    """Normalized determinant, by `linear_determinant`, of the Fox matrix of
    pd with relation `row` and generator `col` deleted."""
    rows = fox_matrix(union_find_wirtinger(pd))
    minor = [entries[:col] + entries[col + 1:] for entries in rows[:row] + rows[row + 1:]]
    return linear_determinant(linear_rows(minor)).normalize()


def skein_bracket(crossings):
    """Recursive skein expansion of the bracket: smooth one crossing at a
    time, then count loops of the final pairing.  Structurally independent
    of the state-sum implementation."""
    delta = LaurentPoly.from_dict({2: -1, -2: -1})  # the loop value, in the variable A = t

    slot_pairs = []
    slots = {}
    for ci, (a, b, c, d) in enumerate(crossings):
        for pos, e in enumerate((a, b, c, d)):
            slots.setdefault(e, []).append((ci, pos))
    for pair in slots.values():
        slot_pairs.append(tuple(pair))

    def loops(joins):
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in slot_pairs + joins:
            parent[find(x)] = find(y)
        return len({find(x) for x in parent})

    def rec(ci, joins, exponent):
        if ci == len(crossings):
            return LaurentPoly.t(exponent) * math.prod([delta] * (loops(joins) - 1), start=LaurentPoly.const(1))
        a_side = rec(ci + 1, joins + [((ci, 0), (ci, 1)), ((ci, 2), (ci, 3))], exponent + 1)
        b_side = rec(ci + 1, joins + [((ci, 0), (ci, 3)), ((ci, 1), (ci, 2))], exponent - 1)
        return a_side + b_side

    if not crossings:
        return LaurentPoly.const(1)
    return rec(0, [], 0)


def skein_jones(pd):
    bracket = skein_bracket(pd.crossings)
    w = pd.writhe()
    corrected = bracket.shift(-3 * w)
    if w % 2:
        corrected = -corrected
    return LaurentPoly.from_dict({-e // 4: c for e, c in corrected.terms})


class TestAlexanderPolynomial:
    @pytest.mark.parametrize(
        "pd, expected",
        [
            (TREFOIL, "1 - t + t^2"),
            (FIG8, "1 - 3t + t^2"),
            (FIVE2, "2 - 3t + 2t^2"),
            (UNKNOT, "1"),
        ],
    )
    def test_printed_values(self, pd, expected):
        assert alexander_polynomial(pd) == P(expected)

    def test_braid_closure_downstream_values(self):
        values = {
            "B1: ": "1",
            "B2: 1": "1",
            "B2: 1 1 1": "1 - t + t^2",
            "B2: 1 -1 1": "1",
            "B2: -1 -1 -1": "1 - t + t^2",
            "B3: 1 -2 1 -2": "1 - 3t + t^2",
            "B3: 1 1 1 2 2 2": "1 - 2t + 3t^2 - 2t^3 + t^4",
        }
        for kernel in BRAID_KERNELS:
            for text, expected in values.items():
                assert kernel(parse_braid(text)) == P(expected), (kernel, text)

    def test_all_bundled_against_cofactor_oracle(self):
        for name, pd in BUNDLED.items():
            matrix = alexander_matrix(in_walk_order(pd))
            direct = cofactor_determinant([list(r) for r in matrix])
            assert bareiss_determinant(matrix) == direct, name
            assert linear_determinant(alexander_rows(pd)) == direct, name
            assert alexander_polynomial(pd) == direct.normalize(), name

    def test_delta_at_one_is_unit(self):
        for name, pd in BUNDLED.items():
            assert abs(int(alexander_polynomial(pd).eval_int(1))) == 1, name

    def test_palindromic(self):
        for name, pd in BUNDLED.items():
            delta = alexander_polynomial(pd)
            coeffs = delta.coefficients()
            top = delta.max_degree
            assert all(
                coeffs.get(e, 0) == coeffs.get(top - e, 0) for e in range(top + 1)
            ), name

    def test_deletion_choice_independent(self):
        for name, pd in BUNDLED.items():
            if pd.crossing_count > 5:
                continue
            reference = alexander_polynomial(pd)
            n = pd.crossing_count  # relations, and generators (arcs)
            for row in range(n):
                for col in range(n):
                    assert minor_delta(pd, row, col) == reference, (name, row, col)

    def test_reidemeister_variants_agree(self):
        assert alexander_polynomial(TREFOIL) == alexander_polynomial(TREFOIL_ALT)

    def test_mirror_invariant_after_normalization(self):
        for name, pd in BUNDLED.items():
            if pd.crossing_count:
                assert alexander_polynomial(pd.mirror()) == alexander_polynomial(pd), name

    def test_genus_degree_consistency(self):
        for name, pd in BUNDLED.items():
            delta = alexander_polynomial(pd)
            degree = 0 if delta.is_zero() else delta.max_degree
            assert degree <= 2 * seifert_circles(pd)[1], name


@st.composite
def knot_braids(draw, max_strands=5, max_letters=12):
    """A braid word whose closure is a knot: random letters, then letters
    that each join two cycles of the strand permutation until one is left."""
    strands = draw(st.integers(2, max_strands))
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    letters = draw(st.lists(letter, max_size=max_letters))
    perm = list(range(strands))
    for x in letters:
        perm[abs(x) - 1], perm[abs(x)] = perm[abs(x)], perm[abs(x) - 1]
    while True:
        cycle = [0] * strands
        for start in range(strands):
            j = start
            while not cycle[j]:
                cycle[j] = start + 1
                j = perm[j]
        joins = [i for i in range(strands - 1) if cycle[i] != cycle[i + 1]]
        if not joins:
            return BraidWord(strands, tuple(letters))
        i = draw(st.sampled_from(joins))
        letters.append(draw(st.sampled_from((i + 1, -i - 1))))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]


def braid_delta(strands, letters, kernel=braid_fox_delta):
    return kernel(BraidWord(strands, tuple(letters)))


class TestAlexanderBraidMoves:
    @settings(max_examples=60, deadline=None)
    @given(knot_braids(), st.data())
    def test_inserting_a_cancelling_pair(self, braid, data):
        i = data.draw(st.integers(1, braid.strand_count - 1))
        at = data.draw(st.integers(0, len(braid.letters)))
        sign = data.draw(st.sampled_from((1, -1)))
        letters = braid.letters[:at] + (sign * i, -sign * i) + braid.letters[at:]
        for kernel in BRAID_KERNELS:
            assert braid_delta(braid.strand_count, letters, kernel) == braid_delta(
                braid.strand_count, braid.letters, kernel
            ), kernel

    @settings(max_examples=60, deadline=None)
    @given(knot_braids(), st.sampled_from((1, -1)))
    def test_stabilisation(self, braid, sign):
        m = braid.strand_count
        for kernel in BRAID_KERNELS:
            assert braid_delta(m + 1, braid.letters + (sign * m,), kernel) == braid_delta(
                m, braid.letters, kernel
            ), kernel

    @settings(max_examples=60, deadline=None)
    @given(knot_braids(), st.data())
    def test_conjugation_by_word_rotation(self, braid, data):
        k = data.draw(st.integers(0, len(braid.letters)))
        rotated = braid.letters[k:] + braid.letters[:k]
        assert braid_delta(braid.strand_count, rotated) == braid_delta(braid.strand_count, braid.letters)

    @settings(max_examples=60, deadline=None)
    @given(knot_braids())
    def test_mirroring(self, braid):
        delta = braid_delta(braid.strand_count, braid.letters)
        assert braid_delta(braid.strand_count, [-x for x in braid.letters]) == delta
        assert alexander_polynomial(braid_to_pd(braid).mirror()) == delta


class TestBurauKernel:
    def test_bundled_braid_records_against_fox(self, corpus_path):
        entries = json.loads(corpus_path.read_text(encoding="utf-8"))
        braids = {entry["name"]: parse_braid(entry["braid"]) for entry in entries if "braid" in entry}
        assert sorted(braids) == ["6_2", "granny", "trefoil_alt_diagram"]
        for name, braid in braids.items():
            assert braid_alexander_polynomial(braid) == braid_fox_delta(braid), name


class TestFoxMatrix:
    def test_entries_have_exponent_span_at_most_one(self):
        for name, pd in BUNDLED.items():
            if pd.crossing_count == 0:
                continue
            for row in fox_matrix(union_find_wirtinger(pd)):
                for entry in row:
                    if not entry.is_zero():
                        assert entry.max_degree - entry.min_degree <= 1, name
                        assert entry.min_degree >= 0, name

    def test_sparse_rows_match_the_dense_minor(self):
        for name, pd in BUNDLED.items():
            assert alexander_rows(pd) == linear_rows(alexander_matrix(in_walk_order(pd))), name


class TestBareiss:
    def test_matches_cofactor_on_random_small_matrices(self):
        rng = random.Random(20240601)
        span_one = [
            LaurentPoly(),
            LaurentPoly.const(1),
            LaurentPoly.const(-1),
            LaurentPoly.t(),
            -LaurentPoly.t(),
            P("1 - t"),
            P("-1 + t"),
        ]
        for _ in range(300):
            rows = [[rng.choice(span_one) for _ in range(4)] for _ in range(4)]
            expected = cofactor_determinant(rows)
            assert bareiss_determinant(rows) == expected
            assert linear_determinant(linear_rows(rows)) == expected

    def test_matches_cofactor_with_negative_exponents(self):
        rng = random.Random(20261018)
        entries = [
            LaurentPoly(),
            LaurentPoly.const(2),
            P("t^-1"),
            -P("t^-1"),
            P("1 - t^-1"),
            P("t^-2 + 3t"),
            P("1 - t"),
        ]
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(rows) == cofactor_determinant(rows)

    def test_empty_matrix(self):
        assert bareiss_determinant([]) == LaurentPoly.const(1)
        assert linear_determinant([]) == LaurentPoly.const(1)

    def test_singular_matrix(self):
        row = [P("1 - t"), P("1 + t")]
        assert bareiss_determinant([row, row]) == LaurentPoly()
        assert linear_determinant(linear_rows([row, row])) == LaurentPoly()


class TestDeterminantInvariant:
    @pytest.mark.parametrize(
        "delta, expected", [("1 - t + t^2", 3), ("1 - 3t + t^2", 5), ("1", 1)]
    )
    def test_values(self, delta, expected):
        assert determinant_invariant(P(delta)) == expected


class TestComposites:
    def test_connected_sum_square(self):
        delta = connected_sum_delta(P("1 - t + t^2"), P("1 - t + t^2"))
        assert delta == P("1 - 2t + 3t^2 - 2t^3 + t^4")

    def test_unknot_summand(self):
        p = P("2 - 3t + 2t^2")
        assert connected_sum_delta(p, LaurentPoly.const(1)) == p

    def test_matches_granny_diagram(self):
        assert connected_sum_delta(
            P("1 - t + t^2"), P("1 - t + t^2")
        ) == alexander_polynomial(GRANNY)

    def test_cable_satellite(self):
        assert satellite_delta(P("1 - t + t^2"), P("1 - 3t + t^2"), 2) == P(
            "1 - t - 2t^2 + 3t^3 - 2t^4 - t^5 + t^6"
        )

    def test_winding_zero_returns_pattern(self):
        for companion in ["1 - 3t + t^2", "2 - 3t + 2t^2", "1"]:
            assert satellite_delta(P("1 - t + t^2"), P(companion), 0) == P("1 - t + t^2")

    def test_core_pattern_returns_companion(self):
        q = P("1 - 3t + t^2")
        assert satellite_delta(LaurentPoly.const(1), q, 1) == q

    def test_negative_winding_rejected(self):
        with pytest.raises(ValueError):
            satellite_delta(P("1"), P("1"), -1)


class TestJones:
    def test_unknot(self):
        assert jones_polynomial(UNKNOT) == LaurentPoly.const(1)
        assert jones_polynomial(parse_pd("X(1,1,2,2)")) == LaurentPoly.const(1)

    def test_trefoil_value(self):
        assert jones_polynomial(TREFOIL) == P("-t^-4 + t^-3 + t^-1")

    def test_fig8_value(self):
        assert jones_polynomial(FIG8) == P("t^-2 - t^-1 + 1 - t + t^2")

    @pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "trefoil_alt", "granny"])
    def test_against_skein_oracle(self, name):
        pd = BUNDLED[name]
        assert jones_polynomial(pd) == skein_jones(pd)
        assert kauffman_bracket(pd) == skein_bracket(pd.crossings)

    def test_mirror_inverts_variable(self):
        for pd in (TREFOIL, FIG8):
            assert jones_polynomial(pd.mirror()) == jones_polynomial(pd).substitute_power(-1)

    def test_fig8_chirality_independent(self):
        assert jones_polynomial(FIG8.mirror()) == jones_polynomial(FIG8)

    def test_crossing_budget(self):
        # None above the budget, a polynomial within it
        big = braid_to_pd(parse_braid("B2: " + " ".join(["1"] * 25)))
        assert jones_polynomial(big) is None
        jones = jones_polynomial(braid_to_pd(parse_braid("B2: " + " ".join(["1"] * 23))))
        assert jones.eval_int(1) == 1 and abs(jones.eval_int(-1)) == 23  # det T(2, 23) = 23

    def test_bracket_exponent_checked(self, monkeypatch):
        # the trefoil's writhe -3 takes A^1 to A^10, which no t^k gives
        monkeypatch.setattr("knotdom.alexander.kauffman_bracket", lambda pd: LaurentPoly.t(1))
        with pytest.raises(ArithmeticError, match="^corrected bracket exponent not a multiple of 4$"):
            jones_polynomial(TREFOIL)
