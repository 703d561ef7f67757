"""PD parsing and validation, braid closures, the Wirtinger presentation
of the test oracle (`kernel_oracle.union_find_wirtinger`), Seifert circles."""
import itertools
import random
from fractions import Fraction

import pytest

from knotdom.alexander import braid_alexander_polynomial
from knotdom.diagram import (
    BraidWord,
    DiagramError,
    PDCode,
    braid_to_pd,
    parse_braid,
    parse_pd,
    seifert_circles,
)
from kernel_oracle import union_find_wirtinger

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def integer_rank(rows):
    """Row-reduction rank over Q: the test oracle for the abelianized
    relation matrix."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def abelianized_rows(pres):
    rows = []
    for out, over, inp, _ in pres.relations:
        row = [0] * pres.generator_count
        row[inp] += 1
        row[out] -= 1
        rows.append(row)
    return rows


class TestParsePD:
    def test_trefoil(self):
        pd = parse_pd(TREFOIL)
        assert pd.crossing_count == 3
        assert pd.signs == (-1, -1, -1)

    def test_empty_is_unknot(self):
        pd = parse_pd("")
        assert pd.crossing_count == 0

    def test_arc_multiplicity_rejected(self):
        with pytest.raises(DiagramError, match="appears 3 times"):
            parse_pd("X(1,1,1,2)")

    def test_crossing_of_three_labels_rejected(self):
        with pytest.raises(DiagramError, match=r"^crossing \(1, 2, 2\) does not have 4 arc labels$"):
            PDCode.from_tuples([(1, 2, 2)])

    def test_under_strand_exit_rejected(self):
        with pytest.raises(DiagramError, match="must exit at"):
            parse_pd("X(1,4,5,2) X(3,6,4,1) X(5,2,6,3)")

    def test_over_strand_adjacency_rejected(self):
        with pytest.raises(DiagramError, match="not consecutive"):
            parse_pd("X(1,6,2,3) X(3,2,4,5) X(5,4,6,1)")

    def test_two_component_labeling_rejected(self):
        # the Hopf-link style code satisfies the local checks but not the
        # global traversal
        with pytest.raises(DiagramError, match="single-knot traversal"):
            PDCode.from_tuples([(1, 3, 2, 4), (3, 1, 4, 2)])

    def test_syntax_error(self):
        with pytest.raises(DiagramError, match="malformed"):
            parse_pd("X(1,4,2")

    def test_kinks_disambiguated(self):
        assert parse_pd("X(1,1,2,2)").signs == (1,)
        assert parse_pd("X(1,2,2,1)").signs == (-1,)

    def test_one_crossing_codes_exhaustive(self):
        accepted = {}
        for labels in itertools.product(range(4), repeat=4):
            try:
                accepted[labels] = PDCode.from_tuples([labels]).signs
            except DiagramError:
                pass
        assert accepted == {
            (1, 1, 2, 2): (1,),
            (1, 2, 2, 1): (-1,),
            (2, 1, 1, 2): (-1,),
            (2, 2, 1, 1): (1,),
        }

    def test_label_outside_range_reported_as_missing(self):
        # 7 takes both places of 3, so the count check names 3
        with pytest.raises(DiagramError, match="arc 3 appears 0 times"):
            parse_pd("X(1,4,2,5) X(7,6,4,1) X(5,2,6,7)")

    def test_mirror_flips_signs(self):
        pd = parse_pd(TREFOIL)
        assert pd.mirror().signs == (1, 1, 1)
        assert pd.mirror().mirror() == pd

    def test_text_round_trips_through_parse_pd(self):
        assert str(parse_pd(TREFOIL)) == TREFOIL
        empty = parse_pd("")
        assert str(empty) == "" and parse_pd(str(empty)) == empty
        rng = random.Random(17)
        closures = 0
        for _ in range(80):
            strands = rng.randint(2, 5)
            word = tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 12)))
            try:
                pd = braid_to_pd(BraidWord(strands, word))
            except DiagramError:
                continue  # multi-component closure
            for code in (pd, pd.mirror()):
                assert parse_pd(str(code)) == code, word
            closures += 1
        assert closures > 20


class TestBraid:
    def test_parse_braid(self):
        braid = parse_braid("B3: 1 1 1 -2 1 -2")
        assert braid.strand_count == 3
        assert braid.letters == (1, 1, 1, -2, 1, -2)

    def test_letter_range_validated(self):
        with pytest.raises(DiagramError):
            BraidWord(2, (2,))
        with pytest.raises(DiagramError):
            BraidWord(3, (0,))

    def test_single_crossing_closure(self):
        pd = braid_to_pd(BraidWord(2, (1,)))
        assert pd.crossing_count == 1

    def test_two_component_closure_rejected(self):
        for closure in (braid_to_pd, braid_alexander_polynomial):
            with pytest.raises(DiagramError, match="2 components"):
                closure(BraidWord(2, (1, -1)))
            with pytest.raises(DiagramError, match="components"):
                closure(BraidWord(3, ()))

    def test_idle_strands_rejected_before_any_work(self):
        # a closure has at least strands - letters components
        for closure in (braid_to_pd, braid_alexander_polynomial):
            with pytest.raises(DiagramError, match="at least 999999 components"):
                closure(parse_braid("B1000000: 1"))

    def test_trefoil_closure(self):
        pd = braid_to_pd(BraidWord(2, (1, 1, 1)))
        assert pd.crossing_count == 3
        assert abs(pd.writhe()) == 3

    def test_closure_output_validates(self):
        rng = random.Random(7)
        for _ in range(60):
            strands = rng.randint(2, 4)
            word = tuple(
                rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 8))
            )
            try:
                pd = braid_to_pd(BraidWord(strands, word))
            except DiagramError:
                continue  # multi-component closure
            # reparse from scratch: full validation must pass
            reparsed = PDCode.from_tuples(pd.crossings)
            assert reparsed.signs == pd.signs


class TestWirtinger:
    def test_trefoil_shape(self):
        pres = union_find_wirtinger(parse_pd(TREFOIL))
        assert pres.generator_count == 3
        assert len(pres.relations) == 3
        assert all(len(rel) == 4 and rel[3] in (-1, 1) for rel in pres.relations)

    def test_unknot(self):
        pres = union_find_wirtinger(parse_pd(""))
        assert pres.generator_count == 1
        assert pres.relations == ()

    def test_fig8_abelianized_rank(self):
        pres = union_find_wirtinger(parse_pd(FIG8))
        assert pres.generator_count == 4
        assert integer_rank(abelianized_rows(pres)) == 3

    @pytest.mark.parametrize(
        "pd_text", [TREFOIL, FIG8, "X(1,1,2,2)", "X(1,2,2,1)"]
    )
    def test_rank_is_generators_minus_one(self, pd_text):
        pres = union_find_wirtinger(parse_pd(pd_text))
        assert integer_rank(abelianized_rows(pres)) == pres.generator_count - 1

    def test_rank_on_braid_closures(self):
        for text in ["B3: 1 1 1 2 2 2", "B3: 1 1 1 -2 1 -2", "B2: -1 -1 -1 -1 1"]:
            pres = union_find_wirtinger(braid_to_pd(parse_braid(text)))
            assert integer_rank(abelianized_rows(pres)) == pres.generator_count - 1


class TestSeifert:
    @pytest.mark.parametrize(
        "pd_text, circles, genus_upper",
        [
            (TREFOIL, 2, 1),
            (FIG8, 3, 1),
            ("", 1, 0),
            ("X(1,1,2,2)", 2, 0),
            ("X(1,2,2,1)", 2, 0),
            ("X(2,1,3,2) X(4,4,1,3)", 3, 0),
        ],
    )
    def test_known_counts(self, pd_text, circles, genus_upper):
        assert seifert_circles(parse_pd(pd_text)) == (circles, genus_upper)

    def test_braid_closure_circles_match_strands(self):
        # Seifert's algorithm on a braid closure recovers the strands
        pd = braid_to_pd(parse_braid("B3: 1 1 1 2 2 2"))
        assert seifert_circles(pd) == (3, 2)

    def test_parity_invariant(self):
        rng = random.Random(11)
        for _ in range(40):
            strands = rng.randint(2, 4)
            word = tuple(
                rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 9))
            )
            try:
                pd = braid_to_pd(BraidWord(strands, word))
            except DiagramError:
                continue
            n = pd.crossing_count
            s, g = seifert_circles(pd)
            assert (n - s + 1) % 2 == 0 and g == (n - s + 1) // 2

    def test_odd_parity_rejected(self):
        # X(1,2,2,1) with the sign of X(1,1,2,2): only a code built without
        # `from_tuples`, which derives the signs, gets this far
        with pytest.raises(DiagramError, match="odd n - s \\+ 1"):
            seifert_circles(PDCode(((1, 2, 2, 1),), (1,)))
