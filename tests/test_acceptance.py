"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact arithmetic, so tolerances are zero throughout;
volume metadata is compared as normalized decimal strings at fixed
precision 1e-8 inside the engine.
"""
import json
import random

from knotdom.alexander import (
    alexander_polynomial,
    jones_polynomial,
    linear_determinant,
    satellite_delta,
)
from knotdom.cli import main
from knotdom.knotbase import Flags, KnotRecord, build_corpus
from knotdom.laurent import LaurentPoly, parse_poly
from knotdom.poset import ChainBound, chain_length_bound, evaluate, longest_chain

from kernel_oracle import bareiss_determinant, exact_div, linear_rows
from poset_oracle import evaluate_full, iter_chains
from test_alexander import cofactor_determinant, minor_delta
from test_domination import obstructions, rigidities


def P(text):
    return parse_poly(text)


def passed(number, message):
    print(f"PASS criterion {number}: {message}")


def test_criterion_1_alexander_reproduction(corpus):
    expected = {
        "3_1": "1 - t + t^2",
        "4_1": "1 - 3t + t^2",
        "5_2": "2 - 3t + 2t^2",
    }
    for name, text in expected.items():
        computed = alexander_polynomial(corpus.get(name).diagram)
        assert computed == P(text), name
        assert str(computed) == text, name  # exact textual match
    passed(1, "bundled diagrams reproduce the printed Alexander polynomials exactly")


def test_criterion_2_band_sum_not_dominating(corpus):
    band_sum_delta = P("1 - t^2 + t^4")
    trefoil = corpus.get("3_1")
    assert exact_div(band_sum_delta, trefoil.delta) is None

    # the band connected sum of the trefoil and the unknot, entered as a
    # metadata record, is reported as not Alexander-dominating its factor
    extended = build_corpus(
        [*corpus.records, KnotRecord(name="band_sum_of_3_1_and_unknot", delta=band_sum_delta, genus_exact=2)]
    )
    band_sum = extended.get("band_sum_of_3_1_and_unknot")
    fired = [r.rule_id for r in obstructions(band_sum, trefoil)]
    assert "O1_alexander" in fired
    verdict = evaluate(extended, "band_sum_of_3_1_and_unknot", "3_1")
    assert verdict.kind == "obstructed"
    passed(2, "band-sum polynomial is not divisible by the trefoil's; O1 fires")


def test_criterion_3_murasugi_sum_not_dominating(corpus):
    murasugi_delta = P("2 - 3t + 3t^2 - 3t^3 + 2t^4")
    assert exact_div(murasugi_delta, corpus.get("4_1").delta) is None
    assert exact_div(murasugi_delta, corpus.get("5_2").delta) is None
    passed(3, "Murasugi-sum polynomial divisible by neither factor polynomial")


def test_criterion_4_cable_satellite(corpus):
    trefoil, fig8 = corpus.get("3_1"), corpus.get("4_1")
    cable = satellite_delta(trefoil.delta, fig8.delta, 2)
    expansion = (P("1 - t - t^2") * P("1 - t + t^2") * P("1 + t - t^2")).normalize()
    assert cable == expansion == P("1 - t - 2t^2 + 3t^3 - 2t^4 - t^5 + t^6")
    assert exact_div(cable, trefoil.delta) is not None  # pattern divides
    assert exact_div(cable, fig8.delta) is None         # companion does not
    verdict = evaluate(corpus, "ks_cable23_of_4_1", "4_1")
    assert verdict.kind == "obstructed"
    assert "O1_alexander" in verdict.rule_ids()
    passed(4, "cable satellite formula matches the printed factorization; (ks, 4_1) obstructed by O1")


def test_criterion_5_jones_remark(corpus):
    bundled = corpus.get("ks_cable23_of_4_1").jones
    assert bundled == P("t^-5 - t^-4 + t + t^3 - t^4 - t^7 + t^8")
    trefoil_jones = jones_polynomial(corpus.get("3_1").diagram)
    assert exact_div(bundled, trefoil_jones) is None
    passed(5, "bundled cable Jones polynomial is not divisible by the trefoil's")


def test_criterion_6_equal_invariants_yet_certified(corpus):
    trefoil, fig8 = corpus.get("3_1"), corpus.get("4_1")
    for companion in (fig8.delta, corpus.get("5_2").delta, LaurentPoly.const(1)):
        assert satellite_delta(trefoil.delta, companion, 0) == trefoil.delta

    pattern = corpus.get("double_of_3_1")
    extended = build_corpus([
        *corpus.records,
        KnotRecord(
            name="ambient_satellite_of_double",
            delta=P("1"),
            genus_exact=1,
            volume="3.66386238",
            satellite_of=("double_of_3_1", "3_1", 0),
            flags=Flags(free=False, fibred=False, no_winding_zero_companion=False),
        ),
    ])
    ambient = extended.get("ambient_satellite_of_double")
    assert ambient.delta == pattern.delta
    assert ambient.genus_exact == pattern.genus_exact
    assert ambient.volume == pattern.volume

    verdict = evaluate(extended, "ambient_satellite_of_double", "double_of_3_1")
    assert verdict.kind == "certified"
    assert verdict.certificate.rule_id == "C2_satellite_pattern"
    rigidity = [r.rule_id for r in rigidities(ambient, pattern)]
    assert "R1_genus_volume" not in rigidity
    passed(6, "equal delta/genus/volume pair is still certified; rigidity stays silent")


def test_criterion_7_soundness_audit(corpus, graph):
    records = list(corpus)
    assert len(records) == 12
    pairs = [(a, b) for a in records for b in records if a.name != b.name]
    assert len(pairs) == 132
    for k1, k2 in pairs:
        fired, rigidity, _, certificate = evaluate_full(k1, k2)
        if certificate is not None:
            assert not fired and not rigidity, (k1.name, k2.name)
    assert graph.audit_log == ()
    passed(7, "no pair of the 132 is both certified and obstructed; audit log empty")


def test_criterion_8_chain_bounds(corpus, graph):
    trefoil = corpus.get("3_1")
    chain = longest_chain(graph, "3_1")
    assert len(chain) - 1 == 1 == trefoil.ghat  # bound is tight

    for start in corpus.names():
        g0 = corpus.get(start).ghat
        if g0 is None:
            continue
        for walk in iter_chains(graph, start):
            gn = corpus.get(walk[-1]).ghat
            if gn is not None:
                assert len(walk) - 1 + gn <= g0, walk

    bounds = chain_length_bound(corpus.get("5_2"))
    assert ChainBound(2, "alternating_degree", "alternating_count") in bounds
    assert corpus.get("5_2").delta.max_degree == 2
    passed(8, "ghat chain bounds hold and are tight at 3_1; 5_2 alternating bound is 2")


def _random_poly(rng, max_terms=5, max_exp=6, max_coeff=8):
    return LaurentPoly.from_dict(
        {
            rng.randint(-max_exp, max_exp): rng.randint(-max_coeff, max_coeff)
            for _ in range(rng.randint(0, max_terms))
        }
    )


def test_criterion_9a_ring_laws_and_roundtrip():
    rng = random.Random(1069)
    cases = 0
    while cases < 1000:
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert exact_div(a * b, b) == a.normalize()
        cases += 1
    passed("9a", "ring laws and exact_div roundtrip on 1000 random triples")


def test_criterion_9b_normalization_properties():
    rng = random.Random(2069)
    for _ in range(1000):
        a = _random_poly(rng)
        unit = LaurentPoly.t(rng.randint(-5, 5), rng.choice((1, -1)))
        assert a.normalize().normalize() == a.normalize()
        assert (unit * a).normalize() == a.normalize()
        if not a.is_zero():
            b = _random_poly(rng)
            if not b.is_zero():
                v = LaurentPoly.t(rng.randint(-5, 5), rng.choice((1, -1)))
                assert (exact_div(a, b) is None) == (exact_div(unit * a, v * b) is None)
    passed("9b", "normalization idempotent and unit-invariant on 1000 random cases")


def test_criterion_9c_bareiss_vs_cofactor():
    rng = random.Random(3069)
    span_one = [
        LaurentPoly(),
        LaurentPoly.const(1),
        LaurentPoly.const(-1),
        LaurentPoly.t(),
        -LaurentPoly.t(),
        P("1 - t"),
        P("t - 1"),
    ]
    for _ in range(1000):
        rows = [[rng.choice(span_one) for _ in range(4)] for _ in range(4)]
        expected = cofactor_determinant(rows)
        assert bareiss_determinant(rows) == expected
        assert linear_determinant(linear_rows(rows)) == expected
    passed("9c", "the Kronecker kernel and Bareiss equal cofactor expansion on 1000 random 4x4 matrices")


def test_criterion_9d_delta_unit_and_palindromic(corpus):
    for record in corpus:
        if record.diagram is None:
            continue
        delta = alexander_polynomial(record.diagram)
        assert abs(int(delta.eval_int(1))) == 1, record.name
        coeffs = delta.coefficients()
        top = delta.max_degree
        assert all(
            coeffs.get(e, 0) == coeffs.get(top - e, 0) for e in range(top + 1)
        ), record.name
    passed("9d", "delta(1) = +-1 and palindromic coefficients on every bundled diagram")


def test_criterion_9e_deletion_independence(corpus):
    for record in corpus:
        pd = record.diagram
        if pd is None or pd.crossing_count > 5:
            continue
        reference = alexander_polynomial(pd)
        n = pd.crossing_count  # relations, and generators (arcs)
        for row in range(n):
            for col in range(n):
                assert minor_delta(pd, row, col) == reference, (record.name, row, col)
    passed("9e", "determinant independent of deleted row/column on all diagrams <= 5 crossings")


def test_criterion_9f_reidemeister_variants(corpus):
    one = alexander_polynomial(corpus.get("3_1").diagram)
    other = alexander_polynomial(corpus.get("trefoil_alt_diagram").diagram)
    assert one == other == P("1 - t + t^2")
    passed("9f", "both bundled trefoil diagrams give identical delta")


def test_criterion_10_determinism(capsys, corpus_path):
    outputs = {}
    for label, argv in {
        "verify1": ["--json", "verify-paper"],
        "verify2": ["--json", "verify-paper"],
        "poset1": ["--json", "poset"],
        "poset2": ["--json", "poset"],
    }.items():
        code = main(argv)
        assert code == 0
        outputs[label] = capsys.readouterr().out
    assert outputs["verify1"] == outputs["verify2"]
    assert outputs["poset1"] == outputs["poset2"]
    json.loads(outputs["verify1"])
    with capsys.disabled():
        passed(10, "verify-paper and poset JSON byte-identical across runs")
