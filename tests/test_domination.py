"""The pair-query rule engine: obstructions, rigidity, certificates,
verdict composition, and the soundness audit over the bundled corpus."""
import json
import random
from collections import Counter

import pytest

from knotdom.domination import (
    ANCHORS,
    OBSTRUCTIONS,
    RIGIDITY,
    Certificate,
    ObstructionReport,
    scan,
)
from knotdom.knotbase import Corpus, CorpusError, Flags, KnotRecord, enrich_record, load_corpus
from knotdom.laurent import parse_poly
from knotdom.poset import _summands_cover, certify, evaluate

from kernel_oracle import backtracking_summands_cover
from poset_oracle import _scan_obstructions, _scan_rigidity, certificate_search, evaluate_full
from test_poset import random_corpus, sibling_sums_corpus


def rule_ids(reports):
    return [r.rule_id for r in reports]


def fired_from(table, k1, k2):
    """The reports `scan` fires on the pair from the rules of `table`."""
    ids = {rule_id for rule_id, _, _ in table}
    return [r for r in scan(k1, k2)[0] if r.rule_id in ids]


def obstructions(k1, k2):
    return fired_from(OBSTRUCTIONS, k1, k2)


def rigidities(k1, k2):
    return fired_from(RIGIDITY, k1, k2)


def make_record(name, delta, **kwargs):
    flags = kwargs.pop("flags", Flags())
    siblings = kwargs.pop("siblings", None)
    return enrich_record(
        KnotRecord(name=name, delta=parse_poly(delta), flags=flags, **kwargs),
        siblings,
    )


class TestObstructionScan:
    def test_fig8_vs_trefoil(self, corpus):
        fired = obstructions(corpus.get("4_1"), corpus.get("3_1"))
        assert rule_ids(fired) == ["O1_alexander", "O3_determinant"]

    def test_anything_vs_unknot_clean(self, corpus):
        unknot = corpus.get("unknot")
        for record in corpus:
            if record.name != "unknot":
                assert obstructions(record, unknot) == [], record.name

    def test_five2_vs_fig8(self, corpus):
        fired = obstructions(corpus.get("5_2"), corpus.get("4_1"))
        assert rule_ids(fired) == ["O1_alexander", "O3_determinant"]

    def test_volume_fires_upward(self, corpus):
        fired = obstructions(corpus.get("3_1"), corpus.get("double_of_3_1"))
        assert "O4_volume" in rule_ids(fired)

    def test_class_closure_rules(self, corpus):
        fired = rule_ids(obstructions(corpus.get("3_1"), corpus.get("granny")))
        assert "O5_two_bridge" in fired and "O6_montesinos" in fired

    def test_ap_class_fires_on_satellites(self, corpus):
        fired = obstructions(corpus.get("granny"), corpus.get("ks_cable23_of_4_1"))
        assert "O7_ap_class" in rule_ids(fired)

    def test_free_rule(self, corpus):
        fired = obstructions(corpus.get("3_1"), corpus.get("double_of_3_1"))
        assert "O8_free" in rule_ids(fired)

    def test_ghat_rule(self, corpus):
        fired = obstructions(corpus.get("3_1"), corpus.get("granny"))
        assert "O9_ghat" in rule_ids(fired)

    def test_mutation_rule(self, corpus):
        fired = obstructions(corpus.get("KT_mutant"), corpus.get("Conway_mutant"))
        assert "O11_mutation" in rule_ids(fired)

    def test_orderability_rule_on_synthetic_records(self):
        not_lo = make_record("not_lo", "1 - t + t^2", flags=Flags(lo_double_cover=False))
        lo = make_record("lo", "1", flags=Flags(lo_double_cover=True))
        assert rule_ids(obstructions(not_lo, lo)) == ["O10_orderability"]
        assert "O10_orderability" not in rule_ids(obstructions(lo, not_lo))

    def test_unknown_flags_silence_rules(self):
        # two_bridge unknown on the dominator: O5 neither fires nor passes
        vague = make_record("vague", "1 - t + t^2")
        plain = make_record("plain", "1")
        fired, passed = (
            rule_ids(obstructions(vague, plain)),
            evaluate_full(vague, plain)[2],
        )
        assert "O5_two_bridge" not in fired and "O5_two_bridge" not in passed

    def test_details_embed_compared_values(self, corpus):
        fired = obstructions(corpus.get("5_2"), corpus.get("4_1"))
        by_rule = {r.rule_id: r for r in fired}
        assert "1 - 3t + t^2" in by_rule["O1_alexander"].detail
        assert "2 - 3t + 2t^2" in by_rule["O1_alexander"].detail
        assert "5" in by_rule["O3_determinant"].detail
        assert "7" in by_rule["O3_determinant"].detail

    def test_every_report_has_anchor(self, corpus):
        records = list(corpus)
        for k1 in records:
            for k2 in records:
                for report in obstructions(k1, k2):
                    assert report.anchor

    def test_unenriched_rejected(self):
        bare = KnotRecord(name="x")
        with pytest.raises(CorpusError, match="not enriched"):
            obstructions(bare, bare)


def oracle_scan(k1, k2):
    fired, passed = _scan_obstructions(k1, k2)
    return fired + _scan_rigidity(k1, k2), passed


def drawn_pairs(seed, count):
    """Pairs of enriched records with every field a rule reads drawn,
    unknowns included, and names drawn from three so that some agree."""
    rng = random.Random(seed)
    deltas = ("1", "1 - t + t^2", "1 - 3t + t^2", "2 - 3t + 2t^2", "1 - t + t^2 - t^3 + t^4")
    bases = [make_record("base", delta) for delta in deltas]

    def draw():
        lower = rng.choice([0, 1, 2])
        return rng.choice(bases)._replace(
            name=rng.choice("xyz"),
            genus_lower=lower,
            genus_upper=rng.choice([None, lower, lower + 1]),
            genus_exact=rng.choice([None, lower]),
            volume=rng.choice([None, "0", "2.0298832128", "2.02988", "4.0"]),
            ghat=rng.choice([None, 0, 1, 2]),
            flags=Flags(*(rng.choice([None, True, False]) for _ in Flags._fields)),
            sum_of_simple=rng.choice([None, True, False]),
            mutant_class=rng.choice([None, "m", "n"]),
        )

    return [(draw(), draw()) for _ in range(count)]


def with_field(record, name, value):
    if name in Flags._fields:
        return record._replace(flags=record.flags._replace(**{name: value}))
    return record._replace(**{name: value})


class TestRuleTable:
    def test_ids_are_the_anchored_rules_in_order(self):
        table_ids = [rule_id for rule_id, _, _ in OBSTRUCTIONS + RIGIDITY]
        certificates = [
            "C0_unknot", "C1_connected_sum", "C2_satellite_pattern", "C3_winding_one_companion", "C5_transitive"
        ]
        assert list(ANCHORS) == table_ids + certificates

    def test_scan_matches_the_hand_written_scans(self, corpus):
        # the fired ids and details in order, and the passed list
        for case in [corpus] + [random_corpus(seed) for seed in range(20)]:
            records = list(case)
            for k1 in records:
                for k2 in records:
                    assert scan(k1, k2) == oracle_scan(k1, k2), (k1.name, k2.name)

    def test_scan_matches_on_drawn_records(self):
        pairs = drawn_pairs(0, 3000)
        for k1, k2 in pairs:
            assert scan(k1, k2) == oracle_scan(k1, k2), (k1, k2)
        fired = Counter(r.rule_id for k1, k2 in pairs for r in scan(k1, k2)[0])
        assert set(fired) == {r for r in ANCHORS if r[0] in "OR"}  # every rule fires somewhere

    @pytest.mark.parametrize(
        "rule_id,field1,field2,value,detail,unknot_exempt",
        [
            ("O5_two_bridge", "two_bridge", "two_bridge", True, "two_bridge=True vs two_bridge=False", True),
            ("O6_montesinos", "montesinos", "montesinos", True, "montesinos=True vs montesinos=False", True),
            ("O7_ap_class", "toroidally_alternating", "sum_of_simple", True,
             "toroidally_alternating=True vs sum_of_simple=False", False),
            ("O8_free", "free", "free", True, "free=True vs free=False", False),
            ("O10_orderability", "lo_double_cover", "lo_double_cover", False,
             "lo_double_cover=False vs lo_double_cover=True", False),
        ],
    )
    def test_class_closure(self, rule_id, field1, field2, value, detail, unknot_exempt):
        test = {rule_id: test for rule_id, _, test in OBSTRUCTIONS}[rule_id]
        base = make_record("k1", "1 - t + t^2")._replace(flags=Flags(unknot=False))
        k1 = with_field(base, field1, value)  # inside the class
        k2 = with_field(base._replace(name="k2"), field2, not value)  # outside it
        silent, passed, fired = None, "", detail
        # silent when k1's or k2's input is unknown
        assert test(with_field(k1, field1, None), k2) == silent
        assert test(k1, with_field(k2, field2, None)) == silent
        # passed when k1 is outside the class or k2 inside it
        assert test(with_field(k1, field1, not value), k2) == passed
        assert test(k1, with_field(k2, field2, value)) == passed
        # fired with the exact detail
        assert test(k1, k2) == fired
        # only O5 and O6 exempt the unknot, whatever its own input
        unknot = with_field(k2, "unknot", True)
        assert test(k1, unknot) == (passed if unknot_exempt else fired)
        assert test(k1, with_field(unknot, field2, None)) == (passed if unknot_exempt else silent)


class TestRigidityScan:
    def test_fibred_equal_genus(self, corpus):
        fired = rule_ids(rigidities(corpus.get("4_1"), corpus.get("3_1")))
        assert "R2_fibred_genus" in fired
        assert "R3_nilpotent_degree" in fired
        assert "R4_free_ghat" in fired

    def test_mutants(self, corpus):
        fired = rule_ids(rigidities(corpus.get("KT_mutant"), corpus.get("Conway_mutant")))
        assert "R5_mutant_double_cover" in fired
        assert "R6_hyperbolic_volume" in fired

    def test_distinct_genus_fires_nothing(self, corpus):
        assert rigidities(corpus.get("granny"), corpus.get("3_1")) == []

    def test_winding_zero_blocks_r1(self, corpus):
        # equal genus, volume, delta: but the dominator has a winding-zero
        # companion, so the볼 genus/volume rigidity theorem does not apply
        siblings = {r.name: r for r in corpus}
        ambient = make_record(
            "ambient_satellite",
            "1",
            satellite_of=("double_of_3_1", "3_1", 0),
            genus_exact=1,
            volume="3.66386238",
            flags=Flags(no_winding_zero_companion=False, free=False, fibred=False),
            siblings=siblings,
        )
        fired = rigidities(ambient, corpus.get("double_of_3_1"))
        assert "R1_genus_volume" not in rule_ids(fired)
        assert fired == []

    def test_r1_fires_on_equal_twins(self, corpus):
        fired = rule_ids(rigidities(corpus.get("3_1"), corpus.get("trefoil_alt_diagram")))
        assert fired == [
            "R1_genus_volume",
            "R2_fibred_genus",
            "R3_nilpotent_degree",
            "R4_free_ghat",
        ]

    def test_prime_power_alternating_grant(self, corpus):
        # 5_2 is granted nilpotency through its alternating diagram and
        # leading coefficient 2
        five2 = corpus.get("5_2")
        stripped = five2._replace(flags=five2.flags._replace(two_bridge=None, fibred=None))
        fired = rule_ids(rigidities(stripped, corpus.get("4_1")))
        assert "R3_nilpotent_degree" in fired


def certificate(corpus, src, dst, *records):
    """The certificate that `certify` builds for src -> dst out of src on
    `corpus` with `records` added, read from the edge or, when a rule
    blocks the pair, from its audit line; None when it builds none."""
    graph = certify(Corpus([*corpus, *records]), [src])
    if edge := graph.edge(src, dst):
        return edge.certificate
    blocked = f"conflict: {src} -> {dst} certified by "
    for line in graph.audit_log:
        if line.startswith(blocked):
            return Certificate(line[len(blocked):].split(" ", 1)[0], (src, dst))
    return None


class TestCertificates:
    def test_unknot_bottom(self, corpus):
        assert certificate(corpus, "6_2", "unknot").rule_id == "C0_unknot"

    def test_connected_sum_projection(self, corpus):
        cert = certificate(corpus, "granny", "3_1")
        assert cert == Certificate("C1_connected_sum", ("granny", "3_1"))

    def test_satellite_pattern(self, corpus):
        cert = certificate(corpus, "ks_cable23_of_4_1", "3_1")
        assert cert == Certificate("C2_satellite_pattern", ("ks_cable23_of_4_1", "3_1"))

    def test_ambient_satellite_of_example(self, corpus):
        siblings = {r.name: r for r in corpus}
        ambient = make_record(
            "ambient_satellite",
            "1",
            satellite_of=("double_of_3_1", "3_1", 0),
            genus_exact=1,
            volume="3.66386238",
            flags=Flags(no_winding_zero_companion=False, free=False),
            siblings=siblings,
        )
        cert = certificate(corpus, "ambient_satellite", "double_of_3_1", ambient)
        assert cert.rule_id == "C2_satellite_pattern"

    def test_winding_one_companion(self, corpus):
        siblings = {r.name: r for r in corpus}
        cable = make_record(
            "winding_one_cable",
            "1 - 3t + t^2",
            satellite_of=("unknot", "4_1", 1),
            siblings=siblings,
        )
        cert = certificate(corpus, "winding_one_cable", "4_1", cable)
        assert cert.rule_id == "C3_winding_one_companion"

    def test_winding_two_companion_not_certified(self, corpus):
        assert certificate(corpus, "ks_cable23_of_4_1", "4_1") is None

    def test_summand_pairing_through_certified_edges(self, corpus):
        siblings = {r.name: r for r in corpus}
        sum_a = make_record(
            "granny_sum_fig8", "1 - 5t + 10t^2 - 13t^3 + 10t^4 - 5t^5 + t^6",
            connected_sum_of=("3_1", "3_1", "4_1"), siblings=siblings,
        )
        sum_b = make_record(
            "square_sum", "1 - 2t + 3t^2 - 2t^3 + t^4",
            connected_sum_of=("3_1", "3_1"), siblings=siblings,
        )
        # identity pairing: {3_1, 3_1} inside {3_1, 3_1, 4_1}
        assert certificate(corpus, "granny_sum_fig8", "square_sum", sum_a, sum_b).rule_id == "C1_connected_sum"
        # no pairing without an edge 4_1 >= 3_1
        sum_c = make_record(
            "triple_trefoil", "1 - 3t + 6t^2 - 7t^3 + 6t^4 - 3t^5 + t^6",
            connected_sum_of=("3_1", "3_1", "3_1"), siblings=siblings,
        )
        assert certificate(corpus, "granny_sum_fig8", "triple_trefoil", sum_a, sum_c) is None
        # with a (hypothetical) certified edge the pairing goes through
        assert not _summands_cover(sum_a.summands(), sum_c.summands(), frozenset())
        assert _summands_cover(sum_a.summands(), sum_c.summands(), frozenset({("4_1", "3_1")}))

    def test_first_construction_that_applies(self, corpus_path, tmp_path):
        # the unknot before the pattern, and the pattern before the companion
        path = tmp_path / "satellites.json"
        satellites = [{"name": "sq", "satellite_of": ["3_1", "3_1", 1]}, {"name": "u3", "satellite_of": ["unknot", "3_1", 1]}]
        path.write_text(json.dumps([*json.loads(corpus_path.read_text()), *satellites]))
        case = load_corpus(path)
        edges = [e for e in certify(case, ["sq", "u3"]).edges if e.src in ("sq", "u3")]
        assert [(e.src, e.dst, e.certificate.rule_id) for e in edges] == [
            ("sq", "3_1", "C2_satellite_pattern"),
            ("sq", "unknot", "C0_unknot"),
            ("u3", "3_1", "C3_winding_one_companion"),
            ("u3", "unknot", "C0_unknot"),
        ]
        for e in edges:
            assert certificate_search(case.get(e.src), case.get(e.dst)) == e.certificate


def first_fit_cover(sum1, sum2, certified):
    """Each target takes the least source still free: misses every cover
    that needs a copy moved."""
    available = Counter(sum1)
    for target in sorted(sum2):
        free = [s for s in sorted(available) if available[s] and (s == target or (s, target) in certified)]
        if not free:
            return False
        available[free[0]] -= 1
    return True


class TestSummandsCover:
    def test_matches_backtracking(self):
        rng = random.Random(19)
        verdicts = Counter()
        moved = 0
        for _ in range(3000):
            names = "abcdef"[: rng.randint(1, 6)]
            sum1 = tuple(rng.choice(names) for _ in range(rng.randint(0, 7)))
            sum2 = tuple(rng.choice(names) for _ in range(rng.randint(0, 7)))
            certified = frozenset(
                (rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 10))
            )
            expected = backtracking_summands_cover(sum1, sum2, certified)
            assert _summands_cover(sum1, sum2, certified) is expected, (sum1, sum2, certified)
            verdicts[expected] += 1
            moved += expected and not first_fit_cover(sum1, sum2, certified)
        assert verdicts[True] and verdicts[False] and moved, (verdicts, moved)

    def test_long_multisets_do_not_recurse(self):
        # 1400 copies are deeper than the default recursion limit of 1000
        assert _summands_cover(("3_1",) * 1500, ("3_1",) * 1400, frozenset())
        assert not _summands_cover(("3_1",) * 1400, ("3_1",) * 1500, frozenset())


class TestEvaluatePair:
    def test_equal(self, corpus):
        assert evaluate(corpus, "3_1", "3_1").kind == "equal"

    def test_cable_does_not_dominate_companion(self, corpus):
        verdict = evaluate(corpus, "ks_cable23_of_4_1", "4_1")
        assert verdict.kind == "obstructed"
        assert "O1_alexander" in verdict.rule_ids()

    def test_granny_dominates_summand(self, corpus):
        verdict = evaluate(corpus, "granny", "3_1")
        assert verdict.kind == "certified"
        assert verdict.certificate.rule_id == "C1_connected_sum"

    def test_six2_vs_five2_golden(self, corpus):
        verdict = evaluate(corpus, "6_2", "5_2")
        assert verdict.kind == "obstructed"
        assert verdict.rule_ids() == ("O1_alexander", "O3_determinant")

    def test_unknown_lists_passed_rules(self, corpus):
        verdict = evaluate(corpus, "KT_mutant", "double_of_3_1")
        assert verdict.kind == "unknown"
        assert verdict.passed == (
            "O1_alexander",
            "O2_genus",
            "O3_determinant",
            "O4_volume",
            "O5_two_bridge",
        )

    def test_json_shape(self, corpus):
        verdict = evaluate(corpus, "granny", "3_1")
        payload = verdict.to_json_dict(("granny", "3_1"))
        assert sorted(payload) == ["anchors", "pair", "rules", "verdict"]
        assert payload["pair"] == ["granny", "3_1"]
        json.dumps(payload)  # serializable

    def test_cycle_out_of_the_first_name_is_a_contradiction(self):
        # s1 and s2 certify each other: the audit line of build_graph,
        # whatever the second name
        for name2 in ("s2", "a"):
            with pytest.raises(CorpusError, match=r"^cycle among certified edges: \['s1', 's2', 's1'\]$"):
                evaluate(sibling_sums_corpus(), "s1", name2)

    def test_rigidity_converts_to_obstruction(self, corpus):
        verdict = evaluate(corpus, "3_1", "trefoil_alt_diagram")
        assert verdict.kind == "obstructed"
        assert all(r.startswith("R") for r in verdict.rule_ids())


class TestEngineInvariants:
    def test_soundness_audit_over_corpus(self, corpus):
        # a certified pair with a fired obstruction would contradict one of
        # the implemented theorems
        records = list(corpus)
        for k1 in records:
            for k2 in records:
                if k1.name == k2.name:
                    continue
                fired, rigidity, _, certificate = evaluate_full(k1, k2)
                if certificate is not None:
                    assert not fired and not rigidity, (k1.name, k2.name)

    def test_o3_subsumed_by_o1(self, corpus):
        records = list(corpus)
        for k1 in records:
            for k2 in records:
                if k1.name == k2.name:
                    continue
                fired = rule_ids(obstructions(k1, k2))
                if "O3_determinant" in fired:
                    assert "O1_alexander" in fired, (k1.name, k2.name)

    def test_monotone_in_information(self, corpus):
        # making an unknown flag definite never un-fires a rule
        kt = corpus.get("KT_mutant")
        double = corpus.get("double_of_3_1")
        before = set(rule_ids(obstructions(double, kt)))
        enriched_kt = kt._replace(
            flags=kt.flags._replace(free=True, toroidally_alternating=True)
        )
        after = set(rule_ids(obstructions(double, enriched_kt)))
        assert before <= after

    def test_all_anchor_strings_nonempty(self):
        assert all(ANCHORS.values())
