"""Corpus loading, record enrichment, cross-validation, flag closure."""
import itertools
import json
import random
from collections import Counter

import pytest

from knotdom import alexander, knotbase, poset
from knotdom.alexander import alexander_polynomial
from knotdom.cli import EXIT_OK, EXIT_USAGE, main, run_verification
from knotdom.diagram import braid_to_pd, parse_braid, parse_pd
from knotdom.knotbase import (
    Corpus,
    CorpusError,
    Flags,
    KnotRecord,
    build_corpus,
    close_flags,
    enrich_record,
    genus_interval,
    load_corpus,
    normalize_volume,
    record_from_json,
    record_jones,
)
from knotdom.laurent import LaurentPoly, format_poly, parse_poly
from knotdom.poset import build_graph

from kernel_oracle import eager_build_corpus, eager_load_corpus
from test_cli import run, unreadable_file
from test_kernels import random_closures
from test_poset import random_corpus, satellite_chain

EXPECTED_NAMES = {
    "unknot", "3_1", "4_1", "5_1", "5_2", "6_2", "granny",
    "ks_cable23_of_4_1", "double_of_3_1", "KT_mutant", "Conway_mutant",
    "trefoil_alt_diagram",
}


class TestLoadCorpus:
    def test_bundled_corpus_loads_twelve_records(self, corpus):
        assert len(corpus) == 12
        assert set(corpus.names()) == EXPECTED_NAMES

    def test_membership(self, corpus):
        assert "3_1" in corpus and all(name in corpus for name in corpus.names())
        assert "no_such_knot" not in corpus and "" not in corpus

    def test_every_record_enriched(self, corpus):
        for record in corpus:
            assert record.enriched
            assert record.delta is not None
            assert record.determinant == abs(int(record.delta.eval_int(-1)))
            assert record.genus_lower == record.delta.max_degree // 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.json")

    @pytest.mark.parametrize("text, message", [
        ("[{", "is not valid JSON: "),
        ('{"name": "k"}', "must hold a top-level array"),
    ])
    def test_file_must_hold_a_json_array(self, tmp_path, text, message):
        path = tmp_path / "corpus.json"
        path.write_text(text)
        with pytest.raises(CorpusError) as error:
            load_corpus(path)
        assert str(error.value).startswith(f"corpus file {path} {message}")

    def test_duplicate_names_rejected(self, tmp_path):
        payload = [
            {"name": "3_1", "delta": "1 - t + t^2"},
            {"name": "3_1", "delta": "1 - t + t^2"},
        ]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match="duplicate record name"):
            load_corpus(path)

    def test_duplicate_names_rejected_in_code(self):
        # the second record would replace the first in the name index
        records = [
            KnotRecord(name="a", delta=parse_poly("1 - t + t^2")),
            KnotRecord(name="a", delta=parse_poly("1 - 3t + t^2")),
        ]
        with pytest.raises(CorpusError, match="^duplicate record name 'a'$"):
            Corpus(records)

    @pytest.mark.parametrize("kind, message", [
        ("directory", "cannot be read: "),
        ("deep_array", "is not valid JSON: maximum recursion depth"),
        ("deep_flags", "is not valid JSON: maximum recursion depth"),
        ("not_utf8", "is not valid JSON: 'utf-8' codec"),
        ("long_integer", "is not valid JSON: Exceeds the limit"),
    ])
    def test_unreadable_file_named_in_error(self, tmp_path, kind, message):
        path = unreadable_file(tmp_path, kind)
        with pytest.raises(CorpusError) as error:
            load_corpus(path)
        assert str(error.value).startswith(f"corpus file {path} {message}")

    def test_dangling_reference_rejected(self, tmp_path):
        # the load leaves references to the first read
        payload = [{"name": "x", "delta": "1", "connected_sum_of": ["a", "b"]}]
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(payload))
        corpus = load_corpus(path)
        with pytest.raises(CorpusError, match="^x: dangling cross-reference to 'a'$"):
            corpus.records
        with pytest.raises(CorpusError, match="^x: dangling cross-reference to 'a'$"):
            corpus.get("x")

    def test_lone_mutant_rejected(self, tmp_path):
        payload = [{"name": "x", "delta": "1", "mutant_class": "solo"}]
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match="no peer"):
            load_corpus(path)

    def test_boolean_winding_rejected(self):
        # JSON true is an int to Python; as a winding it would read as 1
        for winding in (True, False):
            with pytest.raises(CorpusError, match="satellite_of"):
                record_from_json({"name": "s", "satellite_of": ["a", "b", winding]})
        assert record_from_json({"name": "s", "satellite_of": ["a", "b", 1]}).satellite_of == ("a", "b", 1)

    def test_metadata_only_needs_delta(self):
        with pytest.raises(CorpusError, match="must declare delta"):
            enrich_record(KnotRecord(name="bare"))

    def test_metadata_only_with_delta_accepted(self):
        record = enrich_record(KnotRecord(name="data", delta=parse_poly("1 - t + t^2")))
        assert record.diagram is None and record.braid is None and record.enriched
        assert record.determinant == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(CorpusError, match="unknown record fields"):
            record_from_json({"name": "x", "delta": "1", "color": "red"})

    def test_unknown_flag_rejected(self):
        with pytest.raises(CorpusError, match="unknown flag"):
            record_from_json({"name": "x", "delta": "1", "flags": {"sparkly": True}})


class TestEnrichment:
    def test_declared_computed_mismatch(self):
        record = KnotRecord(
            name="lying",
            diagram=parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"),
            delta=parse_poly("1 - 3t + t^2"),
        )
        with pytest.raises(CorpusError, match="declared delta"):
            enrich_record(record)

    def test_unenriched_sibling_rejected(self):
        record = KnotRecord(name="s", satellite_of=("p", "p", 1))
        siblings = {"p": KnotRecord(name="p", delta=parse_poly("1 - t + t^2"))}
        with pytest.raises(CorpusError, match="^s: referenced record 'p' is not enriched$"):
            enrich_record(record, siblings)

    def test_braid_records_take_the_burau_kernel(self, monkeypatch):
        """A braid's delta, and that of a PD code read back as a braid,
        comes from the reduced Burau kernel and is still cross-checked
        against a declared one; a PD code that is no closed braid takes
        Fox."""
        calls = []
        for kernel in ("braid_alexander_polynomial", "linear_determinant"):
            monkeypatch.setattr(
                alexander, kernel, lambda *args, f=getattr(alexander, kernel), kernel=kernel: calls.append(kernel) or f(*args)
            )
        record = enrich_record(KnotRecord(name="fig8", braid=parse_braid("B3: 1 -2 1 -2")))
        assert record.delta == parse_poly("1 - 3t + t^2") and record.diagram.crossing_count == 4
        lying = KnotRecord(name="lying", braid=parse_braid("B3: 1 -2 1 -2"), delta=parse_poly("1 - t + t^2"))
        with pytest.raises(CorpusError, match=r"^lying: declared delta 1 - t \+ t\^2 != computed 1 - 3t \+ t\^2$"):
            enrich_record(lying)
        assert calls == ["braid_alexander_polynomial"] * 2
        trefoil = enrich_record(KnotRecord(name="pd", diagram=parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")))
        assert trefoil.delta == parse_poly("1 - t + t^2") and trefoil.genus_upper == 1
        five2 = parse_pd("X(1,4,2,5) X(3,8,4,9) X(5,10,6,1) X(9,6,10,7) X(7,2,8,3)")
        assert enrich_record(KnotRecord(name="5_2", diagram=five2)).delta == parse_poly("2 - 3t + 2t^2")
        assert calls == ["braid_alexander_polynomial"] * 3 + ["linear_determinant"]
        with pytest.raises(CorpusError, match=r"^link: braid closure has 2 components, expected a knot$"):
            record_from_json({"name": "link", "braid": "B2: 1 1"})

    def test_diagram_and_braid_rejected(self):
        # built in code, as a corpus entry is checked: the braid closes
        # into the other trefoil, so it must not go unread
        record = KnotRecord(
            name="k", diagram=parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"), braid=parse_braid("B2: 1 1 1")
        )
        with pytest.raises(CorpusError, match=r"^k: gives both a diagram and a braid, expected at most one$"):
            enrich_record(record)

    @pytest.mark.parametrize(
        "jones, message",
        [
            # the trefoil's V with one coefficient raised
            ("-t^-4 + t^-3 + 2t^-1", r"jones\(1\) = 2, expected 1"),
            # V(1) = 1, but V(-1) = 5 against the trefoil's determinant 3
            ("t^-4 - t^-3 + t^-2 - t^-1 + 1", r"\|jones\(-1\)\| = 5 != determinant 3"),
        ],
    )
    def test_declared_jones_must_satisfy_identities(self, jones, message):
        # metadata-only, so no diagram recomputes and overrides it
        record = KnotRecord(
            name="bad_jones", delta=parse_poly("1 - t + t^2"), jones=parse_poly(jones)
        )
        with pytest.raises(CorpusError, match="bad_jones: " + message):
            enrich_record(record)

    def test_declared_jones_must_match_the_diagram(self):
        # the mirror's V passes both identities, so only the diagram refutes it
        record = KnotRecord(
            name="mirrored_jones",
            diagram=parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"),
            jones=parse_poly("t + t^3 - t^4"),
        )
        with pytest.raises(CorpusError, match=r"mirrored_jones: declared jones t \+ t\^3 - t\^4 != computed"):
            enrich_record(record)

    def test_trefoil_full_enrichment(self, corpus):
        trefoil = corpus.get("3_1")
        assert trefoil.delta == parse_poly("1 - t + t^2")
        assert trefoil.determinant == 3
        assert genus_interval(trefoil) == (1, 1)

    def test_unknot_trivial(self, corpus):
        unknot = corpus.get("unknot")
        assert unknot.delta == parse_poly("1")
        assert unknot.determinant == 1
        assert genus_interval(unknot) == (0, 0)
        assert unknot.flags.free is True and unknot.flags.fibred is True

    def test_enrich_idempotent(self, corpus):
        for record in corpus:
            assert enrich_record(record, {r.name: r for r in corpus}) == record

    def test_composite_delta_cross_checked(self, corpus):
        granny = corpus.get("granny")
        trefoil = corpus.get("3_1")
        assert granny.delta == (trefoil.delta * trefoil.delta).normalize()
        ks = corpus.get("ks_cable23_of_4_1")
        assert ks.delta == parse_poly("1 - t - 2t^2 + 3t^3 - 2t^4 - t^5 + t^6")

    def test_winding_zero_double_has_pattern_delta(self, corpus):
        double = corpus.get("double_of_3_1")
        assert double.delta == corpus.get("unknot").delta

    def test_bad_composite_rejected(self, corpus):
        siblings = {r.name: r for r in corpus}
        record = KnotRecord(
            name="fake_sum",
            delta=parse_poly("1 - t + t^2"),
            connected_sum_of=("3_1", "3_1"),
        )
        with pytest.raises(CorpusError, match="connected sum"):
            enrich_record(record, siblings)

    def test_non_palindromic_delta_rejected(self):
        with pytest.raises(CorpusError, match="palindromic"):
            enrich_record(KnotRecord(name="x", delta=parse_poly("1 - t + t^3")))

    def test_sparse_palindrome_checked_over_terms(self):
        record = enrich_record(KnotRecord(name="x", delta=parse_poly("1 - t^10000000 + t^20000000")))
        assert record.genus_lower == 10**7
        with pytest.raises(CorpusError, match="palindromic"):
            enrich_record(KnotRecord(name="y", delta=parse_poly("1 - t^3 + t^20000000")))

    def test_delta_at_one_must_be_unit(self):
        with pytest.raises(CorpusError, match="expected \\+-1"):
            enrich_record(KnotRecord(name="x", delta=parse_poly("1 - t + 3t^2 - t^3 + t^4")))

    def test_unknot_flag_with_nontrivial_delta_rejected(self):
        record = KnotRecord(
            name="x", delta=parse_poly("1 - t + t^2"), flags=Flags(unknot=True)
        )
        with pytest.raises(CorpusError, match="unknot flag"):
            enrich_record(record)

    def test_fibred_requires_monic(self):
        record = KnotRecord(
            name="x", delta=parse_poly("2 - 3t + 2t^2"), flags=Flags(fibred=True)
        )
        with pytest.raises(CorpusError, match="monic"):
            enrich_record(record)

    INVALID_VALUES = [
        ({"sum_of_simple": 1}, "k: sum_of_simple must be true or false"),
        ({"braid": "3: 1 2"}, "k: malformed braid word '3: 1 2', expected 'B<n>: i1 i2 ...'"),
        ({"delta": "-1 + t - t^2"}, "k: declared delta must be normalized"),
        ({"genus_exact": 0}, "k: genus_lower 1 > genus_exact 0"),
        ({"genus_upper": 1, "genus_exact": 2}, "k: genus_exact 2 > genus_upper 1"),
        ({"genus_upper": 0}, "k: genus_lower 1 > genus_upper 0"),
    ]

    @pytest.mark.parametrize("fields, message", INVALID_VALUES)
    def test_invalid_values_rejected(self, fields, message):
        # a trefoil's delta, so the genus is at least 1
        with pytest.raises(CorpusError) as error:
            enrich_record(record_from_json({"name": "k", "delta": "1 - t + t^2", **fields}))
        assert str(error.value) == message

    def test_ghat_below_genus_rejected(self):
        record = KnotRecord(
            name="x", delta=parse_poly("1 - 3t + t^2"), genus_exact=1, ghat=0
        )
        with pytest.raises(CorpusError, match="ghat 0 < genus_exact 1"):
            enrich_record(record)


class TestJonesAtLoad:
    @pytest.fixture
    def brackets(self, monkeypatch):
        calls = []
        bracket = alexander.kauffman_bracket
        monkeypatch.setattr(alexander, "kauffman_bracket", lambda pd: calls.append(pd) or bracket(pd))
        return calls

    def test_bundled_load_brackets_only_declared_jones(self, brackets, corpus_path):
        corpus = load_corpus(corpus_path)
        list(corpus)  # enriches every record
        declared = ("3_1", "4_1", "trefoil_alt_diagram")
        assert sorted(map(str, brackets)) == sorted(str(corpus.get(name).diagram) for name in declared)
        assert corpus.get("5_2").jones is None

    def test_verify_paper_reads_the_loaded_trefoil_jones(self, brackets, corpus_path):
        # verify-paper reads every record first, which brackets the three
        # declared Jones polynomials; the check on the trefoil's reuses its
        run_verification(corpus_path)
        calls = list(brackets)
        corpus = load_corpus(corpus_path)
        declared = ("3_1", "4_1", "trefoil_alt_diagram")
        assert sorted(map(str, calls)) == sorted(str(corpus.get(name).diagram) for name in declared)

    def test_record_jones(self, monkeypatch, corpus_path):
        # declared, else computed within the budget and checked, else None
        corpus = load_corpus(corpus_path)
        trefoil, five2 = corpus.get("3_1"), corpus.get("5_2")
        assert record_jones(trefoil) is trefoil.jones
        assert record_jones(trefoil._replace(jones=None)) == trefoil.jones
        assert record_jones(five2) == alexander.jones_polynomial(five2.diagram)
        assert record_jones(enrich_record(KnotRecord(name="m", delta=parse_poly("1 - t + t^2")))) is None
        monkeypatch.setattr(alexander, "JONES_CROSSING_BUDGET", five2.diagram.crossing_count - 1)
        assert record_jones(five2) is None
        monkeypatch.undo()
        bracket = alexander.kauffman_bracket
        monkeypatch.setattr(alexander, "kauffman_bracket", lambda pd: LaurentPoly.const(2) * bracket(pd))
        with pytest.raises(CorpusError, match=r"^5_2: jones\(1\) = 2, expected 1$"):
            record_jones(five2)

    def test_declared_jones_over_the_budget_needs_no_bracket(self, brackets, monkeypatch):
        pd = braid_to_pd(parse_braid("B2: " + " ".join(["1"] * 25)))
        with monkeypatch.context() as patch:
            patch.setattr(alexander, "JONES_CROSSING_BUDGET", pd.crossing_count)
            jones = alexander.jones_polynomial(pd)
        brackets.clear()
        corpus = build_corpus([record_from_json({"name": "t2_25", "diagram": str(pd), "jones": format_poly(jones)})])
        assert corpus.get("t2_25").jones == jones
        assert brackets == []

    def test_braid_records_declaring_only_delta_need_no_bracket(self, brackets):
        records = [
            record_from_json({
                "name": f"b{i}",
                "braid": f"B{braid.strand_count}: " + " ".join(map(str, braid.letters)),
                "delta": format_poly(alexander_polynomial(pd)),
            })
            for i, (_, braid, pd) in enumerate(random_closures(5, 20, 14))
        ]
        corpus = build_corpus(records)
        assert brackets == []
        assert all(record.diagram is not None and record.jones is None for record in corpus)


class TestFlagClosure:
    def test_two_bridge_implies_small_and_free(self):
        flags = close_flags(Flags(two_bridge=True))
        assert flags.alternating is True
        assert flags.small is True
        assert flags.free is True

    def test_unknot_closes_in_one_call(self):
        flags = close_flags(Flags(unknot=True))
        assert flags.fibred is True and flags.free is True and flags.small is True

    def test_one_pass_is_closed(self):
        # every assignment of the flags in the implications is closed
        # after one call
        names = ("unknot", "two_bridge", "fibred", "small", "free", "alternating")
        for values in itertools.product((None, False, True), repeat=len(names)):
            try:
                flags = close_flags(Flags(**dict(zip(names, values))))
            except CorpusError:
                continue
            assert close_flags(flags) == flags

    def test_fibred_implies_free(self):
        assert close_flags(Flags(fibred=True)).free is True

    def test_contradiction_raises(self):
        with pytest.raises(CorpusError, match="contradiction"):
            close_flags(Flags(two_bridge=True, free=False))

    def test_monotone_unknowns_preserved(self):
        flags = close_flags(Flags())
        assert flags == Flags()

    def test_false_values_kept(self):
        flags = close_flags(Flags(small=False, fibred=True))
        assert flags.small is False and flags.free is True

    def test_closure_reaches_fixpoint_quickly(self, corpus):
        # one extra pass over an already-closed record changes nothing
        for record in corpus:
            assert close_flags(record.flags) == record.flags

    def test_ghat_filled_from_fibred(self, corpus):
        granny = corpus.get("granny")
        assert granny.ghat == granny.genus_exact == 2


class TestGenusInterval:
    def test_exact_interval(self, corpus):
        assert genus_interval(corpus.get("5_2")) == (1, 1)

    def test_metadata_only_unbounded_without_exact(self):
        record = enrich_record(KnotRecord(name="x", delta=parse_poly("1 - 3t + t^2")))
        assert genus_interval(record) == (1, None)

    def test_unenriched_rejected(self):
        with pytest.raises(CorpusError, match="not enriched"):
            genus_interval(KnotRecord(name="x"))


class TestVolumes:
    def test_normalization(self):
        assert normalize_volume("0.0") == "0.00000000"
        assert normalize_volume("2.029883212") == "2.02988321"
        assert normalize_volume("11.21911861") == "11.21911861"

    def test_bad_volume_rejected(self):
        with pytest.raises(CorpusError):
            normalize_volume("fast")
        with pytest.raises(CorpusError):
            normalize_volume("-1.0")

    @pytest.mark.parametrize("text", ["NaN", "sNaN", "-NaN", "Infinity", "-Infinity", "1e999999", "1e20"])
    def test_non_finite_or_oversized_volume_rejected(self, text):
        with pytest.raises(CorpusError, match="volume"):
            normalize_volume(text)

    def test_negative_zero_is_zero(self):
        assert normalize_volume("-0") == normalize_volume("-0.0") == normalize_volume("0.0") == "0.00000000"
        assert normalize_volume("99999999999999999999.9") == "99999999999999999999.90000000"
        records = [record_from_json({"name": n, "delta": "1", "volume": v}) for n, v in (("a", "-0"), ("b", "0.0"))]
        corpus = build_corpus(records)
        assert corpus.get("a").volume == corpus.get("b").volume == "0.00000000"

    def test_mutant_volumes_equal(self, corpus):
        assert corpus.get("KT_mutant").volume == corpus.get("Conway_mutant").volume


def test_build_corpus_requires_composites_enrichable(corpus):
    # circular composite references cannot be ordered; the first read
    # rejects them
    a = KnotRecord(name="a", delta=parse_poly("1"), satellite_of=("b", "b", 0))
    b = KnotRecord(name="b", delta=parse_poly("1"), satellite_of=("a", "a", 0))
    with pytest.raises(CorpusError, match="circular composite"):
        build_corpus([a, b]).records
    with pytest.raises(CorpusError, match="circular composite"):
        build_corpus([a, b]).get("a")


def test_build_corpus_rejects_two_names_for_one_connected_sum():
    # a#b and b#a are one knot; as two records each would certify the
    # other by connected-sum projection, a cycle in the order
    a = KnotRecord(name="a", delta=parse_poly("1 - t + t^2"))
    b = KnotRecord(name="b", delta=parse_poly("1 - 3t + t^2"))
    s1 = KnotRecord(name="s1", connected_sum_of=("a", "b"))
    s2 = KnotRecord(name="s2", connected_sum_of=("b", "a"))
    with pytest.raises(CorpusError, match="s1 and s2 are both the connected sum of a # b"):
        build_corpus([a, b, s1, s2])


def test_build_corpus_cycle_error_names_only_the_cycle():
    a = KnotRecord(name="a", delta=parse_poly("1"), satellite_of=("b", "b", 0))
    b = KnotRecord(name="b", delta=parse_poly("1"), satellite_of=("a", "a", 0))
    c = KnotRecord(name="c", delta=parse_poly("1"), satellite_of=("a", "a", 0))
    with pytest.raises(CorpusError, match=r"^circular composite references among \['a', 'b'\]$"):
        build_corpus([c, a, b]).records
    with pytest.raises(CorpusError, match=r"^circular composite references among \['a', 'b'\]$"):
        build_corpus([c, a, b]).get("c")


def test_build_corpus_enriches_parts_listed_later():
    # a satellite whose companion is a connected sum, both listed before
    # their parts
    sat = KnotRecord(name="sat", satellite_of=("p", "sum", 2))
    total = KnotRecord(name="sum", connected_sum_of=("a", "b"))
    a = KnotRecord(name="a", delta=parse_poly("1 - t + t^2"))
    b = KnotRecord(name="b", delta=parse_poly("1 - 3t + t^2"))
    p = KnotRecord(name="p", delta=parse_poly("1 - t + t^2"))
    corpus = build_corpus([sat, total, a, b, p])
    assert [r.name for r in corpus] == ["sat", "sum", "a", "b", "p"]
    assert all(r.enriched for r in corpus)
    assert corpus.get("sum").delta == parse_poly("1 - 4t + 5t^2 - 4t^3 + t^4")
    assert corpus.get("sat").delta == parse_poly("1 - t + t^2") * parse_poly("1 - 4t^2 + 5t^4 - 4t^6 + t^8")


def oracle_cases(corpus_path):
    """The declared records of the bundled corpus, of seeded generated
    corpora and of a 60-deep satellite chain."""
    cases = [[record_from_json(entry) for entry in json.loads(corpus_path.read_text())]]
    for seed in range(20):
        generated = random_corpus(seed)
        cases.append([generated.declared(name) for name in generated.names()])
    cases.append([record_from_json(entry) for entry in satellite_chain(60)])
    return cases


def reach(corpus, names):
    """`names` and every record they reference, transitively."""
    seen, stack = set(), list(names)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(corpus.declared(name).references())
    return seen


class TestEnrichOnFirstRead:
    @pytest.fixture(scope="class")
    def cases(self, corpus_path):
        return [(records, eager_build_corpus(records)) for records in oracle_cases(corpus_path)]

    @pytest.fixture
    def enriched(self, monkeypatch):
        """The names of the records enriched, in call order."""
        names = []
        enrich = knotbase.enrich_record
        monkeypatch.setattr(
            knotbase, "enrich_record", lambda record, siblings=None: names.append(record.name) or enrich(record, siblings)
        )
        return names

    @pytest.fixture
    def certify_reads(self, monkeypatch):
        """The records `build_graph` certifies and the targets `poset` scans,
        as they run."""
        names = []
        scan, rooted = poset.scan, poset.build_graph

        def recording_scan(k1, k2):
            names.append(k2.name)
            return scan(k1, k2)

        def recording_build_graph(corpus, roots=None):
            graph = rooted(corpus, roots)
            names.extend(graph.nodes)
            return graph

        monkeypatch.setattr(poset, "scan", recording_scan)
        monkeypatch.setattr(poset, "build_graph", recording_build_graph)
        return names

    INVALID_RECORDS = {
        "declared": (
            [{"name": "x", "satellite_of": ["3_1", "4_1", 1], "delta": "1"}],
            "x: declared delta (satellite) 1 != computed 1 - 4t + 5t^2 - 4t^3 + t^4",
        ),
        "dangling": (
            [{"name": "x", "satellite_of": ["3_1", "ghost", 1], "delta": "1"}],
            "x: dangling cross-reference to 'ghost'",
        ),
        "circular": (
            [{"name": "x", "satellite_of": ["y", "3_1", 1]}, {"name": "y", "satellite_of": ["x", "3_1", 1]}],
            "circular composite references among ['x', 'y']",
        ),
        # the braid closes into the other trefoil: it must not go unread
        "diagram and braid": (
            [{"name": "x", "diagram": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "braid": "B2: 1 1 1"}],
            "x: gives both a diagram and a braid, expected at most one",
        ),
        # a link braid is a parse error, met before any enrichment error
        "link after a wrong delta": (
            [{"name": "x", "diagram": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "delta": "1"}, {"name": "y", "braid": "B2: 1 1"}],
            "y: braid closure has 2 components, expected a knot",
        ),
    }

    @pytest.fixture(params=INVALID_RECORDS, ids=str)
    def invalid(self, request, corpus_path, tmp_path):
        """The bundled corpus with unreferenced invalid records listed
        first, a wrong declared delta, a dangling reference or a satellite
        cycle, and a non-palindromic `z` listed last; and the error the
        first read of every record gives."""
        first, error = self.INVALID_RECORDS[request.param]
        z = {"name": "z", "delta": "1 + t - t^2"}
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps([*first, *json.loads(corpus_path.read_text()), z]))
        return path, error

    def test_load_enriches_nothing(self, enriched, corpus_path):
        corpus = load_corpus(corpus_path)
        assert len(corpus) == len(corpus.names()) == 12 and "granny" in corpus
        assert corpus.declared("granny").enriched is False
        assert enriched == []

    def test_get_in_any_order_matches_eager_load(self, cases):
        for records, eager in cases:
            corpus = build_corpus(records)
            names = corpus.names()
            random.Random(len(names)).shuffle(names)
            for name in names:
                assert corpus.get(name) == eager.get(name), name
            assert corpus == eager

    def test_rooted_build_graph_matches_eager_load(self, cases):
        for records, eager in cases:
            for name in eager.names():
                assert build_graph(build_corpus(records), [name]) == build_graph(eager, [name]), name

    def test_build_graph_matches_eager_load(self, cases):
        for records, eager in cases:
            assert build_graph(build_corpus(records)) == build_graph(eager)

    def test_invariants_enrich_what_the_name_references(self, capsys, enriched, corpus_path, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(satellite_chain(30)))
        for path in (corpus_path, chain):
            corpus = load_corpus(path)
            for name in corpus.names():
                enriched.clear()
                assert main(["--corpus", str(path), "invariants", name]) == EXIT_OK
                assert sorted(enriched) == sorted(reach(corpus, [name])), name
        capsys.readouterr()

    def test_check_enriches_what_certify_reads(self, capsys, enriched, certify_reads, corpus):
        for a, b in itertools.product(corpus.names(), repeat=2):
            enriched.clear()
            certify_reads.clear()
            main(["check", a, b])
            assert sorted(enriched) == sorted(reach(corpus, [a, b, *certify_reads])), (a, b)
            assert a in certify_reads, (a, b)  # `check A A` reads the graph out of A too
        capsys.readouterr()

    def test_chain_bound_enriches_what_certify_reads(self, capsys, enriched, certify_reads, corpus_path, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(satellite_chain(30)))
        for path in (corpus_path, chain):
            corpus = load_corpus(path)
            for name in corpus.names():
                enriched.clear()
                certify_reads.clear()
                assert main(["--corpus", str(path), "chain-bound", name]) == EXIT_OK
                assert sorted(enriched) == sorted(reach(corpus, certify_reads)), name
        capsys.readouterr()

    def test_rooted_build_graph_enriches_what_it_reads(self, enriched, certify_reads, cases):
        # a certified candidate is enriched after the records it references
        beyond = 0
        for records, _ in cases:
            for name in sorted(r.name for r in records):
                enriched.clear()
                certify_reads.clear()
                corpus = build_corpus(records)
                poset.build_graph(corpus, [name])
                assert sorted(enriched) == sorted(reach(corpus, certify_reads)), name
                beyond += len(enriched) > len(set(certify_reads))
        assert beyond

    @pytest.mark.parametrize("argv", [("invariants", "3_1"), ("check", "granny", "3_1"), ("chain-bound", "granny")])
    @pytest.mark.parametrize("form", [(), ("--json",)])
    def test_queries_read_past_invalid_records(self, capsys, invalid, argv, form):
        path, _ = invalid
        expected = run(capsys, *form, *argv)
        assert expected[0] == EXIT_OK
        assert run(capsys, "--corpus", str(path), *form, *argv) == expected

    def test_whole_corpus_commands_report_the_first_invalid_record(self, capsys, invalid):
        invalid_path, error = invalid
        for form in ((), ("--json",)):
            assert run(capsys, "--corpus", str(invalid_path), *form, "poset") == (EXIT_USAGE, "", f"error: {error}\n")
            assert run(capsys, "--corpus", str(invalid_path), *form, "verify-paper") == (
                EXIT_USAGE, "", f"error: missing or invalid fixture: {error}\n"
            )

    def test_queries_skip_an_invalid_sum_they_do_not_certify(self, capsys, corpus_path, tmp_path):
        # bad's summands lie among those of s, but no pairing certifies
        # s >= bad, so only the whole-corpus command reads it
        path = tmp_path / "sums.json"
        sums = [{"name": "s", "connected_sum_of": ["3_1", "4_1"]}, {"name": "bad", "connected_sum_of": ["4_1", "4_1"], "delta": "1"}]
        path.write_text(json.dumps([*json.loads(corpus_path.read_text()), *sums]))
        code, out, _ = run(capsys, "--corpus", str(path), "check", "s", "3_1")
        assert code == EXIT_OK and "C1_connected_sum" in out
        code, out, _ = run(capsys, "--corpus", str(path), "chain-bound", "s")
        assert code == EXIT_OK and out.startswith("longest certified chain from s: s > 3_1 > unknot ")
        assert run(capsys, "--corpus", str(path), "poset") == (
            EXIT_USAGE, "", "error: bad: declared delta (connected sum) 1 != computed 1 - 6t + 11t^2 - 6t^3 + t^4\n"
        )

    def test_invariants_of_an_invalid_record_name_it(self, capsys, invalid):
        assert run(capsys, "--corpus", str(invalid[0]), "invariants", "z") == (
            EXIT_USAGE, "", "error: z: delta 1 + t - t^2 is not palindromic\n"
        )


class TestParseOnFirstRead:
    @pytest.fixture
    def chain_path(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(satellite_chain(150)))
        return path

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Calls of the text parsers as knotbase imports them, by parser."""
        calls = Counter()
        for parser in ("parse_pd", "parse_braid", "parse_poly"):
            original = getattr(knotbase, parser)
            monkeypatch.setattr(
                knotbase, parser, lambda text, parser=parser, original=original: calls.update([parser]) or original(text)
            )
        return calls

    def test_get_in_any_order_matches_eager_parse(self, corpus_path, chain_path):
        for path in (corpus_path, chain_path):
            eager = eager_load_corpus(path)
            corpus = load_corpus(path)
            names = corpus.names()
            random.Random(len(names)).shuffle(names)
            for name in names:
                assert corpus.get(name) == eager.get(name), name
            assert corpus.records == load_corpus(path).records == eager.records

    def test_declared_shape_keeps_what_build_graph_reads(self, corpus_path, chain_path):
        for path in (corpus_path, chain_path):
            corpus, eager = load_corpus(path), eager_load_corpus(path)
            for name in eager.names():
                shape, record = corpus.declared(name), eager.get(name)
                assert (shape.name, shape.references()) == (record.name, record.references())
                assert shape.mutant_class == record.mutant_class
                assert (shape.flags.unknot is True) == (record.flags.unknot is True), name
                assert corpus.get(name) == record and corpus.declared(name) is shape

    SHAPE_ERRORS = [
        ["x"],
        {"delta": "1"},
        {"name": "x", "connected_sum_of": ["a"]},
        {"name": "x", "satellite_of": ["a", "b", -1]},
        {"name": "x", "flags": ["unknot"]},
        {"name": "x", "flags": {"unknot": 1}},
        {"name": "x", "mutant_class": 7},
    ]

    @pytest.mark.parametrize("entry", SHAPE_ERRORS)
    def test_load_checks_the_shape(self, parsed, tmp_path, entry):
        # the first entry has a PD syntax error, which waits for first read
        path = tmp_path / "shape.json"
        path.write_text(json.dumps([{"name": "w", "diagram": "X(1,"}, entry]))
        with pytest.raises(CorpusError) as expected:
            record_from_json(entry)
        with pytest.raises(CorpusError) as error:
            load_corpus(path)
        assert str(error.value) == str(expected.value)
        assert parsed == Counter()

    def test_load_parses_no_text(self, parsed, corpus_path, chain_path):
        for path in (corpus_path, chain_path):
            load_corpus(path)
        assert parsed == Counter()

    def test_invariants_parse_what_the_name_reaches(self, capsys, parsed, corpus_path, tmp_path):
        # each text field of a record the enrichment walk reaches parses
        # once, and no other; the chain's root reaches all 62 records,
        # its last pattern only itself
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(satellite_chain(60)))
        parser = {"diagram": "parse_pd", "braid": "parse_braid", "delta": "parse_poly", "jones": "parse_poly"}
        sizes = {}
        for path in (corpus_path, chain):
            entries = {entry["name"]: entry for entry in json.loads(path.read_text())}
            for name in entries:
                parsed.clear()
                assert main(["--corpus", str(path), "invariants", name]) == EXIT_OK
                reached = reach(load_corpus(path), [name])
                assert parsed == Counter(parser[key] for n in reached for key in entries[n] if key in parser), name
                sizes[name] = len(reached)
        assert (sizes["a0000"], sizes["a0060"], sizes["granny"]) == (62, 1, 2)
        capsys.readouterr()

    def test_volume_normalized_once_on_first_read(self, monkeypatch, tmp_path):
        calls = []
        normalize = knotbase.normalize_volume
        monkeypatch.setattr(knotbase, "normalize_volume", lambda text: calls.append(text) or normalize(text))
        path = tmp_path / "volume.json"
        path.write_text(json.dumps([
            {"name": "k", "delta": "1 - t + t^2", "volume": "-0"},
            {"name": "bad", "delta": "1 - t + t^2", "volume": "fast"},
        ]))
        corpus = load_corpus(path)
        assert calls == []
        assert corpus.get("k").volume == "0.00000000" and calls == ["-0"]
        with pytest.raises(CorpusError) as error:
            corpus.get("bad")
        assert str(error.value) == "bad: volume 'fast' is not a decimal string"

    def test_poset_shapes_each_record_once(self, monkeypatch, capsys, corpus_path):
        # the parse takes the shape the load made, through the public
        # record_from_json
        names = load_corpus(corpus_path).names()
        shaped, parsed = Counter(), Counter()
        shape, parse = knotbase.record_shape, knotbase.record_from_json
        monkeypatch.setattr(knotbase, "record_shape", lambda obj: shaped.update([obj["name"]]) or shape(obj))
        monkeypatch.setattr(
            knotbase, "record_from_json", lambda obj, *given: parsed.update([obj["name"]]) or parse(obj, *given)
        )
        assert main(["poset", "--corpus", str(corpus_path)]) == EXIT_OK
        assert shaped == parsed == Counter(names)
        capsys.readouterr()

    SYNTAX_ERRORS = {
        "pd": {"diagram": "X(1,4,2,5) X(3,6"},
        "braid": {"braid": "B2: 1 x 1"},
        "polynomial": {"jones": "t +* 1"},
        "flag": {"flags": {"fibred": "yes"}},
        "determinant": {"determinant": -3},
        "field": {"colour": "red"},
        "link braid": {"braid": "B2: 1 1"},
        # the virtual trefoil (Kauffman 1999): a Gauss code with no planar diagram
        "virtual pd": {"diagram": "X(2,1,3,4) X(3,2,4,1)"},
    }

    @pytest.fixture(params=SYNTAX_ERRORS, ids=str)
    def syntax_error(self, request, corpus_path, tmp_path):
        """The bundled corpus with two unreferenced records, `x` in the
        middle and then `y`, each with one syntax error, and the error
        parsing `x` gives."""
        x = {"name": "x", "delta": "1 - t + t^2", **self.SYNTAX_ERRORS[request.param]}
        y = {"name": "y", "delta": "1 - t + t^2", "braid": "B2: 1 1 y"}
        entries = json.loads(corpus_path.read_text())
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps([*entries[:6], x, *entries[6:], y]))
        with pytest.raises(CorpusError) as error:
            record_from_json(x)
        return path, str(error.value)

    @pytest.mark.parametrize("argv", [("invariants", "3_1"), ("check", "granny", "3_1"), ("chain-bound", "granny")])
    @pytest.mark.parametrize("form", [(), ("--json",)])
    def test_queries_read_past_syntax_errors(self, capsys, syntax_error, argv, form):
        path, _ = syntax_error
        expected = run(capsys, *form, *argv)
        assert expected[0] == EXIT_OK
        assert run(capsys, "--corpus", str(path), *form, *argv) == expected

    def test_whole_corpus_commands_report_the_first_syntax_error(self, capsys, syntax_error):
        path, error = syntax_error
        assert error.startswith("x: ")
        for form in ((), ("--json",)):
            assert run(capsys, "--corpus", str(path), *form, "poset") == (EXIT_USAGE, "", f"error: {error}\n")
            assert run(capsys, "--corpus", str(path), *form, "verify-paper") == (
                EXIT_USAGE, "", f"error: missing or invalid fixture: {error}\n"
            )
            assert run(capsys, "--corpus", str(path), *form, "invariants", "x") == (EXIT_USAGE, "", f"error: {error}\n")


class TestOneReadPath:
    """Every read of a record takes one path, `Corpus._enrich`: it walks,
    parses what it walked, then enriches, and names a failing record once."""

    NAMED_ERRORS = {
        **{
            f"syntax {key}": [{"name": "x", "delta": "1 - t + t^2", **fields}]
            for key, fields in TestParseOnFirstRead.SYNTAX_ERRORS.items()
        },
        **{
            f"invalid {key}": entries
            for key, (entries, _) in TestEnrichOnFirstRead.INVALID_RECORDS.items()
            # these name the cycle and the second record, not the first
            if key not in ("circular", "link after a wrong delta")
        },
        **{
            f"value {message}": [{"name": "k", "delta": "1 - t + t^2", **fields}]
            for fields, message in TestEnrichment.INVALID_VALUES
        },
        **{
            f"shape {i}": [entry]
            for i, entry in enumerate(TestParseOnFirstRead.SHAPE_ERRORS)
            if isinstance(entry, dict) and "name" in entry
        },
        "code-built winding -1": KnotRecord(name="s", satellite_of=("3_1", "4_1", -1)),
    }

    @pytest.fixture(scope="class")
    def siblings(self, corpus_path):
        return {record.name: record for record in load_corpus(corpus_path)}

    @pytest.mark.parametrize("case", NAMED_ERRORS)
    def test_every_read_names_the_record_once(self, case, corpus_path, siblings, tmp_path):
        given = self.NAMED_ERRORS[case]
        if isinstance(given, KnotRecord):
            name = given.name
            load = lambda: build_corpus([*siblings.values(), given])  # noqa: E731
            direct = lambda: enrich_record(given, siblings)  # noqa: E731
        else:
            name = given[0]["name"]
            path = tmp_path / "corpus.json"
            path.write_text(json.dumps([*json.loads(corpus_path.read_text()), *given]))
            load = lambda: load_corpus(path)  # noqa: E731
            direct = lambda: enrich_record(record_from_json(given[0]), siblings)  # noqa: E731
        for read in (lambda: load().get(name), lambda: load().records, direct):
            with pytest.raises(CorpusError) as error:
                read()
            message = str(error.value)
            assert message.startswith(f"{name}: ") and not message.startswith(f"{name}: {name}: "), message

    @pytest.mark.parametrize("entry, message", [
        ({"name": "x", "delta": "1 - t + t^2", "diagram": "X(1,"}, "x: malformed PD token"),
        # were the JSON object dropped after a parse, a later read would
        # enrich the shape, which declares no delta to contradict
        ({"name": "x", "connected_sum_of": ["3_1", "4_1"], "delta": "1"}, "x: declared delta (connected sum) 1 != "),
    ])
    def test_a_failed_read_fails_again_the_same_way(self, corpus_path, tmp_path, entry, message):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([*json.loads(corpus_path.read_text()), entry]))
        corpus, errors = load_corpus(path), []
        for read in (lambda: corpus.get("x"), lambda: corpus.get("x"), lambda: corpus.records, lambda: corpus.records):
            with pytest.raises(CorpusError) as error:
                read()
            errors.append(str(error.value))
        assert errors[0].startswith(message) and errors == errors[:1] * 4

    def test_syntax_errors_are_met_in_walk_order(self, capsys, tmp_path):
        # b is walked before a, which references it
        entries = [
            {"name": "a", "connected_sum_of": ["b", "c"], "delta": "1 -"},
            {"name": "b", "diagram": "X(1,"},
            {"name": "c"},
        ]
        path = tmp_path / "order.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(CorpusError) as error:
            record_from_json(entries[1])
        assert str(error.value).startswith("b: malformed PD token")
        for argv in (("poset",), ("invariants", "a")):
            assert run(capsys, "--corpus", str(path), *argv) == (EXIT_USAGE, "", f"error: {error.value}\n")

    def test_declared_is_the_record_as_given(self, corpus_path, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(satellite_chain(30)))
        for path in (corpus_path, chain):
            entries = json.loads(path.read_text())
            corpus = load_corpus(path)
            given = {name: corpus.declared(name) for name in corpus.names()}
            assert all(given[entry["name"]] == knotbase.record_shape(entry) for entry in entries)
            names = corpus.names()
            random.Random(len(names)).shuffle(names)
            for name in names:
                corpus.get(name)
                assert corpus.declared(name) is given[name], name
            corpus.records
            assert all(corpus.declared(name) is record for name, record in given.items())
