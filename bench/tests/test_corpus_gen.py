"""The seeded generator: determinism, validity, and its independent oracle.

    python3 -m pytest bench/tests -q
"""
from collections import Counter

import pytest

import corpus_gen
from knots import alexander_of_braid, braid_pd_text, braid_text, p_format, permutation_is_cycle, random_knot_word
from knotdom.alexander import alexander_polynomial, jones_polynomial
from knotdom.diagram import braid_to_pd, parse_braid, parse_pd
from knotdom.knotbase import load_corpus
from knotdom.laurent import format_poly


def _braid(text):
    strands, body = text.split(":")
    return int(strands[1:]), [int(x) for x in body.split()]


def _words(workload):
    """Every braid word the workload sends, as corpus record or ad-hoc text."""
    words = [_braid(r["braid"]) for r in workload.corpus or () if "braid" in r]
    words += [_braid(d.text) for d in workload.diagrams if d.text.startswith("B")]
    return words


@pytest.mark.parametrize("name", corpus_gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    first, second = corpus_gen.build(name, 5), corpus_gen.build(name, 5)
    assert [d.text for d in first.diagrams] == [d.text for d in second.diagrams]
    if first.corpus is not None:
        assert first.corpus_text() == second.corpus_text()
    assert corpus_gen.build(name, 6).diagrams != first.diagrams


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_corpus_loads(seed, tmp_path):
    workload = corpus_gen.build("poset-scan", seed)
    path = tmp_path / "corpus.json"
    path.write_text(workload.corpus_text())
    corpus = load_corpus(path)
    assert len(corpus) == len(workload.corpus)
    assert workload.lookup in corpus and workload.chain_name in corpus


@pytest.mark.parametrize("name", corpus_gen.WORKLOADS)
def test_words_close_to_one_component(name):
    for strands, word in _words(corpus_gen.build(name, 2)):
        assert permutation_is_cycle(strands, word)
        if strands == 4:
            assert len(word) % 2 == 1
    for diagram in corpus_gen.build("pd-invariants", 2).diagrams:
        assert parse_pd(diagram.text).crossing_count == diagram.crossings


def test_no_record_repeats_another_construction():
    records = corpus_gen.build("poset-scan", 3).corpus
    sums = Counter(tuple(sorted(r["connected_sum_of"])) for r in records if "connected_sum_of" in r)
    satellites = Counter(tuple(r["satellite_of"]) for r in records if "satellite_of" in r)
    assert max(sums.values()) == 1 and max(satellites.values()) == 1
    primes = [r["delta"] for r in records if "connected_sum_of" not in r and "satellite_of" not in r
              and "mutant_class" not in r]
    assert len(primes) == len(set(primes))


def test_burau_oracle_matches_fox_calculus():
    import random

    rng = random.Random(11)
    for strands, length in [(3, 8), (4, 9), (5, 10), (6, 13)]:
        word = random_knot_word(rng, strands, length)
        expected = format_poly(alexander_polynomial(braid_to_pd(parse_braid(braid_text(strands, word)))))
        assert p_format(alexander_of_braid(strands, tuple(word))) == expected


def test_pd_traversal_matches_the_program_braid_closure():
    import random

    rng = random.Random(12)
    for strands, length in [(3, 6), (4, 7), (5, 8)]:
        word = random_knot_word(rng, strands, length)
        ours = parse_pd(braid_pd_text(strands, word))
        theirs = braid_to_pd(parse_braid(braid_text(strands, word)))
        assert ours.writhe() == theirs.writhe()
        assert jones_polynomial(ours) == jones_polynomial(theirs)
