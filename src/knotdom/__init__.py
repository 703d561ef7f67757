"""Exact knot invariants and a sound partial decision procedure for the
1-domination partial order on knots."""

from .alexander import (
    alexander_polynomial,
    braid_alexander_polynomial,
    connected_sum_delta,
    determinant_invariant,
    jones_polynomial,
    satellite_delta,
)
from .diagram import BraidWord, PDCode, braid_to_pd, parse_braid, parse_pd, seifert_circles
from .domination import Certificate, ObstructionReport, Verdict, scan
from .knotbase import Corpus, CorpusError, Flags, KnotRecord, enrich_record, genus_interval, load_corpus
from .laurent import LaurentPoly, divides, format_poly, is_prime_power, parse_poly
from .poset import ChainBound, DominationGraph, build_graph, chain_length_bound, evaluate, longest_chain

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "Certificate",
    "ChainBound",
    "Corpus",
    "CorpusError",
    "DominationGraph",
    "Flags",
    "KnotRecord",
    "LaurentPoly",
    "ObstructionReport",
    "PDCode",
    "Verdict",
    "alexander_polynomial",
    "braid_alexander_polynomial",
    "braid_to_pd",
    "build_graph",
    "chain_length_bound",
    "connected_sum_delta",
    "determinant_invariant",
    "divides",
    "enrich_record",
    "evaluate",
    "format_poly",
    "genus_interval",
    "is_prime_power",
    "jones_polynomial",
    "load_corpus",
    "longest_chain",
    "parse_braid",
    "parse_pd",
    "parse_poly",
    "satellite_delta",
    "scan",
    "seifert_circles",
]
