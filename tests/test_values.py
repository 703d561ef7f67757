"""Value semantics of the public types, and what importing the CLI costs:
every value is immutable, equal values hash alike, and `knotdom.cli`
loads no reflection machinery."""
import subprocess
import sys
from pathlib import Path

import pytest

import knotdom
from knotdom.cli import CheckResult, RunReport
from knotdom.diagram import BraidWord, PDCode, WirtingerPresentation, parse_braid, parse_pd, wirtinger
from knotdom.domination import Certificate, ObstructionReport, Verdict
from knotdom.knotbase import Corpus, Flags, KnotRecord, build_corpus
from knotdom.laurent import LaurentPoly, parse_poly
from knotdom.poset import ChainBound, DominationGraph, Edge, build_graph

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def _records():
    return [
        KnotRecord(name="unknot", delta=parse_poly("1"), flags=Flags(unknot=True)),
        KnotRecord(name="3_1", braid=parse_braid("B2: 1 1 1"), volume="0"),
        KnotRecord(name="4_1", diagram=parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)")),
        KnotRecord(name="sum", connected_sum_of=("3_1", "4_1")),
    ]


def _check():
    return CheckResult("alexander_examples", True, "computed", "Ex. 6.3")


# type -> (a function building a fresh value, an attribute to assign)
VALUES = {
    LaurentPoly: (lambda: parse_poly("1 - t + t^2"), "terms"),
    PDCode: (lambda: parse_pd(TREFOIL), "crossings"),
    BraidWord: (lambda: parse_braid("B3: 1 -2 1 -2"), "letters"),
    WirtingerPresentation: (lambda: wirtinger(parse_pd(TREFOIL)), "relations"),
    Flags: (lambda: Flags(fibred=True, small=False), "fibred"),
    KnotRecord: (lambda: build_corpus(_records()).get("3_1"), "delta"),
    Corpus: (lambda: build_corpus(_records()), "records"),
    ObstructionReport: (lambda: ObstructionReport("O1_alexander", "1 - t + t^2 does not divide 1"), "detail"),
    Certificate: (lambda: Certificate("C1_connected_sum", ("sum", "3_1")), "witnesses"),
    Verdict: (lambda: Verdict("certified", certificate=Certificate("C0_unknot", ("3_1", "unknot"))), "kind"),
    Edge: (lambda: Edge("sum", "3_1", Certificate("C1_connected_sum", ("sum", "3_1"))), "dst"),
    DominationGraph: (lambda: build_graph(build_corpus(_records())), "edges"),
    ChainBound: (lambda: ChainBound(1, "free_ghat", "total_length"), "value"),
    CheckResult: (_check, "passed"),
    RunReport: (lambda: RunReport((_check(),)), "checks"),
}


@pytest.mark.parametrize("kind", list(VALUES), ids=lambda kind: kind.__name__)
def test_value_semantics(kind):
    make, attr = VALUES[kind]
    a, b = make(), make()
    assert type(a) is kind and a is not b
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, attr, getattr(b, attr))
    with pytest.raises(AttributeError):
        a.note = "extra"
    assert a == b


def test_every_public_type_is_covered():
    public_types = {getattr(knotdom, name) for name in knotdom.__all__ if isinstance(getattr(knotdom, name), type)}
    assert public_types - {knotdom.CorpusError} <= set(VALUES)
    assert len(VALUES) == 15


def test_a_polynomial_is_not_a_tuple():
    one = LaurentPoly.const(1)
    assert one != ((0, 1),) and one.terms == ((0, 1),)
    assert one == LaurentPoly(((0, 1),)) and one != LaurentPoly.const(2)
    assert not isinstance(one, tuple)


def test_cli_import_loads_no_reflection_machinery():
    # -S: some site configurations import importlib.resources themselves;
    # graphlib: every graph walk in the package is knotbase._walk
    modules = ("dataclasses", "fractions", "graphlib", "inspect", "importlib.resources")
    src = Path(knotdom.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import knotdom.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src), *modules],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == []
