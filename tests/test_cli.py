"""Command-line behavior: outputs, exit codes, and determinism."""
import contextlib
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from knotdom import cli
from knotdom.cli import (
    EXIT_OBSTRUCTED,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    _build_parser,
    default_corpus_path,
    main,
    run_verification,
)

from knotdom.alexander import kauffman_bracket
from knotdom.diagram import braid_to_pd
from knotdom.domination import ANCHORS
from knotdom.knotbase import load_corpus
from knotdom.laurent import LaurentPoly, parse_poly
from knotdom.poset import build_graph, chain_length_bound, longest_chain

from kernel_oracle import eager_enrich_record
from test_kernels import random_closures, random_knot_braid
from poset_oracle import serialized
from test_poset import contradiction_corpus, random_corpus, satellite_chain, sibling_sums_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Corpus files that cannot be read or decoded; None: the path is a directory.
UNREADABLE_FILES = {
    "directory": None,
    "deep_array": b"[" * 100_000,
    "deep_flags": b'[{"name": "k", "delta": "1", "flags": ' + b"[" * 5000 + b"]" * 5000 + b"}]",
    "not_utf8": b'[{"name": "k", "delta": "1"}]\xff',
    "long_integer": b'[{"name": "k", "determinant": ' + b"7" * 5000 + b"}]",
}


def unreadable_file(tmp_path, kind):
    path = tmp_path / "corpus.json"
    if UNREADABLE_FILES[kind] is None:
        path.mkdir()
    else:
        path.write_bytes(UNREADABLE_FILES[kind])
    return path


class Sink:
    """A stdout that keeps only the count of characters written."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def odd_names_chain():
    """satellite_chain(3) renamed with a quote, a backslash, and
    characters outside ASCII and outside the basic plane; the volumes
    obstruct the three-step pair, so the audit quotes its chain."""
    names = {"a0000": 'a"q', "a0001": "b\\s", "a0002": "c\u00e9", "a0003": "d\U0001d542"}
    entries = json.loads(json.dumps(satellite_chain(3)))
    for entry in entries:
        entry["name"] = names.get(entry["name"], entry["name"])
        if "satellite_of" in entry:
            entry["satellite_of"][0] = names[entry["satellite_of"][0]]
    entries[1]["volume"], entries[-1]["volume"] = "1.0", "2.0"
    return entries


def braid_text(strands, letters):
    return f"B{strands}: " + " ".join(map(str, letters))


def invariants_sources():
    """Every bundled record, generated braid closures and their mirrors,
    and PD text either side of the 24-crossing Jones budget."""
    sources = load_corpus(default_corpus_path()).names()
    for _, braid, _ in random_closures(13, 8, 12):
        sources.append(braid_text(braid.strand_count, braid.letters))
        sources.append(braid_text(braid.strand_count, [-i for i in braid.letters]))
    for strands, crossings in ((3, 24), (4, 25)):
        braid = random_knot_braid(random.Random(crossings), strands, crossings)
        sources.append(pytest.param(str(braid_to_pd(braid)), id=f"pd-{crossings}-crossings"))
    return sources


class TestCheck:
    def test_certified_pair(self, capsys):
        code, out, _ = run(capsys, "check", "granny", "3_1")
        assert code == EXIT_OK
        assert "certified" in out and "C1_connected_sum" in out

    def test_obstructed_pair(self, capsys):
        code, out, _ = run(capsys, "check", "4_1", "3_1")
        assert code == EXIT_OBSTRUCTED
        assert "O1_alexander" in out
        assert "1 - t + t^2" in out  # compared values rendered

    def test_unknown_pair(self, capsys):
        code, out, _ = run(capsys, "check", "KT_mutant", "double_of_3_1")
        assert code == EXIT_UNKNOWN
        assert "passed:" in out

    def test_equal_pair(self, capsys):
        code, out, _ = run(capsys, "check", "5_2", "5_2")
        assert code == EXIT_OK and "equal" in out

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "check", "nosuch", "3_1")
        assert code == EXIT_USAGE
        assert "nosuch" in err

    def test_json_keys_sorted(self, capsys):
        code, out, _ = run(capsys, "--json", "check", "ks_cable23_of_4_1", "4_1")
        assert code == EXIT_OBSTRUCTED
        payload = json.loads(out)
        assert list(payload) == sorted(payload)
        assert "O1_alexander" in payload["rules"]

    def test_json_unknown_pair_lists_passed_rules(self, capsys):
        code, out, _ = run(capsys, "--json", "check", "KT_mutant", "double_of_3_1")
        assert code == EXIT_UNKNOWN
        payload = json.loads(out)
        assert payload["verdict"] == "unknown"
        _, text, _ = run(capsys, "check", "KT_mutant", "double_of_3_1")
        passed = text.splitlines()[-1].removeprefix("  passed: ").split(", ")
        assert payload["rules"] == passed and all(rule.startswith("O") for rule in passed)
        assert payload["anchors"] == [ANCHORS[rule] for rule in passed]

    def test_json_equal_pair_names_no_rule(self, capsys):
        code, out, _ = run(capsys, "--json", "check", "3_1", "3_1")
        assert code == EXIT_OK
        assert json.loads(out) == {"anchors": [], "pair": ["3_1", "3_1"], "rules": [], "verdict": "equal"}

    def test_contradiction_names_both_rules(self, capsys, tmp_path):
        # C1 certifies a#b >= a; O10_orderability obstructs it, since
        # a's double cover is left-orderable and the sum's is not
        corpus = [
            {"name": "a", "delta": "1 - t + t^2", "flags": {"lo_double_cover": True}},
            {"name": "b", "delta": "1 - 3t + t^2"},
            {"name": "a#b", "connected_sum_of": ["a", "b"], "flags": {"lo_double_cover": False}},
        ]
        path = tmp_path / "contradictory.json"
        path.write_text(json.dumps(corpus))
        code, out, err = run(capsys, "--corpus", str(path), "check", "a#b", "a")
        assert code == EXIT_USAGE
        assert out == ""
        assert "C1_connected_sum" in err and "O10_orderability" in err

    def test_sum_certified_through_a_summand_edge(self, capsys, tmp_path):
        # p dominates its pattern q, so p#k dominates q#k by pairing the
        # summands through that edge
        corpus = [
            {"name": "k", "delta": "1 - t + t^2"},
            {"name": "q", "delta": "1 - 3t + t^2"},
            {"name": "p", "satellite_of": ["q", "k", 0]},
            {"name": "s1", "connected_sum_of": ["p", "k"]},
            {"name": "s2", "connected_sum_of": ["q", "k"]},
        ]
        path = tmp_path / "sums.json"
        path.write_text(json.dumps(corpus))
        assert run(capsys, "--corpus", str(path), "check", "s1", "s2") == (
            EXIT_OK, "s1 >= s2: certified\n  C1_connected_sum [Prop. 1.2] witnesses: s1 -> s2\n", ""
        )

    def test_blocked_transitive_pair_is_a_contradiction(self, capsys, tmp_path):
        # a >= b >= c by patterns, but O10_orderability obstructs a >= c
        corpus = [
            {"name": "k", "delta": "1 - t + t^2"},
            {"name": "a", "satellite_of": ["b", "k", 0], "flags": {"lo_double_cover": False}},
            {"name": "b", "satellite_of": ["c", "k", 0]},
            {"name": "c", "delta": "1 - 3t + t^2", "flags": {"lo_double_cover": True}},
        ]
        path = tmp_path / "blocked.json"
        path.write_text(json.dumps(corpus))
        conflict = (
            "conflict: a -> c certified by C5_transitive through ['a', 'b', 'c'] "
            "but obstructed by ['O10_orderability']"
        )
        assert run(capsys, "--corpus", str(path), "check", "a", "c") == (EXIT_USAGE, "", f"error: {conflict}\n")
        # the closure out of a holds the conflict, whatever the second name
        assert run(capsys, "--corpus", str(path), "check", "a", "b") == (EXIT_USAGE, "", f"error: {conflict}\n")
        code, out, _ = run(capsys, "--corpus", str(path), "poset")
        assert code == EXIT_USAGE
        lines = out.splitlines()
        assert lines[lines.index("audit findings:") + 1:] == [f"  {conflict}"]

    @pytest.mark.parametrize("depth", [None, 30], ids=["bundled", "satellite-chain-30"])
    def test_certified_exactly_on_graph_edges(self, capsys, tmp_path, corpus_path, depth):
        path = corpus_path
        if depth is not None:
            path = tmp_path / "chain.json"
            path.write_text(json.dumps(satellite_chain(depth)))
        corpus = load_corpus(path)
        graph = build_graph(corpus)
        assert graph.audit_log == ()
        rules = Counter()
        for a in corpus.names():
            for b in corpus.names():
                code, out, _ = run(capsys, "--corpus", str(path), "check", a, b)
                edge = graph.edge(a, b)
                if edge is None:
                    assert code != EXIT_USAGE and out.split("\n")[0] != f"{a} >= {b}: certified", (a, b)
                    continue
                cert = edge.certificate
                witnesses = " -> ".join(cert.witnesses)
                assert (code, out) == (
                    EXIT_OK, f"{a} >= {b}: certified\n  {cert.rule_id} [{cert.anchor}] witnesses: {witnesses}\n"
                ), (a, b)
                rules[cert.rule_id] += 1
        assert sum(rules.values()) == len(graph.edges)
        assert rules["C5_transitive"] == (0 if depth is None else depth * (depth - 1) // 2), rules

    @pytest.mark.parametrize("n", [10**7, 10**12])
    def test_huge_alexander_degree_gap(self, capsys, tmp_path, corpus_path, n):
        # O1 reduces Delta(big) mod Delta(3_1) in F_p[t] instead of dividing
        # through a degree gap of 2n
        path = tmp_path / "corpus.json"
        records = json.loads(Path(corpus_path).read_text())
        path.write_text(json.dumps(records + [{"name": "big", "delta": f"1 - t^{n} + t^{2 * n}"}]))
        start = time.perf_counter()
        code, out, _ = run(capsys, "--corpus", str(path), "check", "big", "3_1")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OBSTRUCTED
        assert out.startswith("big >= 3_1: obstructed\n")
        assert f"O1_alexander [Prop. 6.1]: 1 - t + t^2 does not divide 1 - t^{n} + t^{2 * n}\n" in out


class TestInvariants:
    def test_by_name(self, capsys):
        code, out, _ = run(capsys, "invariants", "5_2")
        assert code == EXIT_OK
        assert "2 - 3t + 2t^2" in out and "determinant: 7" in out

    def test_by_pd(self, capsys):
        code, out, _ = run(capsys, "invariants", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
        assert code == EXIT_OK
        assert "1 - t + t^2" in out

    def test_by_braid(self, capsys):
        code, out, _ = run(capsys, "--json", "invariants", "B3: 1 1 1 2 2 2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["delta"] == "1 - 2t + 3t^2 - 2t^3 + t^4"
        assert payload["crossings"] == 6

    def test_four_hundred_letter_braid(self):
        """A 401-letter 4-braid through `invariants` in a fresh interpreter.
        Fox on its closure took 63-72 s; the braid kernel takes well under
        a second, and the budget leaves room for a slow host."""
        braid = random_knot_braid(random.Random(401), 4, 401)
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "knotdom.cli", "--json", "invariants", "B4: " + " ".join(map(str, braid.letters))],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=20,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        payload = json.loads(proc.stdout)
        delta = parse_poly(payload["delta"])
        coeffs = delta.coefficients()
        assert payload["crossings"] == 401 and abs(delta.eval_int(1)) == 1
        assert all(coeffs.get(delta.max_degree - e) == c for e, c in delta.terms)

    def test_braid_of_no_strands_rejected(self, capsys):
        assert run(capsys, "invariants", "B0: ") == (EXIT_USAGE, "", "error: strand count must be >= 1, got 0\n")

    @pytest.mark.parametrize(
        "source, message",
        [
            ("B2: 1 1", "braid closure has 2 components, expected a knot"),
            ("X(2,1,3,4) X(3,2,4,1)", "PD code is not planar: 2 faces, expected 4"),  # the virtual trefoil
        ],
        ids=["link-braid", "virtual-pd"],
    )
    def test_diagram_rejected_as_it_is_parsed(self, capsys, source, message):
        # no `<braid>: ` or `<pd>: ` prefix: the text fails before any record is built
        assert run(capsys, "invariants", source) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_diagram_sources_resolve_no_corpus(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("resolved the bundled corpus path")

        monkeypatch.setattr("knotdom.cli.default_corpus_path", refuse)
        for source in ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "B3: 1 1 1 2 2 2"):
            code, out, _ = run(capsys, "invariants", source)
            assert code == EXIT_OK and "delta: " in out

    @pytest.mark.parametrize("source", invariants_sources())
    def test_matches_eager_jones_oracle(self, capsys, monkeypatch, source):
        def both_forms():
            return [run(capsys, *flags, "invariants", source) for flags in ((), ("--json",))]

        deferred = both_forms()
        assert [code for code, _, _ in deferred] == [EXIT_OK, EXIT_OK]
        monkeypatch.setattr("knotdom.knotbase.enrich_record", eager_enrich_record)
        monkeypatch.setattr("knotdom.cli.enrich_record", eager_enrich_record)
        assert both_forms() == deferred

    @pytest.mark.parametrize(
        "factor, message",
        [
            (LaurentPoly.const(2), r"jones\(1\) = 2, expected 1"),
            # A^-8 - A^-4 + 1 is t^2 - t + 1 in V: V(1) is kept, |V(-1)| triples
            (LaurentPoly.from_dict({-8: 1, -4: -1, 0: 1}), r"\|jones\(-1\)\| = 9 != determinant 3"),
        ],
        ids=["at-one", "at-minus-one"],
    )
    @pytest.mark.parametrize("source", ["X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "B2: 1 1 1"], ids=["pd", "braid"])
    def test_computed_jones_checked_before_printing(self, capsys, monkeypatch, factor, message, source):
        monkeypatch.setattr("knotdom.alexander.kauffman_bracket", lambda pd: factor * kauffman_bracket(pd))
        code, out, err = run(capsys, "invariants", source)
        assert code == EXIT_USAGE and out == ""
        assert re.fullmatch(r"error: <(pd|braid)>: " + message + "\n", err)

    def test_bad_pd(self, capsys):
        code, _, err = run(capsys, "invariants", "X(1,2,3")
        assert code == EXIT_USAGE and "error" in err

    @pytest.mark.parametrize("volume", ["NaN", "sNaN", "Infinity", "1e999999"])
    def test_non_finite_volume_is_a_clean_error(self, capsys, tmp_path, volume):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{"name": "k", "delta": "1 - t + t^2", "volume": volume}]))
        code, out, err = run(capsys, "invariants", "--corpus", str(path), "k")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and repr(volume) in err


class TestPoset:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "poset")
        assert code == EXIT_OK
        assert "nodes: 12  edges: 13" in out
        assert "audit: clean" in out

    def test_audit_findings_exit_nonzero(self, capsys, monkeypatch):
        # random_corpus(0) certifies c4 -> p3, which two rules obstruct
        corpus = random_corpus(0)
        monkeypatch.setattr(cli, "load_corpus", lambda path: corpus)
        code, out, _ = run(capsys, "poset")
        assert code == EXIT_USAGE
        lines = out.splitlines()
        findings = lines[lines.index("audit findings:") + 1:]
        assert (
            "  conflict: c4 -> p3 certified by C1_connected_sum "
            "but obstructed by ['O10_orderability', 'O9_ghat']"
        ) in findings
        assert "audit: clean" not in lines

    def test_json_deterministic_and_parallel(self, capsys):
        _, first, _ = run(capsys, "--json", "poset")
        _, second, _ = run(capsys, "--json", "poset")
        assert first == second

    def test_json_streams_the_bytes_of_json_dumps(self, capsys, monkeypatch, tmp_path):
        # the written graph against json.dumps of its dict form, on
        # corpora given as files and as Corpus values
        files = {
            "bundled": default_corpus_path(),
            "chain": satellite_chain(150),
            "odd names": odd_names_chain(),
            "one record": [{"name": "k", "delta": "1 - t + t^2"}],
            "empty": [],
        }
        outputs = {}
        for label, entries in files.items():
            path = entries
            if isinstance(entries, list):
                path = tmp_path / "corpus.json"
                path.write_text(json.dumps(entries), encoding="utf-8")
            code, out, _ = run(capsys, "poset", "--json", str(path))
            assert out == serialized(build_graph(load_corpus(path))), label
            outputs[label] = code, out
        for label, corpus in [("siblings", sibling_sums_corpus())] + [(seed, random_corpus(seed)) for seed in range(20)]:
            monkeypatch.setattr(cli, "load_corpus", lambda path: corpus)
            code, out, _ = run(capsys, "--json", "poset")
            assert out == serialized(build_graph(corpus)), label
            outputs[label] = code, out
        payloads = {label: json.loads(out) for label, (_, out) in outputs.items()}
        assert payloads["empty"] == {"audit_log": [], "edges": [], "nodes": []}
        assert payloads["one record"]["edges"] == [] and payloads["one record"]["nodes"] == ["k"]
        assert max(len(e["witnesses"]) for p in payloads.values() for e in p["edges"]) == 151
        odd_code, odd = outputs["odd names"]
        assert odd_code == EXIT_USAGE and len(payloads["odd names"]["audit_log"]) == 1
        assert all(escape in odd for escape in ('\\"', "\\\\", "\\u00e9", "\\ud835\\udd42")) and odd.isascii()
        assert sum(code == EXIT_USAGE for code, _ in outputs.values()) > 3  # audits in random corpora too

    # tracemalloc peaks of `poset` on satellite_chain(150), its output
    # discarded (Python 3.11): 1.9 MiB with --json and 1.8 MiB as text,
    # against 78 MiB and 8.3 MiB when the closure held every witness chain
    # and --json built the whole dict before printing it.  The bound is
    # about twice the measurement.
    @pytest.mark.parametrize("form", [["--json"], []], ids=["json", "text"])
    def test_deep_chain_peak_memory(self, tmp_path, form):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(satellite_chain(150)))
        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["poset", *form, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and sink.size > (10**7 if form else 3 * 10**5)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("form", [["--json"], []], ids=["json", "text"])
    def test_closed_reader_ends_quietly(self, tmp_path, form):
        # `poset ... | head -c 100`: the output (4.6 MB and 0.17 MB) is far
        # larger than a pipe holds, so writing it meets the closed pipe.
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(satellite_chain(100)))
        src = str(Path(cli.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "knotdom.cli", "poset", *form, str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        stderr = child.stderr.read()
        assert (child.wait(timeout=60), stderr) == (EXIT_USAGE, b"")

    def test_closed_pipe_in_process(self, capsys):
        # the same branch in this process: stdout is a line-buffered pipe
        # whose read end is already closed, so the first line meets it
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", buffering=1) as stdout, contextlib.redirect_stdout(stdout):
            code = main(["--json", "poset"])
        assert (code, *capsys.readouterr()) == (EXIT_USAGE, "", "")


class TestChainBound:
    def test_five2(self, capsys):
        code, out, _ = run(capsys, "chain-bound", "5_2")
        assert code == EXIT_OK
        assert "free_ghat: 1" in out
        assert "alternating_degree: 2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "chain-bound", "3_1")
        payload = json.loads(out)
        assert payload["strict_length"] == 1
        assert payload["longest_chain"] == ["3_1", "unknot"]

    def test_every_record_renders_the_closed_graph_chain(self, capsys, corpus, graph):
        # chain-bound certifies only what the record reaches; its output
        # is that of the longest chain in the whole closed graph
        for name in corpus.names():
            chain = longest_chain(graph, name)
            bounds = chain_length_bound(corpus.get(name))
            payload = {
                "name": name,
                "bounds": [b._asdict() for b in bounds],
                "longest_chain": chain,
                "strict_length": len(chain) - 1,
            }
            code, out, _ = run(capsys, "--json", "chain-bound", name)
            assert code == EXIT_OK and out == json.dumps(payload, sort_keys=True, indent=2) + "\n", name
            lines = [f"longest certified chain from {name}: {' > '.join(chain)} (strict length {len(chain) - 1})"]
            lines += [f"  {b.rule}: {b.value} ({b.scope})" for b in bounds] or ["no chain bounds apply"]
            code, out, _ = run(capsys, "chain-bound", name)
            assert code == EXIT_OK and out == "\n".join(lines) + "\n", name

    def test_unknown_name(self, capsys):
        code, out, err = run(capsys, "chain-bound", "nosuch")
        assert code == EXIT_USAGE and out == ""
        assert "unknown knot name 'nosuch'" in err

    @pytest.mark.parametrize("transitive", [False, True], ids=["direct", "transitive"])
    def test_contradiction_fails_the_queries_out_of_it(self, capsys, tmp_path, transitive):
        # O10_orderability blocks a >= c, which the chain a > b > c claims
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps(contradiction_corpus(transitive)))
        code, out, _ = run(capsys, "--corpus", str(path), "poset")
        lines = out.splitlines()
        audit = [line.strip() for line in lines[lines.index("audit findings:") + 1:]]
        assert code == EXIT_USAGE and len(audit) == 1 and audit[0].startswith("conflict: a -> c certified by ")
        error = f"error: {'; '.join(audit)}\n"
        for argv in (["chain-bound", "a"], ["--json", "chain-bound", "a"], ["check", "a", "a"], ["check", "a", "unknot"]):
            assert run(capsys, "--corpus", str(path), *argv) == (EXIT_USAGE, "", error), argv
        for chain in (["c", "unknot"], ["b", "c", "unknot"])[: 1 + transitive]:
            code, out, _ = run(capsys, "--corpus", str(path), "chain-bound", chain[0])
            assert code == EXIT_OK, chain
            assert out.startswith(f"longest certified chain from {chain[0]}: {' > '.join(chain)} "), chain

    def test_deep_satellite_chain(self, capsys, tmp_path):
        # the whole closure of this chain would hold about 600,000 edges
        # and 2.2e8 witness names; chain-bound closes it out of a0000 only
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(satellite_chain(1100)))
        code, out, _ = run(capsys, "--corpus", str(path), "--json", "chain-bound", "a0000")
        assert code == EXIT_OK
        chain = json.loads(out)["longest_chain"]
        assert len(chain) == 1101
        assert chain == [f"a{i:04d}" for i in range(1101)]

    def test_huge_prime_leading_coefficient(self, capsys, tmp_path):
        # a 19-digit prime: trial division up to its square root would
        # run for minutes
        p = 1000000000000000003
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([
            {"name": "unknot", "delta": "1", "flags": {"unknot": True}},
            {"name": "k", "delta": f"{p} - {2 * p - 1}t + {p}t^2", "flags": {"alternating": True}},
        ]))
        start = time.perf_counter()
        code, out, _ = run(capsys, "--corpus", str(path), "--json", "chain-bound", "k")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["bounds"] == [{"value": 2, "rule": "alternating_degree", "scope": "alternating_count"}]
        assert payload["longest_chain"] == ["k", "unknot"]


class TestVerifyPaper:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == EXIT_OK
        assert "8/8 checks passed" in out

    def test_every_check_cites_an_anchor(self, capsys):
        _, out, _ = run(capsys, "verify-paper")
        for line in out.splitlines():
            if line.startswith("PASS"):
                assert "[" in line and "]" in line

    def test_json_deterministic(self, capsys):
        code1, first, _ = run(capsys, "--json", "verify-paper")
        code2, second, _ = run(capsys, "--json", "verify-paper")
        assert code1 == code2 == EXIT_OK
        assert first == second
        payload = json.loads(first)
        assert payload["exit_code"] == 0
        assert len(payload["checks"]) == 8

    def test_missing_fixture(self, capsys, tmp_path):
        gone = tmp_path / "gone.json"
        code, _, err = run(capsys, "verify-paper", "--corpus", str(gone))
        assert code == EXIT_USAGE
        assert err == f"error: missing or invalid fixture: corpus file not found: {gone}\n"

    def test_corrupt_fixture_named_in_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[{\"name\": \"3_1\"}]")
        code, _, err = run(capsys, "verify-paper", "--corpus", str(bad))
        assert code == EXIT_USAGE
        assert "3_1" in err

    def test_trefoil_jones_computed_when_not_declared(self, capsys, tmp_path, corpus_path):
        entries = json.loads(corpus_path.read_text())
        for entry in entries:
            if entry["name"] == "3_1":
                del entry["jones"]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        code, out, _ = run(capsys, "verify-paper", "--corpus", str(path))
        assert code == EXIT_OK
        assert out == run(capsys, "verify-paper")[1]

    @pytest.mark.parametrize("name, field", [("ks_cable23_of_4_1", "jones"), ("5_2", "diagram")])
    def test_fixture_missing_a_field_is_a_clean_error(self, capsys, tmp_path, corpus_path, name, field):
        entries = json.loads(corpus_path.read_text())
        for entry in entries:
            if entry["name"] == name:
                del entry[field]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        assert run(capsys, "verify-paper", "--corpus", str(path)) == (
            EXIT_USAGE, "", f"error: missing or invalid fixture: {name}: missing field {field!r}\n"
        )

    def test_run_verification_report_shape(self, corpus_path):
        report = run_verification(corpus_path)
        ids = [c.check_id for c in report.checks]
        assert ids == [
            "alexander_examples",
            "band_sum_divisibility",
            "murasugi_sum_divisibility",
            "cable_alexander",
            "jones_non_divisibility",
            "winding_zero_pattern",
            "pair_verdicts",
            "chain_bounds",
        ]
        assert report.exit_code == 0


class TestCorpusFileErrors:
    @pytest.mark.parametrize("argv", [
        ["poset", "{path}"],
        ["check", "--corpus", "{path}", "3_1", "unknot"],
        ["verify-paper", "--corpus", "{path}"],
    ], ids=["poset", "check", "verify-paper"])
    @pytest.mark.parametrize("kind", list(UNREADABLE_FILES))
    def test_one_error_line_names_the_file(self, capsys, tmp_path, argv, kind):
        path = unreadable_file(tmp_path, kind)
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"corpus file {path} " in err


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE


class TestSharedParser:
    def test_repeated_calls_match_fresh_parsers(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(satellite_chain(3)))
        calls = [
            ["--json", "invariants", "3_1"],
            ["invariants", "--json", "3_1"],
            ["--corpus", str(path), "invariants", "a0000"],
            ["invariants", "3_1"],
            ["check", "--corpus", str(path), "a0000", "k"],
            ["check", "granny", "3_1"],
            ["poset", str(path)],
            ["frobnicate"],
            ["--json", "poset"],
            ["chain-bound", "--json", "a0000", "--corpus", str(path)],
            ["chain-bound", "5_2"],
            ["invariants", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"],
            ["verify-paper"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        _build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [EXIT_OK] * 4 + [EXIT_OBSTRUCTED] + [EXIT_OK] * 2 + [EXIT_USAGE] + [EXIT_OK] * 5
        # the corpus given to one call is not read by the next
        assert "name: a0000" in shared[2][1] and "name: 3_1" in shared[3][1]
        assert shared[6][1].startswith("nodes: 5 ")
        assert len(json.loads(shared[8][1])["nodes"]) == 12
