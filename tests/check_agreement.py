"""Do `check` and `chain-bound` agree with `poset`?

Inputs: the poset-scan corpora of `bench/corpus_gen.py` for the given
seeds (0-31 by default), `test_poset.satellite_chain` at depths 150 and
300, and the two corpora of `test_poset.contradiction_corpus`.  For each
input the corpus is loaded once, `build_graph` gives the graph that
`poset` prints, and `evaluate`, the function behind `check`, answers
every ordered pair.  The script asserts that a pair is
certified exactly when the graph holds its edge, with the same
certificate, and that an error comes only from a corpus whose audit is
not empty.  For every name, the chain that `chain-bound` reads,
`longest_chain(build_graph(corpus, [name]), name)`, must fail with the
error of `evaluate` out of that name, when it has one, and otherwise
equal the longest chain of the whole graph (read by the test oracle when
that graph's audit is not empty).

It also counts the verdicts that differ from the pair-only verdict that
`check` gave before it read the certified graph: the rule scan and one
certificate search with no earlier edges, where a certificate that a rule
contradicts was an error.  pytest does not collect this file.  From the
repository root:

    python tests/check_agreement.py            # seeds 0-31, depths 150 and 300
    python tests/check_agreement.py 0-3 150    # chosen seeds and depths
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SEEDS = range(32)
DEPTHS = (150, 300)


def pair_only(k1, k2):
    """The verdict of the scan and a certificate search without earlier
    edges, as (kind, certificate or rule ids); kind "error" for a
    certificate that a rule contradicts."""
    from knotdom.domination import scan
    from poset_oracle import certificate_search

    if k1.name == k2.name:
        return "equal", ()
    fired, passed = scan(k1, k2)
    certificate = certificate_search(k1, k2)
    if certificate is not None and fired:
        return "error", None
    if fired:
        return "obstructed", tuple(r.rule_id for r in fired)
    if certificate is not None:
        return "certified", certificate
    return "unknown", tuple(passed)


def agreement(path: Path) -> tuple[int, int, Counter, float, int, float]:
    """Check every ordered pair and every chain query of the corpus at
    `path`; return the pair count, the edge count, the changed verdicts by
    (before, after) kind, the mean time of `evaluate` in ms, the number
    of chain queries that fail, and their mean time in ms."""
    from knotdom.knotbase import CorpusError, load_corpus
    from knotdom.poset import build_graph, evaluate, longest_chain
    from poset_oracle import longest_chain as oracle_longest_chain

    corpus = load_corpus(path)
    graph = build_graph(corpus)
    names = corpus.names()
    changed: Counter = Counter()
    errors: dict[str, set] = {a: set() for a in names}  # name -> error texts of `evaluate` out of it
    seconds = 0.0
    for a in names:
        for b in names:
            start = time.perf_counter()
            try:
                verdict = evaluate(corpus, a, b)
                now = verdict.kind, verdict.certificate or verdict.rule_ids()
            except CorpusError as exc:
                now = "error", None
                errors[a].add(str(exc))
            else:
                errors[a].add(None)
            seconds += time.perf_counter() - start
            edge = graph.edge(a, b)
            if now[0] == "error":
                assert graph.audit_log, (path.name, a, b)
            elif edge is not None:
                assert now == ("certified", edge.certificate), (path.name, a, b, now, edge)
            else:
                assert now[0] != "certified", (path.name, a, b, now)
            before = pair_only(corpus.get(a), corpus.get(b))
            if before != now:
                changed[before[0], now[0]] += 1
    pairs = len(names) ** 2
    failed, chain_seconds = 0, 0.0
    for a in names:
        (error,) = errors[a]  # the same for every second name
        start = time.perf_counter()
        try:
            chain = longest_chain(build_graph(corpus, [a]), a)
        except CorpusError as exc:
            chain = str(exc)
        chain_seconds += time.perf_counter() - start
        if error is not None:
            assert chain == error, (path.name, a, chain, error)
            failed += 1
        else:
            # the oracle reads the whole graph's edges past an audit finding that `a` does not reach
            assert chain == (oracle_longest_chain if graph.audit_log else longest_chain)(graph, a), (path.name, a)
    return pairs, len(graph.edges), changed, seconds / pairs * 1e3, failed, chain_seconds / len(names) * 1e3


def describe(changed: Counter) -> str:
    kinds = ", ".join(f"{n} {before} -> {after}" for (before, after), n in sorted(changed.items()))
    return f"{sum(changed.values())} ({kinds or 'none'})"


def numbers(arg: str) -> list[int]:
    low, _, high = arg.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(TESTS), str(ROOT / "bench")]
    import corpus_gen
    from test_poset import contradiction_corpus, satellite_chain

    seeds = numbers(argv[0]) if argv else SEEDS
    depths = [int(arg) for arg in argv[1:]] if argv else DEPTHS
    inputs = [(f"poset-scan seed {seed}", corpus_gen.build("poset-scan", seed).corpus) for seed in seeds]
    inputs += [(f"satellite chain {depth}", satellite_chain(depth)) for depth in depths]
    inputs += [(f"{kind} contradiction", contradiction_corpus(kind == "transitive")) for kind in ("direct", "transitive")]
    print("| input | pairs | poset edges | changed verdicts | evaluate per pair | failed chain queries | chain query per name |")
    print("|---|---|---|---|---|---|---|")
    total = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for label, entries in inputs:
            path = Path(tmp) / "corpus.json"
            path.write_text(json.dumps(entries), encoding="utf-8")
            pairs, edges, changed, ms, failed, chain_ms = agreement(path)
            total.update(changed)
            print(f"| {label} | {pairs} | {edges} | {describe(changed)} | {ms:.2f} ms | {failed} | {chain_ms:.2f} ms |",
                  flush=True)
    print(f"all pairs and chain queries agree; changed in total: {describe(total)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
