"""The all-pairs domination graph builder, kept as the test oracle for
`knotdom.poset.build_graph`; the dict form of a graph, kept as the
oracle for `DominationGraph.write_json`; the recursive graph walks kept
as oracles for the explicit-stack walk `knotdom.knotbase._walk` (its
first cycle) and for `knotdom.poset.longest_chain`; the witness-chain
closures kept as oracles for the predecessor trees of
`knotdom.poset.build_graph`; and `iter_chains`, which lists every chain
(exponentially many in chain length) for checks on small graphs.

The all-pairs `build_graph` evaluates every obstruction, rigidity and
certificate rule on all N(N-1) ordered pairs, then re-scans for
connected-sum certificates until nothing changes.  `knotdom.poset`'s
`build_graph` must serialize to the same bytes.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

from knotdom.domination import Certificate, _scan_obstructions, certificate_search, rigidity_scan
from knotdom.knotbase import Corpus, CorpusError
from knotdom.poset import DominationGraph, Edge


def evaluate_full(k1, k2, certified=None):
    """All three scans, unconditionally: (obstructions, rigidity reports,
    passed obstruction rules, certificate), the raw material of
    `knotdom.domination.evaluate_pair`'s verdict."""
    certificate = certificate_search(k1, k2, certified)
    fired, passed = _scan_obstructions(k1, k2)
    rigidity = rigidity_scan(k1, k2) if k1.name != k2.name else []
    return fired, rigidity, passed, certificate


def build_graph(corpus: Corpus, workers: int = 1) -> DominationGraph:
    """Evaluate all ordered pairs, keep certified edges, close under
    transitivity, and audit certificates against obstructions."""
    names = corpus.names()
    records = {name: corpus.get(name) for name in names}
    pairs = [(a, b) for a in names for b in names if a != b]

    def scan(pair: tuple[str, str]):
        return evaluate_full(records[pair[0]], records[pair[1]])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = dict(zip(pairs, pool.map(scan, pairs)))
    else:
        results = {pair: scan(pair) for pair in pairs}

    conflicts: dict[tuple[str, str], str] = {}
    direct: dict[tuple[str, str], Certificate] = {}
    blocked: dict[tuple[str, str], list[str]] = {}
    for pair in pairs:
        fired, rigidity, _, certificate = results[pair]
        negative = [r.rule_id for r in fired] + [r.rule_id for r in rigidity]
        if negative:
            blocked[pair] = negative
        if certificate is not None and negative:
            conflicts[pair] = certificate.rule_id
            continue
        if certificate is not None:
            direct[pair] = certificate

    # Second pass: connected-sum certificates may pair summands through
    # edges certified in the first pass (k1#k2 >= k1'#k2').  A blocked
    # pair certified this way is a conflict too.
    changed = True
    while changed:
        changed = False
        known = frozenset(direct)
        for pair in pairs:
            if pair in direct or pair in conflicts:
                continue
            certificate = certificate_search(records[pair[0]], records[pair[1]], known)
            if certificate is not None and pair in blocked:
                conflicts[pair] = certificate.rule_id
            elif certificate is not None:
                direct[pair] = certificate
                changed = True

    audit = [
        f"conflict: {src} -> {dst} certified by {rule_id} "
        f"but obstructed by {sorted(blocked[(src, dst)])}"
        for (src, dst), rule_id in sorted(conflicts.items())
    ]

    # Transitive closure with canonical witness chains: shortest, then
    # lexicographically least, over the direct edges.
    succ: dict[str, list[str]] = {name: [] for name in names}
    for src, dst in direct:
        succ[src].append(dst)
    for name in names:
        succ[name].sort()

    closure: dict[tuple[str, str], Certificate] = dict(direct)
    for src in names:
        chains = _canonical_chains(src, succ)
        for dst, chain in chains.items():
            pair = (src, dst)
            if pair in closure:
                continue
            if pair in blocked:
                audit.append(
                    f"conflict: {src} -> {dst} reachable through {list(chain)} but obstructed"
                )
                continue
            closure[pair] = Certificate("C5_transitive", chain)

    cycle = _find_cycle(names, succ)
    if cycle is not None:
        audit.append(f"cycle among certified edges: {cycle}")

    edges = tuple(
        Edge(src, dst, closure[(src, dst)]) for src, dst in sorted(closure)
    )
    return DominationGraph(tuple(names), edges, tuple(audit))


def to_json_dict(graph: DominationGraph) -> dict:
    """The graph as the dict that `json.dumps` serializes."""
    return {
        "nodes": list(graph.nodes),
        "edges": [
            {
                "from": e.src,
                "to": e.dst,
                "certificate": e.certificate.rule_id,
                "anchor": e.certificate.anchor,
                "witnesses": list(e.certificate.witnesses),
            }
            for e in graph.edges
        ],
        "audit_log": list(graph.audit_log),
    }


def serialized(graph: DominationGraph) -> str:
    """What `poset --json` prints for the graph."""
    return json.dumps(to_json_dict(graph), sort_keys=True, indent=2) + "\n"


def level_chains(src: str, succ: dict[str, list[str]]) -> dict[str, tuple[str, ...]]:
    """For every node reachable from src in two or more direct steps, the
    canonical witness chain: shortest, ties broken lexicographically.
    Breadth first, one level at a time, taking each level's nodes by name:
    a node keeps the place of its first reach and the least chain of its
    level, built as a tuple."""
    chains: dict[str, tuple[str, ...]] = {src: (src,)}
    level = [src]
    while level:
        reached: dict[str, tuple[str, ...]] = {}
        for node in sorted(level):
            for nxt in succ[node]:
                if nxt not in chains:
                    candidate = chains[node] + (nxt,)
                    if nxt not in reached or candidate < reached[nxt]:
                        reached[nxt] = candidate
        chains.update(reached)
        level = list(reached)
    return {dst: chain for dst, chain in chains.items() if len(chain) >= 3}


def _canonical_chains(src: str, succ: dict[str, list[str]]) -> dict[str, tuple[str, ...]]:
    """For every node reachable from src in two or more direct steps, the
    canonical witness chain: shortest, ties broken lexicographically.
    Relaxation to a fixed point; a strictly better (length, chain) pair is
    accepted, so cycles cannot loop."""
    best: dict[str, tuple[int, tuple[str, ...]]] = {src: (0, (src,))}
    changed = True
    while changed:
        changed = False
        for node in sorted(best):
            length, chain = best[node]
            for nxt in succ[node]:
                candidate = (length + 1, chain + (nxt,))
                if nxt not in best or candidate < best[nxt]:
                    best[nxt] = candidate
                    changed = True
    return {
        dst: chain for dst, (length, chain) in best.items() if length >= 2
    }


def _find_cycle(names: tuple[str, ...] | list[str], succ: dict[str, list[str]]) -> list[str] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in names}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for nxt in succ[node]:
            if color[nxt] == GRAY:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for name in names:
        if color[name] == WHITE:
            found = visit(name)
            if found:
                return found
    return None


def longest_chain(graph: DominationGraph, start: str) -> list[str]:
    """A maximum-length strict chain of certified edges from start; ties
    broken by lexicographic order of the name sequence."""
    if start not in graph.nodes:
        raise CorpusError(f"unknown knot name {start!r}")
    visiting: set[str] = set()

    @lru_cache(maxsize=None)
    def best_from(node: str) -> tuple[int, tuple[str, ...]]:
        if node in visiting:
            raise CorpusError("certified edges contain a cycle; no longest chain")
        visiting.add(node)
        best = (0, (node,))
        for nxt in graph.successors(node):
            length, tail = best_from(nxt)
            candidate = (length + 1, (node,) + tail)
            if candidate[0] > best[0] or (
                candidate[0] == best[0] and candidate[1] < best[1]
            ):
                best = candidate
        visiting.discard(node)
        return best

    return list(best_from(start)[1])


def iter_chains(graph: DominationGraph, start: str):
    """All strict certified chains out of start (including the trivial
    one-node chain), in DFS order."""

    def walk(path: list[str]):
        yield tuple(path)
        for nxt in graph.successors(path[-1]):
            if nxt not in path:
                yield from walk(path + [nxt])

    yield from walk([start])
