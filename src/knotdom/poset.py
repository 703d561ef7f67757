"""Certified domination graph over a corpus: certification, transitive
closure, audit, longest chains, and chain-length bounds.

Edges use certificates only; Unknown pairs never contribute, so every
reported chain is a lower bound on the true partial order.  `certify`
checks the candidate edges that record structure allows in one ordered
pass, and `build_graph` closes them under transitivity, so output is
byte-identical across runs.  Chain queries need only `certify`, and
only from their start.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .domination import Certificate, certificate_search, obstruction_scan, rigidity_scan
from .knotbase import Corpus, CorpusError, KnotRecord, _walk
from .laurent import _Frozen, is_prime_power


class Edge(NamedTuple):
    src: str
    dst: str
    certificate: Certificate


class DominationGraph(_Frozen):
    """Directed acyclic graph of certified dominations (dominator ->
    dominated) with provenance per edge and an audit log of consistency
    findings (expected empty)."""

    __slots__ = ("nodes", "edges", "audit_log", "_out")

    def __init__(self, nodes: tuple[str, ...], edges: tuple[Edge, ...], audit_log: tuple[str, ...]) -> None:
        out: dict[str, dict[str, Edge]] = {name: {} for name in nodes}
        for e in sorted(edges, key=lambda e: (e.src, e.dst)):
            out.setdefault(e.src, {})[e.dst] = e
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "audit_log", audit_log)
        object.__setattr__(self, "_out", out)

    def _key(self) -> tuple:
        return self.nodes, self.edges, self.audit_log

    def successors(self, name: str) -> list[str]:
        return list(self._out.get(name, ()))

    def edge(self, src: str, dst: str) -> Edge | None:
        return self._out.get(src, {}).get(dst)

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [
                {
                    "from": e.src,
                    "to": e.dst,
                    "certificate": e.certificate.rule_id,
                    "anchor": e.certificate.anchor,
                    "witnesses": list(e.certificate.witnesses),
                }
                for e in self.edges
            ],
            "audit_log": list(self.audit_log),
        }


class ChainBound(NamedTuple):
    """An upper bound on certified chains out of a knot.  free_ghat bounds
    the total strict length; alternating_degree bounds only how many
    alternating knots a chain can contain."""

    value: int
    rule: str  # "free_ghat" | "alternating_degree"
    scope: str  # "total_length" | "alternating_count"


def certify(corpus: Corpus, roots: Iterable[str] | None = None) -> DominationGraph:
    """The certified direct edges out of every record that `roots` reach
    (all records when roots is None), without the transitive closure; the
    audit lists the certified pairs out of those records that an
    obstruction or rigidity rule blocks.  Longest chains need no more than
    this graph.

    Every certificate but reflexivity and transitivity comes from
    structure: `flags.unknot`, `satellite_of`, or `connected_sum_of`, whose
    summands may pair through earlier edges.  So the candidates out of a
    knot are the unknots, its pattern and companion, and, for a composite,
    the records whose summands all lie among its own summands and their
    direct successors.  A record's edges therefore depend only on it and
    on its summands' edges: the walk certifies each summand before its
    sums, and each certified target in turn, so the edges out of a record
    are the same whichever roots reach it.

    >>> from knotdom.cli import default_corpus_path, load_corpus
    >>> graph = certify(load_corpus(default_corpus_path()), ["granny"])
    >>> graph.nodes
    ('3_1', 'granny', 'unknot')
    >>> [(e.src, e.dst, e.certificate.rule_id) for e in graph.edges]
    [('3_1', 'unknot', 'C0_unknot'), ('granny', '3_1', 'C1_connected_sum'), ('granny', 'unknot', 'C0_unknot')]
    """
    # Structure is read as declared, so only the records certified and
    # the candidates tested are enriched: enrichment keeps the references
    # and only ever sets `unknot` to False.
    names = corpus.names()
    declared = {name: corpus.declared(name) for name in names}
    unknots = [name for name in names if declared[name].flags.unknot is True]
    holders: dict[str, list[str]] = {}  # summand -> records having it
    for name in names:
        for summand in set(declared[name].summands()):
            holders.setdefault(summand, []).append(name)

    edges: list[Edge] = []
    succ: dict[str, list[str]] = {}  # certified record -> its direct successors
    conflicts: list[tuple[str, str, str, list[str]]] = []
    # an unknown root raises CorpusError; the first root is certified first
    stack = (names if roots is None else [corpus.declared(name).name for name in roots])[::-1]
    while stack:
        root = stack.pop()
        if root in succ:
            continue
        order, cycle = _walk(
            [root], lambda name: [s for s in declared[name].connected_sum_of or () if s not in succ]
        )
        if cycle is not None:
            raise CorpusError(f"circular composite references among {sorted(cycle[1:])}")
        for src in order:
            record = corpus.get(src)
            candidates = set(unknots)
            if record.satellite_of is not None:
                candidates.update(record.satellite_of[:2])
            known: frozenset[tuple[str, str]] = frozenset()
            if record.connected_sum_of is not None:
                reach = set(record.connected_sum_of)
                known = frozenset((s, t) for s in reach for t in succ[s])
                reach.update(t for _, t in known)
                for summand in reach:
                    candidates.update(
                        name for name in holders.get(summand, ())
                        if reach.issuperset(declared[name].summands())
                    )
            candidates.discard(src)
            succ[src] = []
            for dst in sorted(candidates):
                target = corpus.get(dst)
                certificate = certificate_search(record, target, known)
                if certificate is None:
                    continue
                if negatives := _negatives(record, target):
                    conflicts.append((src, dst, certificate.rule_id, sorted(negatives)))
                else:
                    edges.append(Edge(src, dst, certificate))
                    succ[src].append(dst)
                    if dst not in succ:
                        stack.append(dst)

    audit = tuple(
        f"conflict: {src} -> {dst} certified by {rule_id} but obstructed by {negatives}"
        for src, dst, rule_id, negatives in sorted(conflicts)
    )
    return DominationGraph(tuple(sorted(succ)), tuple(sorted(edges, key=lambda e: (e.src, e.dst))), audit)


def build_graph(corpus: Corpus) -> DominationGraph:
    """The edges of `certify` closed under transitivity: a pair reached in
    two or more steps gets a `C5_transitive` certificate with its canonical
    witness chain unless a rule blocks it.  The audit of `certify` gains
    the blocked pairs and a cycle among the direct edges, if any.  It
    reads every record first, so an invalid one fails in input order."""
    records = {r.name: r for r in corpus.records}
    graph = certify(corpus)
    succ = {name: graph.successors(name) for name in graph.nodes}
    closure = {(e.src, e.dst): e.certificate for e in graph.edges}
    audit = list(graph.audit_log)
    for src in graph.nodes:
        for dst, chain in _canonical_chains(src, succ).items():
            if _negatives(records[src], records[dst]):
                audit.append(f"conflict: {src} -> {dst} reachable through {list(chain)} but obstructed")
            else:
                closure[(src, dst)] = Certificate("C5_transitive", chain)

    cycle = _walk(graph.nodes, succ.__getitem__)[1]
    if cycle is not None:
        audit.append(f"cycle among certified edges: {cycle}")
    edges = tuple(Edge(src, dst, closure[(src, dst)]) for src, dst in sorted(closure))
    return DominationGraph(graph.nodes, edges, tuple(audit))


def _negatives(k1: KnotRecord, k2: KnotRecord) -> list[str]:
    """Rule ids of the obstruction and rigidity rules that fire on the pair."""
    return [r.rule_id for r in obstruction_scan(k1, k2) + rigidity_scan(k1, k2)]


def _canonical_chains(src: str, succ: dict[str, list[str]]) -> dict[str, tuple[str, ...]]:
    """For every node reachable from src in two or more direct steps, the
    canonical witness chain: shortest, ties broken lexicographically.
    Breadth first, one level at a time, taking each level's nodes by name:
    a node keeps the place of its first reach and the least chain of its
    level.  The audit lists closure conflicts in this order."""
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


def longest_chain(graph: DominationGraph, start: str) -> list[str]:
    """A maximum-length strict chain of certified edges from start; ties
    broken by lexicographic order of the name sequence."""
    if start not in graph.nodes:
        raise CorpusError(f"unknown knot name {start!r}")
    nodes, cycle = _walk([start], graph.successors)  # successors first
    if cycle is not None:
        raise CorpusError("certified edges contain a cycle; no longest chain")
    # Equal-length chains out of a node differ first at its successor, so
    # the least chain goes through the least successor among the longest.
    best: dict[str, tuple[int, str | None]] = {}  # node -> (-length, next node)
    for node in nodes:
        best[node] = min(
            ((best[nxt][0] - 1, nxt) for nxt in graph.successors(node)), default=(0, None)
        )
    chain = [start]
    while best[chain[-1]][1] is not None:
        chain.append(best[chain[-1]][1])
    return chain


def chain_length_bound(record: KnotRecord) -> list[ChainBound]:
    """Upper bounds on certified chains out of a record: the maximal
    incompressible genus bounds total length for free knots, and the
    Alexander degree bounds the alternating-knot count when the leading
    coefficient is a prime power."""
    if not record.enriched:
        raise CorpusError(f"{record.name}: record is not enriched")
    bounds: list[ChainBound] = []
    if record.flags.free is True and record.ghat is not None:
        bounds.append(ChainBound(record.ghat, "free_ghat", "total_length"))
    if (
        record.flags.alternating is True
        and record.delta is not None
        and not record.delta.is_zero()
        and is_prime_power(abs(record.delta.leading_coefficient))
    ):
        bounds.append(
            ChainBound(record.delta.max_degree, "alternating_degree", "alternating_count")
        )
    return bounds
