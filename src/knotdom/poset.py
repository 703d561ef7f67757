"""Certified domination graph over a corpus: certification, transitive
closure, audit, pair verdicts, longest chains, and chain-length bounds.

Edges use certificates only; Unknown pairs never contribute, so every
reported chain is a lower bound on the true partial order.
`build_graph` checks the candidate edges that record structure allows
in one ordered pass and closes them under transitivity, so output is
byte-identical across runs.  Pair and chain queries read the closure
out of their first name only, and fail on its audit as `poset` fails on
the whole graph's.
"""
from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, NamedTuple, TextIO

from .domination import Certificate, Verdict, _alternating_prime_power, scan
from .knotbase import Corpus, CorpusError, KnotRecord, _require_enriched, _walk
from .laurent import _Frozen


class Edge(NamedTuple):
    src: str
    dst: str
    certificate: Certificate


class DominationGraph(_Frozen):
    """Directed acyclic graph of certified dominations (dominator ->
    dominated) with provenance per edge and an audit log of consistency
    findings (expected empty).

    `edges` come with their certificates.  The closure passes its
    `C5_transitive` edges apart, as the pairs `transitive`, with `trees`:
    for each source it closes (every node, or the roots given to
    `build_graph`), every node it reaches mapped to its predecessor on the
    canonical witness chain.  A witness chain is built from its tree only
    when its edge is read, and iteration builds one source's chains at a
    time, so they are never all held at once.  Edges iterate and
    serialize in (src, dst) order."""

    __slots__ = ("nodes", "audit_log", "_out", "_trees", "_size")

    def __init__(
        self,
        nodes: tuple[str, ...],
        edges: Iterable[Edge],
        audit_log: tuple[str, ...],
        trees: dict[str, dict[str, str]] | None = None,
        transitive: Iterable[tuple[str, str]] = (),
    ) -> None:
        out: dict[str, dict[str, Certificate | None]] = {}  # None: a chain in trees
        for e in edges:
            out.setdefault(e.src, {})[e.dst] = e.certificate
        for src, dst in transitive:
            out.setdefault(src, {})[dst] = None
        out = {src: dict(sorted(out[src].items())) for src in sorted(out)}
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "audit_log", audit_log)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_trees", trees or {})
        object.__setattr__(self, "_size", sum(map(len, out.values())))

    def _key(self) -> tuple:
        return self.nodes, tuple(self.edges), self.audit_log

    @property
    def edges(self) -> _Edges:
        return _Edges(self)

    def successors(self, name: str) -> list[str]:
        return list(self._out.get(name, ()))

    def edge(self, src: str, dst: str) -> Edge | None:
        out = self._out.get(src, {})
        if dst not in out:
            return None
        return Edge(src, dst, out[dst] or Certificate("C5_transitive", _chains(src, self._trees[src])[dst]))

    def write_json(self, out: TextIO) -> None:
        """Write the graph to `out` edge by edge, as the bytes of
        `json.dumps(d, sort_keys=True, indent=2)` and a newline, where d
        maps "nodes", "edges" and "audit_log" to lists and each edge is
        {"from", "to", "certificate", "anchor", "witnesses"}."""

        def array(values: tuple[str, ...], indent: str) -> str:
            if not values:
                return "[]"
            return f"[\n{indent}  " + f",\n{indent}  ".join(map(_quote, values)) + f"\n{indent}]"

        out.write(f'{{\n  "audit_log": {array(self.audit_log, "  ")},\n  "edges": ')
        opening = "[\n"
        for e in self.edges:
            certificate = e.certificate
            out.write(
                f'{opening}    {{\n      "anchor": {_quote(certificate.anchor)},\n'
                f'      "certificate": {_quote(certificate.rule_id)},\n'
                f'      "from": {_quote(e.src)},\n      "to": {_quote(e.dst)},\n'
                f'      "witnesses": {array(certificate.witnesses, "      ")}\n    }}'
            )
            opening = ",\n"
        out.write("[]" if self._size == 0 else "\n  ]")
        out.write(f',\n  "nodes": {array(self.nodes, "  ")}\n}}\n')


class _Edges:
    """A graph's edges in (src, dst) order, sized; each iteration builds
    the witness chains of one source at a time."""

    __slots__ = ("_graph",)

    def __init__(self, graph: DominationGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._size

    def __iter__(self) -> Iterator[Edge]:
        trees = self._graph._trees
        for src, out in self._graph._out.items():
            chains = _chains(src, trees[src]) if src in trees else {}
            for dst, certificate in out.items():
                yield Edge(src, dst, certificate or Certificate("C5_transitive", chains[dst]))


class ChainBound(NamedTuple):
    """An upper bound on certified chains out of a knot.  free_ghat bounds
    the total strict length; alternating_degree bounds only how many
    alternating knots a chain can contain."""

    value: int
    rule: str  # "free_ghat" | "alternating_degree"
    scope: str  # "total_length" | "alternating_count"


def _summands_cover(sum1: tuple[str, ...], sum2: tuple[str, ...], certified: frozenset[tuple[str, str]]) -> bool:
    """Can every summand of k2 be matched injectively to a summand of k1
    that equals it or certifiably dominates it?  Plain sub-multiset
    inclusion is the identity matching.  Copies are matched one at a time
    along augmenting paths over the distinct names, without recursion."""
    spare = Counter(sum1)  # unmatched copies of each k1 summand
    held: dict[str, Counter] = {source: Counter() for source in spare}  # source -> target -> copies
    for target in sorted(sum2):
        # Search for moves that give target one more copy: a target takes
        # a copy from a source (+1), and may hand back one it holds (-1).
        seen, queued, stack, path = set(), {target}, [(target, ())], None
        while stack and path is None:
            t, moves = stack.pop()
            for source in spare:
                if source in seen or (source != t and (source, t) not in certified):
                    continue
                seen.add(source)
                taken = moves + ((source, t, 1),)
                if spare[source]:
                    path = taken
                for other, copies in held[source].items():
                    if copies and other not in queued:
                        queued.add(other)
                        stack.append((other, taken + ((source, other, -1),)))
        if path is None:
            return False
        spare[path[-1][0]] -= 1
        for source, t, step in path:
            held[source][t] += step
    return True


def build_graph(corpus: Corpus, roots: Iterable[str] | None = None) -> DominationGraph:
    """The certified edges out of every record that `roots` reach (all
    records when roots is None), closed under transitivity out of the
    roots.  The audit lists the certified pairs that a rule blocks, and
    a cycle among the direct edges, if any.  With roots None it reads
    every record first, so an invalid one fails before any is certified.

    Every direct certificate comes from structure, by the first of four
    constructions that applies: an unknot is below every knot (C0,
    `flags.unknot`), a satellite dominates its pattern (C2) and, at
    winding 1, its companion (C3), and a composite dominates a knot
    whose summands pair injectively with its own, each equal or below
    through an earlier edge (C1, `connected_sum_of`).  So the candidates
    out of a composite are the records whose summands all lie among its
    own summands and their direct successors.  A record's direct edges
    therefore depend only on it and on its summands' edges: the walk
    certifies each summand before its sums, and each certified target in
    turn, so the edges out of a record are the same whichever roots
    reach it.  A pair two or more direct steps apart gets a
    `C5_transitive` certificate with its canonical witness chain, unless
    a rule blocks it, and then it is an audit line naming that chain and
    the rules.

    >>> from knotdom.cli import default_corpus_path, load_corpus
    >>> graph = build_graph(load_corpus(default_corpus_path()), ["granny"])
    >>> graph.nodes
    ('3_1', 'granny', 'unknot')
    >>> [(e.src, e.dst, e.certificate.rule_id) for e in graph.edges]
    [('3_1', 'unknot', 'C0_unknot'), ('granny', '3_1', 'C1_connected_sum'), ('granny', 'unknot', 'C0_unknot')]
    """
    names = corpus.names()
    if roots is None:
        corpus.records  # parses, then enriches, every record
    # an unknown root raises CorpusError; the first root is certified first
    roots = names if roots is None else [corpus.declared(name).name for name in roots]
    # Candidates come from structure as declared, so only the records
    # certified and the targets of their certificates are enriched:
    # enrichment keeps the references and only ever sets `unknot` to
    # False.  The walk reads each record enriched, which rejects a
    # dangling or circular summand before the walk follows it.
    declared = {name: corpus.declared(name) for name in names}
    unknots = [name for name in names if declared[name].flags.unknot is True]
    holders: dict[str, list[str]] = {}  # summand -> records having it
    for name in names:
        for summand in set(declared[name].summands()):
            holders.setdefault(summand, []).append(name)

    edges: list[Edge] = []
    succ: dict[str, list[str]] = {}  # certified record -> its direct successors
    conflicts: list[tuple[str, str, str, list[str]]] = []
    stack = roots[::-1]
    while stack:
        root = stack.pop()
        if root in succ:
            continue
        order = _walk([root], lambda name: [s for s in corpus.get(name).connected_sum_of or () if s not in succ])[0]
        for src in order:
            record = corpus.get(src)
            found = dict.fromkeys(unknots, "C0_unknot")  # target -> its construction, first one first
            if record.satellite_of is not None:
                pattern, companion, winding = record.satellite_of
                found.setdefault(pattern, "C2_satellite_pattern")
                if winding == 1:
                    found.setdefault(companion, "C3_winding_one_companion")
            if record.connected_sum_of is not None:
                reach = set(record.connected_sum_of)
                known = frozenset((s, t) for s in reach for t in succ[s])
                reach.update(t for _, t in known)
                covered = {
                    name for summand in reach for name in holders.get(summand, ())
                    if reach.issuperset(declared[name].summands())
                }
                for name in covered.difference(found, [src]):
                    if _summands_cover(record.connected_sum_of, declared[name].summands(), known):
                        found[name] = "C1_connected_sum"
            found.pop(src, None)
            succ[src] = []
            for dst, rule_id in sorted(found.items()):
                if fired := scan(record, corpus.get(dst))[0]:
                    conflicts.append((src, dst, rule_id, sorted(r.rule_id for r in fired)))
                else:
                    edges.append(Edge(src, dst, Certificate(rule_id, (src, dst))))
                    succ[src].append(dst)
                    if dst not in succ:
                        stack.append(dst)

    audit = [
        f"conflict: {src} -> {dst} certified by {rule_id} but obstructed by {negatives}"
        for src, dst, rule_id, negatives in sorted(conflicts)
    ]
    trees = {src: _canonical_tree(src, succ) for src in roots}
    transitive = []
    for src, tree in trees.items():
        blocked = []
        for dst, pred in tree.items():
            if pred != src:  # two or more steps
                if fired := scan(corpus.get(src), corpus.get(dst))[0]:
                    blocked.append((dst, sorted(r.rule_id for r in fired)))
                else:
                    transitive.append((src, dst))
        if blocked:
            chains = _chains(src, tree)
            audit += (f"conflict: {src} -> {dst} certified by C5_transitive through {list(chains[dst])} "
                      f"but obstructed by {negatives}" for dst, negatives in blocked)

    nodes = tuple(sorted(succ))
    cycle = _walk(nodes, succ.__getitem__)[1]
    if cycle is not None:
        audit.append(f"cycle among certified edges: {cycle}")
    return DominationGraph(nodes, edges, tuple(audit), trees, transitive)


def evaluate(corpus: Corpus, name1: str, name2: str) -> Verdict:
    """Verdict for "does name1 1-dominate name2?", read off the closed
    graph out of name1, so certified exactly when `build_graph` holds the
    edge.  An audit finding of that graph is a contradiction in the
    corpus: it raises CorpusError, also when the names are equal.

    >>> from knotdom.cli import default_corpus_path, load_corpus
    >>> evaluate(load_corpus(default_corpus_path()), "granny", "unknot").certificate
    Certificate(rule_id='C0_unknot', witnesses=('granny', 'unknot'))
    """
    k1, k2 = corpus.get(name1), corpus.get(name2)
    graph = build_graph(corpus, [name1])
    if graph.audit_log:
        raise CorpusError("; ".join(graph.audit_log))
    if name1 == name2:
        return Verdict("equal")
    fired, passed = scan(k1, k2)
    if fired:
        return Verdict("obstructed", obstructions=tuple(fired))
    edge = graph.edge(name1, name2)
    if edge is not None:
        return Verdict("certified", certificate=edge.certificate)
    return Verdict("unknown", passed=tuple(passed))


def _canonical_tree(src: str, succ: dict[str, list[str]]) -> dict[str, str]:
    """Every node reachable from src, mapped to its predecessor on its
    canonical witness chain: shortest, ties broken lexicographically.
    Breadth first, one level at a time, taking each level's nodes by name:
    a node keeps the place of its first reach, and the predecessor whose
    chain is least among those of its level.  A level's chains are ranked
    by their order, so they are compared without being built.  The audit
    lists closure conflicts in this order."""
    tree: dict[str, str] = {}
    rank = {src: 0}  # the last level's nodes -> the place of their chains in order
    while rank:
        reached: dict[str, str] = {}
        for node in sorted(rank):
            for nxt in succ[node]:
                if nxt != src and nxt not in tree and (nxt not in reached or rank[node] < rank[reached[nxt]]):
                    reached[nxt] = node
        tree.update(reached)
        order = sorted(reached, key=lambda nxt: (rank[reached[nxt]], nxt))
        rank = {nxt: place for place, nxt in enumerate(order)}
    return tree


def _chains(src: str, tree: dict[str, str]) -> dict[str, tuple[str, ...]]:
    """The chain from src to each node of `_canonical_tree`, down the tree:
    a node's predecessor comes before it."""
    chains = {src: (src,)}
    for node, pred in tree.items():
        chains[node] = chains[pred] + (node,)
    return chains


def longest_chain(graph: DominationGraph, start: str) -> list[str]:
    """A maximum-length strict chain of certified edges from start; ties
    broken by lexicographic order of the name sequence.  An audit finding
    or a cycle raises CorpusError, the finding as `evaluate` raises it."""
    if start not in graph.nodes:
        raise CorpusError(f"unknown knot name {start!r}")
    if graph.audit_log:
        raise CorpusError("; ".join(graph.audit_log))
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
    _require_enriched(record)
    bounds: list[ChainBound] = []
    if record.flags.free is True and record.ghat is not None:
        bounds.append(ChainBound(record.ghat, "free_ghat", "total_length"))
    if _alternating_prime_power(record):
        bounds.append(ChainBound(record.delta.max_degree, "alternating_degree", "alternating_count"))
    return bounds
