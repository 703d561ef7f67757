"""The all-pairs domination graph builder, kept as the test oracle for
`knotdom.poset.build_graph`; the dict form of a graph, kept as the
oracle for `DominationGraph.write_json`; the recursive graph walks kept
as oracles for the explicit-stack walk `knotdom.knotbase._walk` (its
first cycle) and for `knotdom.poset.longest_chain`; the witness-chain
closures kept as oracles for the predecessor trees of
`knotdom.poset.build_graph`; and `iter_chains`, which lists every chain
(exponentially many in chain length) for checks on small graphs.
`_scan_obstructions` and `_scan_rigidity`, the hand-written rule scans,
are kept as the oracle for the rule table read by
`knotdom.domination.scan`; `certificate_search`, which decides one
pair's certificate from both records alone, as the oracle for the
certificates that `knotdom.poset.build_graph` builds from structure.

The all-pairs `build_graph` evaluates every obstruction, rigidity and
certificate rule on all N(N-1) ordered pairs, then re-scans for
connected-sum certificates until nothing changes.  `knotdom.poset`'s
`build_graph` must serialize to the same bytes.
"""
from __future__ import annotations

import json
from decimal import Decimal
from functools import lru_cache

from knotdom.domination import Certificate, ObstructionReport
from knotdom.knotbase import Corpus, CorpusError, KnotRecord, _require_enriched, genus_interval
from knotdom.laurent import format_poly, is_prime_power
from knotdom.poset import DominationGraph, Edge, _summands_cover

from kernel_oracle import exact_div


def _scan_obstructions(
    k1: KnotRecord, k2: KnotRecord
) -> tuple[list[ObstructionReport], list[str]]:
    """Evaluate every obstruction rule; return (fired, passed).  A rule
    with an indefinite input lands in neither list."""
    fired: list[ObstructionReport] = []
    passed: list[str] = []

    def report(rule_id: str, violated: bool, detail: str, *args) -> None:
        # the detail is formatted with args only when the rule fires
        if violated:
            fired.append(ObstructionReport(rule_id, detail.format(*args)))
        else:
            passed.append(rule_id)

    d1, d2 = k1.delta, k2.delta
    if exact_div(d1, d2) is None:
        report("O1_alexander", True, "{} does not divide {}", format_poly(d2), format_poly(d1))
    else:
        passed.append("O1_alexander")

    upper1 = genus_interval(k1)[1]
    lower2 = genus_interval(k2)[0]
    if upper1 is not None:
        report("O2_genus", upper1 < lower2, "genus at most {} is below genus at least {}", upper1, lower2)

    det1, det2 = k1.determinant, k2.determinant
    report("O3_determinant", det1 % det2 != 0, "{} does not divide {}", det2, det1)

    if k1.volume is not None and k2.volume is not None:
        report(
            "O4_volume",
            Decimal(k1.volume) < Decimal(k2.volume),
            "volume {} is below volume {}", k1.volume, k2.volume,
        )

    for rule_id, flag in (("O5_two_bridge", "two_bridge"), ("O6_montesinos", "montesinos")):
        own = getattr(k1.flags, flag)
        if own is False:
            passed.append(rule_id)
        elif own is True:
            if k2.flags.unknot is True:
                passed.append(rule_id)  # the unknot is exempt from class closure
            else:
                other = getattr(k2.flags, flag)
                if other is not None:
                    report(rule_id, other is False, "{0}=True vs {0}={1}", flag, other)

    ta = k1.flags.toroidally_alternating
    if ta is False:
        passed.append("O7_ap_class")
    elif ta is True and k2.sum_of_simple is not None:
        report(
            "O7_ap_class",
            k2.sum_of_simple is False,
            "toroidally_alternating=True vs sum_of_simple={}", k2.sum_of_simple,
        )

    free1 = k1.flags.free
    if free1 is False:
        passed.append("O8_free")
    elif free1 is True and k2.flags.free is not None:
        report("O8_free", k2.flags.free is False, "free=True vs free={}", k2.flags.free)

    if k1.ghat is not None and k2.ghat is not None:
        report("O9_ghat", k1.ghat < k2.ghat, "maximal incompressible genus {} is below {}", k1.ghat, k2.ghat)

    lo1 = k1.flags.lo_double_cover
    if lo1 is True:
        passed.append("O10_orderability")
    elif lo1 is False and k2.flags.lo_double_cover is not None:
        report(
            "O10_orderability",
            k2.flags.lo_double_cover is True,
            "lo_double_cover=False vs lo_double_cover={}", k2.flags.lo_double_cover,
        )

    if k1.name != k2.name and k1.mutant_class is not None and k2.mutant_class is not None:
        report(
            "O11_mutation",
            k1.mutant_class == k2.mutant_class,
            "mutant_class {!r} vs {!r}", k1.mutant_class, k2.mutant_class,
        )

    return fired, passed


def _scan_rigidity(k1: KnotRecord, k2: KnotRecord) -> list[ObstructionReport]:
    fired: list[ObstructionReport] = []

    def fire(rule_id: str, detail: str) -> None:
        fired.append(ObstructionReport(rule_id, detail))

    g1, g2 = k1.genus_exact, k2.genus_exact
    same_genus = g1 is not None and g1 == g2
    same_volume = k1.volume is not None and k1.volume == k2.volume

    if (
        k1.flags.no_winding_zero_companion is True
        and k1.flags.unknot is False
        and same_genus
        and same_volume
    ):
        fire(
            "R1_genus_volume",
            f"no winding-zero companion, equal genus {g1}, equal volume {k1.volume}",
        )

    if k1.flags.fibred is True and same_genus:
        fire("R2_fibred_genus", f"fibred dominator with equal genus {g1}")

    nilpotent = (
        k1.flags.two_bridge is True
        or k1.flags.fibred is True
        or (
            k1.flags.alternating is True
            and not k1.delta.is_zero()
            and is_prime_power(abs(k1.delta.leading_coefficient))
        )
    )
    deg1 = 0 if k1.delta.is_zero() else k1.delta.max_degree
    deg2 = 0 if k2.delta.is_zero() else k2.delta.max_degree
    if nilpotent and deg1 == deg2:
        fire("R3_nilpotent_degree", f"transfinitely p-nilpotent dominator, equal Alexander degree {deg1}")

    if k1.flags.free is True and k1.ghat is not None and k1.ghat == k2.ghat:
        fire("R4_free_ghat", f"free dominator with equal maximal incompressible genus {k1.ghat}")

    if (
        k1.name != k2.name
        and k1.mutant_class is not None
        and k1.mutant_class == k2.mutant_class
    ):
        fire("R5_mutant_double_cover", f"equal double branched covers: mutant class {k1.mutant_class!r}")

    if k1.flags.hyperbolic is True and k2.flags.hyperbolic is True and same_volume:
        fire("R6_hyperbolic_volume", f"both hyperbolic with equal volume {k1.volume}")

    return fired


def certificate_search(
    k1: KnotRecord,
    k2: KnotRecord,
    certified: frozenset[tuple[str, str]] | set | None = None,
) -> Certificate | None:
    """First matching positive construction for distinct knots, in the
    order unknot target, satellite pattern, winding-one companion,
    connected sum.  `certified` optionally supplies known edges for
    pairing the summands of composite knots."""
    _require_enriched(k1, k2)
    if k2.flags.unknot is True:
        return Certificate("C0_unknot", (k1.name, k2.name))
    if k1.satellite_of is not None:
        pattern, companion, winding = k1.satellite_of
        if pattern == k2.name:
            return Certificate("C2_satellite_pattern", (k1.name, k2.name))
        if companion == k2.name and winding == 1:
            return Certificate("C3_winding_one_companion", (k1.name, k2.name))
    if k1.connected_sum_of is not None and _summands_cover(
        k1.summands(), k2.summands(), frozenset(certified or ())
    ):
        return Certificate("C1_connected_sum", (k1.name, k2.name))
    return None


def evaluate_full(k1, k2, certified=None):
    """All three scans, unconditionally: (obstructions, rigidity reports,
    passed obstruction rules, certificate), from which `build_graph` below
    certifies or audits a pair."""
    certificate = certificate_search(k1, k2, certified)
    fired, passed = _scan_obstructions(k1, k2)
    rigidity = _scan_rigidity(k1, k2) if k1.name != k2.name else []
    return fired, rigidity, passed, certificate


def build_graph(corpus: Corpus) -> DominationGraph:
    """Evaluate all ordered pairs, keep certified edges, close under
    transitivity, and audit certificates against obstructions."""
    names = corpus.names()
    records = {name: corpus.get(name) for name in names}
    pairs = [(a, b) for a in names for b in names if a != b]

    results = {(a, b): evaluate_full(records[a], records[b]) for a, b in pairs}

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
                    f"conflict: {src} -> {dst} certified by C5_transitive through {list(chain)} "
                    f"but obstructed by {sorted(blocked[pair])}"
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
