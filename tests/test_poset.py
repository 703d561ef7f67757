"""Domination graph construction, audit, chains, and bounds."""
import json
import random
from collections import Counter
from graphlib import TopologicalSorter

import pytest

from knotdom import poset
from knotdom.domination import Certificate, scan
from knotdom.knotbase import Corpus, CorpusError, Flags, KnotRecord, _walk, build_corpus, enrich_record, record_from_json
from knotdom.laurent import parse_poly
from knotdom.poset import (
    ChainBound,
    DominationGraph,
    Edge,
    _canonical_tree,
    _chains,
    build_graph,
    chain_length_bound,
    longest_chain,
)
from poset_oracle import _canonical_chains as oracle_canonical_chains
from poset_oracle import _find_cycle as oracle_find_cycle
from poset_oracle import build_graph as oracle_build_graph
from poset_oracle import iter_chains, level_chains, serialized
from poset_oracle import longest_chain as oracle_longest_chain

CLOSURE = " certified by C5_transitive through "  # in a closure conflict line only


def edge_set(graph):
    return {(e.src, e.dst) for e in graph.edges}


def direct_edges(graph):
    """The edges of `graph` certified directly, not by transitivity."""
    return tuple(e for e in graph.edges if e.certificate.rule_id != "C5_transitive")


def certification_audit(graph):
    """The certification conflicts of `graph`: the audit lines before
    the first closure conflict or cycle."""
    lines = []
    for line in graph.audit_log:
        if " certified by " not in line or CLOSURE in line:
            break
        lines.append(line)
    return tuple(lines)


def direct_graph(graph):
    """`graph` without its transitive edges, closure conflicts and cycle."""
    return DominationGraph(graph.nodes, direct_edges(graph), certification_audit(graph))


class TestBuildGraph:
    def test_every_knot_dominates_the_unknot(self, corpus, graph):
        for name in corpus.names():
            if name != "unknot":
                assert (name, "unknot") in edge_set(graph)

    def test_expected_edges(self, graph):
        edges = edge_set(graph)
        assert ("granny", "3_1") in edges
        assert ("ks_cable23_of_4_1", "3_1") in edges
        assert ("4_1", "3_1") not in edges

    def test_audit_clean(self, graph):
        assert graph.audit_log == ()

    def test_no_self_edges_and_acyclic(self, graph):
        edges = edge_set(graph)
        assert all(src != dst for src, dst in edges)
        # transitively closed and acyclic: an edge both ways would be a cycle
        assert all((dst, src) not in edges for src, dst in edges)

    def test_transitively_closed(self, graph):
        edges = edge_set(graph)
        for a, b in edges:
            for c, d in edges:
                if b == c:
                    assert (a, d) in edges, (a, b, d)

    def test_edge_provenance(self, graph):
        for edge in graph.edges:
            cert = edge.certificate
            assert cert.anchor
            assert cert.witnesses[0] == edge.src
            assert cert.witnesses[-1] == edge.dst

    def test_reduction_then_closure_is_identity(self, graph):
        edges = edge_set(graph)
        implied = {
            (a, d)
            for a, b in edges
            for c, d in edges
            if b == c and (a, d) in edges
        }
        reduction = edges - implied
        closed = set(reduction)
        changed = True
        while changed:
            changed = False
            for a, b in list(closed):
                for c, d in list(closed):
                    if b == c and (a, d) not in closed:
                        closed.add((a, d))
                        changed = True
        assert closed == edges


@pytest.fixture(scope="module")
def nested_corpus():
    # nested satellites: outer -> middle (pattern), middle -> inner
    # (pattern); closure must add outer -> inner with a C5 chain
    inner = KnotRecord(name="inner", delta=parse_poly("1 - t + t^2"))
    middle = KnotRecord(
        name="middle",
        delta=parse_poly("1 - t + t^2"),
        satellite_of=("inner", "inner", 0),
        flags=Flags(free=False, no_winding_zero_companion=False, fibred=False),
    )
    outer = KnotRecord(
        name="outer",
        delta=parse_poly("1 - t + t^2"),
        satellite_of=("middle", "inner", 0),
        flags=Flags(free=False, no_winding_zero_companion=False, fibred=False),
    )
    return build_corpus([inner, middle, outer])


class TestTransitiveClosure:
    def test_chain_certificate(self, nested_corpus):
        graph = build_graph(nested_corpus)
        edge = graph.edge("outer", "inner")
        assert edge is not None
        assert edge.certificate.rule_id == "C5_transitive"
        assert edge.certificate.witnesses == ("outer", "middle", "inner")
        assert len(edge.certificate.witnesses) >= 3

    def test_closure_idempotent(self, nested_corpus):
        graph = build_graph(nested_corpus)
        again = build_graph(nested_corpus)
        assert graph == again


class TestLongestChain:
    def test_trefoil(self, graph):
        assert longest_chain(graph, "3_1") == ["3_1", "unknot"]

    def test_granny(self, graph):
        assert longest_chain(graph, "granny") == ["granny", "3_1", "unknot"]

    def test_unknot_is_bottom(self, graph):
        assert longest_chain(graph, "unknot") == ["unknot"]

    def test_unknown_start_rejected(self, graph):
        with pytest.raises(CorpusError, match="unknown knot name"):
            longest_chain(graph, "9_42")

    def test_ties_break_lexicographically(self, corpus):
        # two equal-length chains from granny would tie; the certified
        # graph has only one, so check determinism by repeated runs
        graph = build_graph(corpus)
        chains = {tuple(longest_chain(graph, "granny")) for _ in range(5)}
        assert chains == {("granny", "3_1", "unknot")}


class TestIterChains:
    def test_all_chains_from_granny(self, graph):
        chains = set(iter_chains(graph, "granny"))
        assert chains == {
            ("granny",),
            ("granny", "3_1"),
            ("granny", "3_1", "unknot"),
            ("granny", "unknot"),
        }

    def test_refined_ghat_bound_along_chains(self, corpus, graph):
        # n + ghat(end) <= ghat(start) whenever both are known
        for start in corpus.names():
            g0 = corpus.get(start).ghat
            if g0 is None or corpus.get(start).flags.free is not True:
                continue
            for chain in iter_chains(graph, start):
                gn = corpus.get(chain[-1]).ghat
                if gn is not None:
                    assert len(chain) - 1 + gn <= g0, chain


class TestChainLengthBound:
    def test_trefoil_bound(self, corpus):
        assert chain_length_bound(corpus.get("3_1")) == [
            ChainBound(1, "free_ghat", "total_length")
        ]

    def test_five2_bounds(self, corpus):
        bounds = chain_length_bound(corpus.get("5_2"))
        assert ChainBound(1, "free_ghat", "total_length") in bounds
        assert ChainBound(2, "alternating_degree", "alternating_count") in bounds

    def test_metadata_only_satellite_has_no_bounds(self, corpus):
        assert chain_length_bound(corpus.get("double_of_3_1")) == []

    def test_monic_alternating_knot_gets_no_degree_bound(self, corpus):
        # leading coefficient 1 is not a prime power, so only the ghat
        # bound applies to the trefoil
        bounds = chain_length_bound(corpus.get("3_1"))
        assert all(b.rule != "alternating_degree" for b in bounds)

    def test_bounds_hold_on_graph(self, corpus, graph):
        for name in corpus.names():
            for bound in chain_length_bound(corpus.get(name)):
                chain = longest_chain(graph, name)
                if bound.scope == "total_length":
                    assert len(chain) - 1 <= bound.value, name
                else:
                    alternating = [
                        k for k in chain if corpus.get(k).flags.alternating is True
                    ]
                    assert len(alternating) <= bound.value, name


class TestDeterminism:
    def test_serial_equals_parallel(self, corpus):
        assert serialized(build_graph(corpus)) == serialized(build_graph(corpus))

    def test_repeated_builds_identical(self, corpus):
        a = build_graph(corpus)
        b = build_graph(corpus)
        assert a == b


def random_corpus(seed: int):
    """Primes with distinct Alexander polynomials, nested satellites and
    connected sums over them, and the unknot, with volume, ghat and class
    flags drawn so that certificates meet obstructions."""
    rng = random.Random(seed)

    def meta():
        pick = rng.choice
        return dict(
            volume=pick([None, "1.5", "2.5", "4.0"]),
            ghat=pick([None, 0, 1, 2, 3]),
            flags=Flags(
                free=pick([None, True, False]),
                lo_double_cover=pick([None, True, False]),
                hyperbolic=pick([None, True, False]),
                alternating=pick([None, True, False]),
            ),
        )

    deltas = [f"{a} - {2 * a + e}t + {a}t^2" for a in (1, 2, 3) for e in (-1, 1)]
    deltas += [f"1 - {b}t + {2 * b - 1}t^2 - {b}t^3 + t^4" for b in (2, 3, 4)]
    unknot = KnotRecord(
        name="unknot",
        delta=parse_poly("1"),
        volume=rng.choice([None, "0.0"]),
        ghat=rng.choice([None, 0]),
        flags=Flags(unknot=True, lo_double_cover=rng.choice([None, True, False])),
    )
    records = {"unknot": unknot}
    primes = [f"p{i}" for i in range(7)]
    for name, delta in zip(primes, rng.sample(deltas, len(primes))):
        records[name] = KnotRecord(name=name, delta=parse_poly(delta), **meta())
    satellites = []
    for i in range(4):
        pattern = rng.choice(["unknot"] + primes + satellites)
        companion = rng.choice([p for p in primes if p != pattern])
        satellites.append(f"s{i}")
        records[f"s{i}"] = KnotRecord(
            name=f"s{i}", satellite_of=(pattern, companion, rng.choice([0, 1, 2])), **meta()
        )
    sums: dict[tuple[str, ...], str] = {}

    def add_sum(summands):
        key = tuple(sorted(summands))
        if key not in sums:
            sums[key] = name = f"c{len(sums)}"
            records[name] = KnotRecord(name=name, connected_sum_of=key, **meta())

    for _ in range(5):
        pool = primes + satellites + list(sums.values())
        summands = [rng.choice(pool) for _ in range(rng.choice([2, 2, 3]))]
        add_sum(summands)
        # the same sum with a satellite summand replaced by its pattern:
        # a connected-sum certificate through an earlier edge
        for i, summand in enumerate(summands):
            if summand in satellites:
                add_sum(summands[:i] + [records[summand].satellite_of[0]] + summands[i + 1:])
    return build_corpus(list(records.values()))


def sibling_sums_corpus():
    """Two names for one summand multiset, assembled past build_corpus
    (which rejects them): their direct edges form a cycle."""
    a = enrich_record(KnotRecord(name="a", delta=parse_poly("1 - t + t^2")))
    b = enrich_record(KnotRecord(name="b", delta=parse_poly("1 - 3t + t^2")))
    siblings = {"a": a, "b": b}
    s1 = enrich_record(KnotRecord(name="s1", connected_sum_of=("a", "b")), siblings)
    s2 = enrich_record(KnotRecord(name="s2", connected_sum_of=("b", "a")), siblings)
    return Corpus((a, b, s1, s2))


def contradiction_corpus(transitive):
    """Corpus entries in which O10_orderability blocks a >= c: a has
    pattern c, or, when transitive, pattern b, which has pattern c, so that
    only the closure out of a holds the blocked pair."""
    entries = [
        {"name": "unknot", "delta": "1", "flags": {"unknot": True}},
        {"name": "k", "delta": "1 - t + t^2"},
        {"name": "c", "delta": "1 - 3t + t^2", "flags": {"lo_double_cover": True}},
    ]
    if transitive:
        entries.append({"name": "b", "satellite_of": ["c", "k", 0]})
    entries.append({"name": "a", "satellite_of": ["b" if transitive else "c", "k", 0], "flags": {"lo_double_cover": False}})
    return entries


def satellite_chain(depth):
    """Corpus entries for a chain of satellites: a_i has pattern a_{i+1}
    and winding 0 about a trefoil companion, so the longest chain from
    a0000 has depth + 1 names and the closure about depth^2 / 2 edges."""
    entries = [{"name": "k", "delta": "1 - t + t^2"}]
    for i in range(depth):
        entries.append({
            "name": f"a{i:04d}",
            "satellite_of": [f"a{i + 1:04d}", "k", 0],
            "flags": {"free": False, "no_winding_zero_companion": False, "fibred": False},
        })
    entries.append({"name": f"a{depth:04d}", "delta": "1 - 3t + t^2"})
    return entries


def tree_chains(src, succ):
    """The chains of `_canonical_tree` two or more steps long, in its order."""
    return {dst: chain for dst, chain in _chains(src, _canonical_tree(src, succ)).items() if len(chain) >= 3}


class TestCanonicalChains:
    def test_matches_relaxation_in_order(self):
        # names drawn so that name order differs from the order of first
        # reach; dense enough for self-loops, cycles through the source
        # and several shortest chains to one node
        rng = random.Random(11)
        loops = cycles = ties = 0
        for _ in range(200):
            names = rng.sample([a + b for a in "pqxyz" for b in "0123"], rng.randint(1, 12))
            succ = {name: rng.sample(names, rng.randint(0, min(4, len(names)))) for name in names}
            src = rng.choice(names)
            chains = tree_chains(src, succ)
            assert list(chains.items()) == list(oracle_canonical_chains(src, succ).items())
            assert list(chains.items()) == list(level_chains(src, succ).items())
            loops += any(name in succ[name] for name in names)
            cycles += any(src in succ[dst] for dst in chains)
            depth = {**dict.fromkeys(succ[src], 1), src: 0}
            depth.update((dst, len(chain) - 1) for dst, chain in chains.items())
            ties += any(
                sum(depth.get(node) == depth[dst] - 1 for node in names if dst in succ[node]) > 1
                for dst in chains
            )
        assert loops and cycles and ties, (loops, cycles, ties)

    def test_least_chain_keeps_place_of_first_reach(self):
        # z is first reached through x, but (s, a, y, z) < (s, b, x, z)
        succ = {"s": ["b", "a"], "a": ["y"], "b": ["x"], "x": ["z"], "y": ["w", "z"], "w": [], "z": []}
        assert list(tree_chains("s", succ).items()) == [
            ("y", ("s", "a", "y")),
            ("x", ("s", "b", "x")),
            ("z", ("s", "a", "y", "z")),
            ("w", ("s", "a", "y", "w")),
        ]


def certified_graph(names, pairs):
    edges = tuple(Edge(src, dst, Certificate("C0_unknot", ())) for src, dst in pairs)
    return DominationGraph(tuple(names), edges, ())


def chain_or_error(walk, graph, start):
    try:
        return walk(graph, start)
    except CorpusError as exc:
        return str(exc)


class TestWalks:
    def test_longest_chain_matches_recursion(self):
        # even trials keep only edges along a random rank (acyclic), odd
        # trials are free digraphs with self-loops; every node is a start
        rng = random.Random(29)
        chains = errors = 0
        for trial in range(300):
            names = rng.sample([a + b for a in "pqxyz" for b in "0123"], rng.randint(1, 10))
            pairs = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 20))}
            if trial % 2 == 0:
                rank = {name: i for i, name in enumerate(names)}
                pairs = {(src, dst) for src, dst in pairs if rank[src] < rank[dst]}
            graph = certified_graph(names, pairs)
            for start in names:
                expected = chain_or_error(oracle_longest_chain, graph, start)
                assert chain_or_error(longest_chain, graph, start) == expected
                chains += isinstance(expected, list) and len(expected) >= 3
                errors += isinstance(expected, str)
        assert chains and errors, (chains, errors)

    def test_find_cycle_matches_recursion(self):
        rng = random.Random(31)
        cyclic = acyclic = 0
        for _ in range(300):
            names = sorted(rng.sample([a + b for a in "pqxyz" for b in "0123"], rng.randint(1, 10)))
            succ = {name: [] for name in names}
            for _ in range(rng.randint(0, 12)):
                src, dst = rng.choice(names), rng.choice(names)
                if dst not in succ[src]:
                    succ[src].append(dst)
            expected = oracle_find_cycle(names, succ)
            assert _walk(names, succ.__getitem__)[1] == expected
            cyclic += expected is not None
            acyclic += expected is None
        assert cyclic and acyclic, (cyclic, acyclic)

    def test_find_cycle_on_deep_path(self):
        # 5000 nodes is deeper than the default recursion limit of 1000
        names = [f"n{i:04d}" for i in range(5000)]
        succ = {name: [nxt] for name, nxt in zip(names, names[1:])}
        succ[names[-1]] = []
        assert _walk(names, succ.__getitem__)[1] is None
        succ[names[-1]] = [names[2500]]
        assert _walk(names, succ.__getitem__)[1] == names[2500:] + [names[2500]]

    def test_walk_orders_the_reach_children_first(self):
        # graphlib is the oracle: fed the walk's order, a topological
        # sorter over exactly the nodes the roots reach must find each node
        # ready when it comes, and none left over
        rng = random.Random(37)
        nonempty = 0
        for _ in range(300):
            names = rng.sample([a + b for a in "pqxyz" for b in "0123"], rng.randint(1, 10))
            rank = {name: i for i, name in enumerate(names)}
            succ = {name: [] for name in names}
            for _ in range(rng.randint(0, 20)):
                src, dst = rng.choice(names), rng.choice(names)
                if rank[src] < rank[dst] and dst not in succ[src]:
                    succ[src].append(dst)
            roots = rng.sample(names, rng.randint(0, len(names)))
            reach, stack = set(roots), list(roots)
            while stack:
                for nxt in succ[stack.pop()]:
                    if nxt not in reach:
                        reach.add(nxt)
                        stack.append(nxt)
            order, cycle = _walk(roots, succ.__getitem__)
            assert cycle is None
            sorter = TopologicalSorter({node: succ[node] for node in reach})
            sorter.prepare()
            ready = set()
            for node in order:
                ready.update(sorter.get_ready())
                assert node in ready
                ready.remove(node)
                sorter.done(node)
            assert not sorter.is_active()
            nonempty += len(order) > len(roots)
        assert nonempty

    def test_longest_chain_on_deep_path(self):
        names = [f"n{i:04d}" for i in range(5000)]
        graph = certified_graph(names, zip(names, names[1:]))
        assert longest_chain(graph, names[0]) == names


class TestOracle:
    def test_matches_all_pairs_builder(self, corpus):
        audits = []
        through_edges = 0
        for case in [corpus] + [random_corpus(seed) for seed in range(20)]:
            graph = build_graph(case)
            assert serialized(graph) == serialized(oracle_build_graph(case)), case.names()
            audits += graph.audit_log
            for e in graph.edges:
                if e.certificate.rule_id == "C1_connected_sum":
                    own = Counter(case.get(e.src).summands())
                    through_edges += not Counter(case.get(e.dst).summands()) <= own
        assert any(" certified by " in a and CLOSURE not in a and "but obstructed by" in a for a in audits)
        assert any(" certified by C5_transitive through " in a and "but obstructed by" in a for a in audits)
        assert through_edges > 0

    def test_conflict_certified_through_earlier_edges(self):
        # c4 -> p3 is certified by C1 only through an earlier edge out
        # of a summand, and obstructed; it used to vanish unreported
        graph = build_graph(random_corpus(0))
        assert (
            "conflict: c4 -> p3 certified by C1_connected_sum "
            "but obstructed by ['O10_orderability', 'O9_ghat']"
        ) in graph.audit_log
        assert ("c4", "p3") not in edge_set(graph)

    def test_cycle_among_certified_edges(self):
        corpus = sibling_sums_corpus()
        graph = build_graph(corpus)
        assert graph.audit_log == ("cycle among certified edges: ['s1', 's2', 's1']",)
        assert serialized(graph) == serialized(oracle_build_graph(corpus))
        with pytest.raises(CorpusError, match=r"^cycle among certified edges: \['s1', 's2', 's1'\]$"):
            longest_chain(graph, "s1")


class TestCertify:
    @pytest.fixture(scope="class")
    def cases(self, corpus):
        chain = build_corpus([record_from_json(entry) for entry in satellite_chain(60)])
        blocked = build_corpus([record_from_json(entry) for entry in contradiction_corpus(True)])
        return [corpus, *(random_corpus(seed) for seed in range(40)), chain, sibling_sums_corpus(), blocked]

    def test_direct_edges_and_certification_audit(self, cases):
        # a direct edge's witnesses are its two ends, a transitive one's a
        # longer chain; the audit lists every certification conflict, in
        # order, before the closure conflicts and the cycle
        transitive = certification_conflicts = closure_conflicts = 0
        for case in cases:
            full = build_graph(case)
            direct, prefix = direct_edges(full), certification_audit(full)
            assert all(e.certificate.witnesses == (e.src, e.dst) for e in direct)
            assert all(len(e.certificate.witnesses) > 2 for e in full.edges if e.certificate.rule_id == "C5_transitive")
            assert list(prefix) == sorted(prefix)
            assert not any(" certified by " in line and CLOSURE not in line for line in full.audit_log[len(prefix):])
            transitive += len(full.edges) - len(direct)
            certification_conflicts += len(prefix)
            closure_conflicts += any(CLOSURE in line for line in full.audit_log)
        assert transitive and certification_conflicts and closure_conflicts

    def test_rebuilt_chains_match_the_oracle_closure(self, cases):
        # every pair two or more direct steps apart is a C5 edge whose
        # witnesses, read by edge() or by iteration, are the oracle's chain,
        # or an audit line that quotes that chain
        transitive = blocked = 0
        for case in cases:
            full = build_graph(case)
            direct = direct_graph(full)
            succ = {name: direct.successors(name) for name in direct.nodes}
            read = {(e.src, e.dst): e.certificate for e in full.edges if e.certificate.rule_id == "C5_transitive"}
            for src in direct.nodes:
                for dst, chain in level_chains(src, succ).items():
                    certificate = read.pop((src, dst), None)
                    if certificate is None:
                        assert full.edge(src, dst) is None
                        rules = sorted(r.rule_id for r in scan(case.get(src), case.get(dst))[0])
                        assert f"conflict: {src} -> {dst}{CLOSURE}{list(chain)} but obstructed by {rules}" in full.audit_log
                        blocked += 1
                    else:
                        assert certificate == full.edge(src, dst).certificate == Certificate("C5_transitive", chain)
                        transitive += 1
            assert not read
        assert transitive > 1700 and blocked

    def test_longest_chain_agrees_with_closure(self, cases):
        # a closure shortcut is never longer than its witness path, so the
        # chains agree where both audits are empty; the closed graph fails
        # on its audit, also on a closure conflict or cycle that the
        # direct edges' audit does not hold
        longest = errors = closure_only = 0
        for case in cases:
            full = build_graph(case)
            direct = direct_graph(full)
            for start in case.names():
                expected = chain_or_error(longest_chain, full, start)
                if full.audit_log:
                    assert expected == "; ".join(full.audit_log), start
                    errors += 1
                    closure_only += not direct.audit_log
                else:
                    assert chain_or_error(longest_chain, direct, start) == expected, start
                    longest = max(longest, len(expected))
        assert longest == 61 and errors and closure_only

    def test_one_scan_per_certified_candidate(self, monkeypatch):
        # each direct candidate and each pair of the closure is scanned
        # once; a certification conflict that the closure reaches again
        # is scanned twice, and is a closure conflict as well
        calls = []

        def recording(k1, k2):
            calls.append((k1.name, k2.name))
            return scan(k1, k2)

        monkeypatch.setattr(poset, "scan", recording)
        rescanned = 0
        for seed in range(40):
            calls.clear()
            graph = build_graph(random_corpus(seed))
            counts = Counter(calls)
            conflicts = {tuple(line.split()[1:4:2]) for line in certification_audit(graph)}
            reached = {tuple(line.split()[1:4:2]) for line in graph.audit_log if CLOSURE in line}
            assert calls and max(counts.values()) <= 2, seed
            assert {pair for pair, n in counts.items() if n == 2} == conflicts & reached, seed
            rescanned += len(conflicts & reached)
        assert rescanned

    def test_rooted_graph_matches_full_graph(self, cases):
        fewer = cycles = closure_only = 0
        for case in cases:
            whole = build_graph(case)
            full = direct_graph(whole)
            for start in case.names():
                closed = build_graph(case, [start])
                rooted = direct_graph(closed)
                nodes = set(rooted.nodes)
                assert start in nodes and rooted.nodes == tuple(sorted(nodes))
                assert all(e.dst in nodes for e in rooted.edges)
                assert all(set(case.get(name).summands()) <= nodes | {name} for name in nodes)
                assert tuple(rooted.edges) == tuple(e for e in full.edges if e.src in nodes), start
                assert rooted.audit_log == tuple(line for line in full.audit_log if line.split()[1] in nodes)
                assert [e for e in closed.edges if e.src == start] == [e for e in whole.edges if e.src == start], start
                expected = chain_or_error(longest_chain, closed, start)
                if closed.audit_log:
                    assert expected == "; ".join(closed.audit_log), start
                    closure_only += not rooted.audit_log
                else:
                    assert chain_or_error(longest_chain, rooted, start) == expected, start
                    if not whole.audit_log:
                        assert longest_chain(whole, start) == expected, start
                fewer += len(nodes) < len(full.nodes)
                cycles += any(line.startswith("cycle among ") for line in closed.audit_log)
        assert fewer and cycles and closure_only

    def test_roots_in_any_order_and_unknown_root(self, corpus):
        full = build_graph(corpus)
        assert build_graph(corpus, corpus.names()[::-1]) == full
        assert build_graph(corpus, []).nodes == ()
        assert build_graph(corpus, ["granny", "3_1", "granny"]) == build_graph(corpus, ["granny", "3_1"])
        with pytest.raises(CorpusError, match="unknown knot name"):
            build_graph(corpus, ["granny", "no_such_knot"])

    def test_circular_summands_fail_cleanly(self):
        # enrichment rejects these before the summands-first walk follows
        # them, so the walk is never sent round the cycle
        records = (
            KnotRecord(name="a", connected_sum_of=("b", "c")),
            KnotRecord(name="b", connected_sum_of=("a", "c")),
            KnotRecord(name="c"),
        )
        with pytest.raises(CorpusError, match="circular composite references"):
            build_graph(Corpus(records), ["a"])

    def test_circular_summands_error_names_only_the_cycle(self):
        # r -> x -> a -> b -> a: r and x lead to the cycle but are not on it
        records = (
            KnotRecord(name="r", connected_sum_of=("x", "c")),
            KnotRecord(name="x", connected_sum_of=("a", "c")),
            KnotRecord(name="a", connected_sum_of=("b", "c")),
            KnotRecord(name="b", connected_sum_of=("a", "c")),
            KnotRecord(name="c"),
        )
        with pytest.raises(CorpusError, match=r"^circular composite references among \['a', 'b'\]$"):
            build_graph(Corpus(records), ["r"])

    def test_dangling_summand_fails_cleanly(self):
        # enrichment rejects it before the summands-first walk follows it
        records = (
            KnotRecord(name="s", connected_sum_of=("a", "ghost")),
            KnotRecord(name="a", delta=parse_poly("1 - t + t^2")),
        )
        with pytest.raises(CorpusError, match="^s: dangling cross-reference to 'ghost'$"):
            build_graph(Corpus(records), ["s"])

    def test_chain_query_searches_fewer_pairs(self, monkeypatch):
        calls = []

        def recording(k1, k2):
            calls.append((k1.name, k2.name))
            return scan(k1, k2)

        monkeypatch.setattr(poset, "scan", recording)
        for seed in range(40):
            case = random_corpus(seed)
            calls.clear()
            build_graph(case)
            everything = set(calls)
            fewer = 0
            for start in case.names():
                calls.clear()
                build_graph(case, [start])
                assert set(calls) <= everything, (seed, start)
                fewer += len(set(calls)) < len(everything)
            assert fewer, seed
