"""The pair-query rule engine.

For an ordered pair of enriched records (k1, k2) the engine reports:

  - obstructions: necessary conditions for k1 >= k2 that fail outright
    (divisibility of Alexander polynomials and determinants, monotonicity
    of genus, Gromov volume and maximal incompressible genus, class
    closure for 2-bridge / Montesinos / sums of simple knots / free
    knots, left-orderability of double branched covers, mutation);
  - rigidity rules: invariant equalities under which any domination
    collapses to equality, so distinct names cannot strictly dominate;
  - certificates: positive constructions (reflexivity, the unknot as
    bottom element, satellite over pattern, winding-one cabling,
    connected-sum projection).

Every rule is sound under unknown metadata: a rule fires only when all
of its inputs are definite.  Every report carries a provenance anchor
naming the result it implements; the anchors are stable strings used in
serialized output.
"""
from __future__ import annotations

from collections import Counter
from decimal import Decimal
from typing import NamedTuple

from .knotbase import CorpusError, KnotRecord, genus_interval
from .laurent import exact_div, format_poly, is_prime_power

ANCHORS = {
    "O1_alexander": "Prop. 6.1",
    "O2_genus": "Prop. 1.4",
    "O3_determinant": "Thm. 3.1(1)",
    "O4_volume": "Prop. 1.5",
    "O5_two_bridge": "Prop. 3.6(1)",
    "O6_montesinos": "Prop. 3.6(2)",
    "O7_ap_class": "Cor. 4.2",
    "O8_free": "Prop. 5.6(1)",
    "O9_ghat": "Prop. 5.6(3)",
    "O10_orderability": "Cor. 3.5",
    "O11_mutation": "Cor. 3.2",
    "R1_genus_volume": "Thm. 2.4",
    "R2_fibred_genus": "Sec. 2, rigidity (2)",
    "R3_nilpotent_degree": "Prop. 6.8",
    "R4_free_ghat": "Prop. 5.6(3)",
    "R5_mutant_double_cover": "Thm. 3.1(2)",
    "R6_hyperbolic_volume": "Sec. 2, rigidity (1)",
    "C0_unknot": "Prop. 1.1",
    "C1_connected_sum": "Prop. 1.2",
    "C2_satellite_pattern": "Prop. 2.1",
    "C3_winding_one_companion": "Sec. 6, winding-one cabling",
    "C4_reflexive": "Sec. 1, partial order (reflexivity)",
    "C5_transitive": "Sec. 1, partial order (transitivity)",
}


class ObstructionReport(NamedTuple):
    rule_id: str
    detail: str

    @property
    def anchor(self) -> str:
        return ANCHORS[self.rule_id]


class Certificate(NamedTuple):
    rule_id: str
    witnesses: tuple[str, ...]

    @property
    def anchor(self) -> str:
        return ANCHORS[self.rule_id]


class Verdict(NamedTuple):
    """Outcome of a pair query: exactly one of the four kinds."""

    kind: str  # "equal" | "certified" | "obstructed" | "unknown"
    certificate: Certificate | None = None
    obstructions: tuple[ObstructionReport, ...] = ()
    passed: tuple[str, ...] = ()

    def rule_ids(self) -> tuple[str, ...]:
        if self.kind == "certified":
            return (self.certificate.rule_id,)
        if self.kind == "obstructed":
            return tuple(r.rule_id for r in self.obstructions)
        if self.kind == "unknown":
            return self.passed
        return ()

    def anchors(self) -> tuple[str, ...]:
        return tuple(ANCHORS[r] for r in self.rule_ids())

    def to_json_dict(self, pair: tuple[str, str]) -> dict:
        return {
            "pair": list(pair),
            "verdict": self.kind,
            "rules": list(self.rule_ids()),
            "anchors": list(self.anchors()),
        }


def _require_enriched(*records: KnotRecord) -> None:
    for record in records:
        if not record.enriched:
            raise CorpusError(f"{record.name}: record is not enriched")


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


def obstruction_scan(k1: KnotRecord, k2: KnotRecord) -> list[ObstructionReport]:
    """Necessary conditions for k1 >= k2 that are definitely violated."""
    _require_enriched(k1, k2)
    return _scan_obstructions(k1, k2)[0]


def rigidity_scan(k1: KnotRecord, k2: KnotRecord) -> list[ObstructionReport]:
    """Rules under which k1 >= k2 forces k1 = k2.  For distinct names each
    fired rule rules out strict domination."""
    _require_enriched(k1, k2)
    return _scan_rigidity(k1, k2)


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
    """First matching positive construction, in the order reflexivity,
    unknot target, satellite pattern, winding-one companion, connected
    sum.  `certified` optionally supplies known edges for pairing the
    summands of composite knots."""
    _require_enriched(k1, k2)
    return _search_certificate(k1, k2, frozenset(certified or ()))


def _search_certificate(k1: KnotRecord, k2: KnotRecord, certified: frozenset) -> Certificate | None:
    if k1.name == k2.name:
        return Certificate("C4_reflexive", (k1.name,))
    if k2.flags.unknot is True:
        return Certificate("C0_unknot", (k1.name, k2.name))
    if k1.satellite_of is not None:
        pattern, companion, winding = k1.satellite_of
        if pattern == k2.name:
            return Certificate("C2_satellite_pattern", (k1.name, k2.name))
        if companion == k2.name and winding == 1:
            return Certificate("C3_winding_one_companion", (k1.name, k2.name))
    if k1.connected_sum_of is not None and _summands_cover(
        k1.summands(), k2.summands(), certified
    ):
        return Certificate("C1_connected_sum", (k1.name, k2.name))
    return None


def _summands_cover(
    sum1: tuple[str, ...],
    sum2: tuple[str, ...],
    certified: frozenset[tuple[str, str]],
) -> bool:
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


def evaluate_pair(
    k1: KnotRecord,
    k2: KnotRecord,
    certified: frozenset[tuple[str, str]] | set | None = None,
) -> Verdict:
    """Verdict for the ordered query "does k1 1-dominate k2?".  Raises
    CorpusError when a certificate and an obstruction both fire, since
    then the corpus contradicts itself and neither verdict can stand."""
    _require_enriched(k1, k2)
    if k1.name == k2.name:
        return Verdict("equal")
    fired, passed = _scan_obstructions(k1, k2)
    fired += _scan_rigidity(k1, k2)
    certificate = _search_certificate(k1, k2, frozenset(certified or ()))
    if certificate is not None and fired:
        negative = sorted(r.rule_id for r in fired)
        raise CorpusError(
            f"contradiction: {k1.name} -> {k2.name} certified by {certificate.rule_id} "
            f"but obstructed by {negative}"
        )
    if fired:
        return Verdict("obstructed", obstructions=tuple(fired))
    if certificate is not None:
        return Verdict("certified", certificate=certificate)
    return Verdict("unknown", passed=tuple(passed))
