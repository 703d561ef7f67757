"""The pair-query rule engine.

For an ordered pair of enriched records (k1, k2) the engine reports:

  - obstructions: necessary conditions for k1 >= k2 that fail outright
    (divisibility of Alexander polynomials and determinants, monotonicity
    of genus, Gromov volume and maximal incompressible genus, class
    closure for 2-bridge / Montesinos / sums of simple knots / free
    knots, left-orderability of double branched covers, mutation);
  - rigidity rules: invariant equalities under which any domination
    collapses to equality, so distinct names cannot strictly dominate.

The obstruction and rigidity rules are the ordered `(rule_id, anchor,
test)` entries of `OBSTRUCTIONS` and `RIGIDITY`, read by one loop, `scan`.
`test(k1, k2)` returns the detail when the rule fires, "" when it passes
(a rigidity rule never passes) and None when an input is unknown, so
every rule is sound under unknown metadata.  Every report carries a
provenance anchor naming the result it implements; the anchors are
stable strings used in serialized output.  `ANCHORS` maps each rule id
to its anchor: the tables' in order, then the certificates', which
`knotdom.poset.build_graph` builds from the record structure it reads.
"""
from __future__ import annotations

from decimal import Decimal
from operator import attrgetter
from typing import NamedTuple

from .knotbase import Flags, KnotRecord, _require_enriched, genus_interval
from .laurent import divides, format_poly, is_prime_power


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

    def to_json_dict(self, pair: tuple[str, str]) -> dict:
        return {
            "pair": list(pair),
            "verdict": self.kind,
            "rules": list(self.rule_ids()),
            "anchors": [ANCHORS[r] for r in self.rule_ids()],
        }


def _o1_alexander(k1: KnotRecord, k2: KnotRecord) -> str:
    """Prop. 6.1: k1 >= k2 forces Delta(k2) | Delta(k1) up to units.
    `divides` decides it by one integer remainder, or for a dividend long
    for its divisor by a remainder mod p and then long division."""
    if divides(k2.delta, k1.delta):
        return ""
    return f"{format_poly(k2.delta)} does not divide {format_poly(k1.delta)}"


def _o2_genus(k1: KnotRecord, k2: KnotRecord) -> str | None:
    upper1, lower2 = genus_interval(k1)[1], genus_interval(k2)[0]
    if upper1 is None:
        return None
    return f"genus at most {upper1} is below genus at least {lower2}" if upper1 < lower2 else ""


def _o3_determinant(k1: KnotRecord, k2: KnotRecord) -> str:
    return f"{k2.determinant} does not divide {k1.determinant}" if k1.determinant % k2.determinant else ""


def _o4_volume(k1: KnotRecord, k2: KnotRecord) -> str | None:
    if k1.volume is None or k2.volume is None:
        return None
    return f"volume {k1.volume} is below volume {k2.volume}" if Decimal(k1.volume) < Decimal(k2.volume) else ""


def _closure(field1: str, field2: str, value: bool, unknot_exempt: bool = False):
    """The test of a class closure: k1 with field1 == value forces k2 to
    have field2 == value, except for the unknot when `unknot_exempt`.  A
    field is a class flag or the record's `sum_of_simple`."""
    read1, read2 = (attrgetter(f"flags.{f}" if f in Flags._fields else f) for f in (field1, field2))

    def test(k1: KnotRecord, k2: KnotRecord) -> str | None:
        own = read1(k1)
        if own is None:
            return None
        if own is not value or (unknot_exempt and k2.flags.unknot is True):
            return ""
        other = read2(k2)
        if other is None:
            return None
        return "" if other is value else f"{field1}={value} vs {field2}={other}"

    return test


def _o9_ghat(k1: KnotRecord, k2: KnotRecord) -> str | None:
    if k1.ghat is None or k2.ghat is None:
        return None
    return f"maximal incompressible genus {k1.ghat} is below {k2.ghat}" if k1.ghat < k2.ghat else ""


def _o11_mutation(k1: KnotRecord, k2: KnotRecord) -> str | None:
    if k1.name == k2.name or k1.mutant_class is None or k2.mutant_class is None:
        return None
    return f"mutant_class {k1.mutant_class!r} vs {k2.mutant_class!r}" if k1.mutant_class == k2.mutant_class else ""


def _same_genus(k1: KnotRecord, k2: KnotRecord) -> bool:
    return k1.genus_exact is not None and k1.genus_exact == k2.genus_exact


def _same_volume(k1: KnotRecord, k2: KnotRecord) -> bool:
    return k1.volume is not None and k1.volume == k2.volume


def _alternating_prime_power(record: KnotRecord) -> bool:
    """Alternating with a prime-power leading coefficient of Delta."""
    return record.flags.alternating is True and is_prime_power(abs(record.delta.leading_coefficient))


def _r1_genus_volume(k1: KnotRecord, k2: KnotRecord) -> str | None:
    no_winding_zero = k1.flags.no_winding_zero_companion is True and k1.flags.unknot is False
    if no_winding_zero and _same_genus(k1, k2) and _same_volume(k1, k2):
        return f"no winding-zero companion, equal genus {k1.genus_exact}, equal volume {k1.volume}"
    return None


def _r2_fibred_genus(k1: KnotRecord, k2: KnotRecord) -> str | None:
    if k1.flags.fibred is True and _same_genus(k1, k2):
        return f"fibred dominator with equal genus {k1.genus_exact}"
    return None


def _r3_nilpotent_degree(k1: KnotRecord, k2: KnotRecord) -> str | None:
    degree = k1.delta.max_degree
    if degree == k2.delta.max_degree and (
        k1.flags.two_bridge is True or k1.flags.fibred is True or _alternating_prime_power(k1)
    ):
        return f"transfinitely p-nilpotent dominator, equal Alexander degree {degree}"
    return None


def _r4_free_ghat(k1: KnotRecord, k2: KnotRecord) -> str | None:
    if k1.flags.free is True and k1.ghat is not None and k1.ghat == k2.ghat:
        return f"free dominator with equal maximal incompressible genus {k1.ghat}"
    return None


def _r5_mutant_double_cover(k1: KnotRecord, k2: KnotRecord) -> str | None:
    if k1.name != k2.name and k1.mutant_class is not None and k1.mutant_class == k2.mutant_class:
        return f"equal double branched covers: mutant class {k1.mutant_class!r}"
    return None


def _r6_hyperbolic_volume(k1: KnotRecord, k2: KnotRecord) -> str | None:
    if k1.flags.hyperbolic is True and k2.flags.hyperbolic is True and _same_volume(k1, k2):
        return f"both hyperbolic with equal volume {k1.volume}"
    return None


OBSTRUCTIONS = (
    ("O1_alexander", "Prop. 6.1", _o1_alexander),
    ("O2_genus", "Prop. 1.4", _o2_genus),
    ("O3_determinant", "Thm. 3.1(1)", _o3_determinant),
    ("O4_volume", "Prop. 1.5", _o4_volume),
    ("O5_two_bridge", "Prop. 3.6(1)", _closure("two_bridge", "two_bridge", True, unknot_exempt=True)),
    ("O6_montesinos", "Prop. 3.6(2)", _closure("montesinos", "montesinos", True, unknot_exempt=True)),
    ("O7_ap_class", "Cor. 4.2", _closure("toroidally_alternating", "sum_of_simple", True)),
    ("O8_free", "Prop. 5.6(1)", _closure("free", "free", True)),
    ("O9_ghat", "Prop. 5.6(3)", _o9_ghat),
    ("O10_orderability", "Cor. 3.5", _closure("lo_double_cover", "lo_double_cover", False)),
    ("O11_mutation", "Cor. 3.2", _o11_mutation),
)
RIGIDITY = (
    ("R1_genus_volume", "Thm. 2.4", _r1_genus_volume),
    ("R2_fibred_genus", "Sec. 2, rigidity (2)", _r2_fibred_genus),
    ("R3_nilpotent_degree", "Prop. 6.8", _r3_nilpotent_degree),
    ("R4_free_ghat", "Prop. 5.6(3)", _r4_free_ghat),
    ("R5_mutant_double_cover", "Thm. 3.1(2)", _r5_mutant_double_cover),
    ("R6_hyperbolic_volume", "Sec. 2, rigidity (1)", _r6_hyperbolic_volume),
)
ANCHORS = {rule_id: anchor for rule_id, anchor, _ in OBSTRUCTIONS + RIGIDITY} | {
    "C0_unknot": "Prop. 1.1",
    "C1_connected_sum": "Prop. 1.2",
    "C2_satellite_pattern": "Prop. 2.1",
    "C3_winding_one_companion": "Sec. 6, winding-one cabling",
    "C5_transitive": "Sec. 1, partial order (transitivity)",
}


def scan(k1: KnotRecord, k2: KnotRecord) -> tuple[list[ObstructionReport], list[str]]:
    """Evaluate `OBSTRUCTIONS` then `RIGIDITY` in order; return (fired,
    passed).  A rule with an unknown input lands in neither list."""
    _require_enriched(k1, k2)
    fired: list[ObstructionReport] = []
    passed: list[str] = []
    for rule_id, _, test in OBSTRUCTIONS + RIGIDITY:
        detail = test(k1, k2)
        if detail:
            fired.append(ObstructionReport(rule_id, detail))
        elif detail is not None:
            passed.append(rule_id)
    return fired, passed
