"""Corpus ingestion: knot records combining diagram data, declared
metadata, and computed invariants.

Records come from a JSON file (one top-level array of objects, field
names as in KnotRecord).  Loading checks only the structure: each
record's name, references, mutant class and `flags.unknot`
(`record_shape`), then names, connected sums and mutant classes across
records.  A read walks from the records asked for to the records they
reference, which rejects a circular reference, then parses every record
walked (`record_from_json` checks its fields and the PD, braid and
polynomial syntax), then enriches each after the records it references,
which rejects a dangling reference: its invariants are computed and its
declared values cross-checked against them, so a record whose declared
Alexander or Jones polynomial disagrees with its diagram, braid, or
composite construction is rejected before any output reads it.  Reading
every record (`Corpus.records`) checks them all.  Every error about one
record starts with its name, once.  Class flags are tri-state: True,
False, or None for unknown; unknown never drives a downstream rule.
"""
from __future__ import annotations

import json
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .alexander import (
    alexander_polynomial,
    braid_alexander_polynomial,
    connected_sum_delta,
    determinant_invariant,
    jones_polynomial,
    satellite_delta,
)
from .diagram import BraidWord, PDCode, braid_to_pd, parse_braid, parse_pd, seifert_circles
from .laurent import LaurentPoly, _Frozen, format_poly, parse_poly


class CorpusError(ValueError):
    """Raised for schema violations, dangling references, or declared
    values that contradict computed ones."""


class Flags(NamedTuple):
    """Tri-state knot class flags; None means unknown."""

    alternating: bool | None = None
    toroidally_alternating: bool | None = None
    fibred: bool | None = None
    two_bridge: bool | None = None
    montesinos: bool | None = None
    small: bool | None = None
    free: bool | None = None
    simple: bool | None = None
    unknot: bool | None = None
    no_winding_zero_companion: bool | None = None
    hyperbolic: bool | None = None
    lo_double_cover: bool | None = None
    lspace_double_cover: bool | None = None

    def as_dict(self) -> dict[str, bool]:
        return {name: v for name, v in self._asdict().items() if v is not None}


class KnotRecord(NamedTuple):
    """One knot: input data, declared metadata, and computed invariants.

    On an enriched record `jones` is the declared Jones polynomial, checked
    against V(1) = 1 and |V(-1)| = det and against the diagram's, when
    `jones_polynomial` computes one; it is None when none was declared,
    since no rule reads it.  `record_jones(record)` computes it."""

    name: str
    diagram: PDCode | None = None
    braid: BraidWord | None = None
    delta: LaurentPoly | None = None
    determinant: int | None = None
    jones: LaurentPoly | None = None
    genus_lower: int | None = None
    genus_upper: int | None = None
    genus_exact: int | None = None
    ghat: int | None = None
    volume: str | None = None
    flags: Flags = Flags()
    sum_of_simple: bool | None = None
    mutant_class: str | None = None
    connected_sum_of: tuple[str, ...] | None = None
    satellite_of: tuple[str, str, int] | None = None
    enriched: bool = False

    def summands(self) -> tuple[str, ...]:
        """Prime decomposition as recorded: a record without
        connected_sum_of counts as the singleton multiset of itself."""
        return self.connected_sum_of if self.connected_sum_of else (self.name,)

    def references(self) -> tuple[str, ...]:
        """Names this record is built from: its summands, then the
        pattern and the companion of a satellite."""
        return (self.connected_sum_of or ()) + (self.satellite_of[:2] if self.satellite_of else ())


def _require_enriched(*records: KnotRecord) -> None:
    for record in records:
        if not record.enriched:
            raise CorpusError(f"{record.name}: record is not enriched")


class Corpus(_Frozen):
    """Name-indexed knot records, each enriched on its first read
    (`_enrich`).  A record given as its shape (`record_shape`), with its
    JSON object in `raw` under its name, is parsed in that read.  What is
    given is kept as given, but a duplicate name raises CorpusError.
    `records` and iteration read every record and list them in input
    order; equality compares them.  Records given already enriched are
    kept as they are."""

    __slots__ = ("_declared", "_raw", "_enriched")

    def __init__(self, records: Iterable[KnotRecord], raw: dict[str, dict] | None = None) -> None:
        declared: dict[str, KnotRecord] = {}
        for record in records:
            if record.name in declared:
                raise CorpusError(f"duplicate record name {record.name!r}")
            declared[record.name] = record
        object.__setattr__(self, "_declared", declared)
        object.__setattr__(self, "_raw", dict(raw or {}))
        object.__setattr__(self, "_enriched", {r.name: r for r in declared.values() if r.enriched})

    @property
    def records(self) -> tuple[KnotRecord, ...]:
        self._enrich(self._declared)
        return tuple(self._enriched[name] for name in self._declared)

    def _key(self) -> tuple:
        return self.records

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self._declared)

    def __contains__(self, name: str) -> bool:
        return name in self._declared

    def get(self, name: str) -> KnotRecord:
        """The enriched record."""
        try:
            return self._enriched[name]
        except KeyError:
            self.declared(name)  # an unknown name raises
            self._enrich([name])
            return self._enriched[name]

    def declared(self, name: str) -> KnotRecord:
        """The record as given: the shape of one given with its JSON
        object.  Its name and references are those of the enriched record,
        and so is a true `flags.unknot`."""
        try:
            return self._declared[name]
        except KeyError:
            raise CorpusError(f"unknown knot name {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._declared)

    def _enrich(self, roots: Iterable[str]) -> None:
        """The one read of records: walk from `roots` to the records they
        reach that are not enriched (the one check that references are not
        circular), parse those given with a JSON object, then enrich each
        after its references.  So every syntax error of a read comes
        before any enrichment error, and a failed read fails again the
        same way.  Concurrent reads share nothing but `_enriched`, and
        store equal values in it."""
        declared, raw, enriched = self._declared, self._raw, self._enriched
        order, cycle = _walk(
            [name for name in roots if name not in enriched],
            lambda name: [r for r in declared[name].references() if r in declared and r not in enriched],
        )
        if cycle is not None:
            raise CorpusError(f"circular composite references among {sorted(cycle[1:])}")
        # Parse as one batch: a parse before each enrichment was measurably slower.
        parsed = [record_from_json(raw[name], declared[name]) if name in raw else declared[name] for name in order]
        for record in parsed:
            enriched[record.name] = enrich_record(record, enriched)


def normalize_volume(text: str) -> str:
    """Volumes are trusted metadata compared at fixed precision 1e-8: a
    finite, nonnegative decimal string, with -0 read as 0."""
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise CorpusError(f"volume {text!r} is not a decimal string") from exc
    if not value.is_finite():
        raise CorpusError(f"volume {text!r} is not finite")
    if value < 0:
        raise CorpusError(f"volume {text!r} is negative")
    try:
        value = value.quantize(Decimal("0.00000001"))
    except InvalidOperation as exc:  # more digits than the context holds
        raise CorpusError(f"volume {text!r} is out of range") from exc
    return format(value.copy_abs(), "f")


_RECORD_KEYS = set(KnotRecord._fields) - {"enriched"}


def _field(obj: dict, key: str, kind: type):
    value = obj.get(key)
    if value is not None and not isinstance(value, kind):
        raise CorpusError(f"field {key!r} has the wrong type")
    return value


def record_shape(obj: dict) -> KnotRecord:
    """What loading checks of a corpus entry: that it is an object with a
    name, and its references, mutant class and `flags.unknot`, which the
    corpus-wide checks and `poset.build_graph` read.  The record holds only
    these; `record_from_json` checks and parses the rest."""
    if not isinstance(obj, dict):
        raise CorpusError(f"corpus entry is not an object: {obj!r}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise CorpusError(f"record is missing a name: {obj!r}")
    try:
        unknot = (_field(obj, "flags", dict) or {}).get("unknot")
        if unknot is not None and not isinstance(unknot, bool):
            raise CorpusError(f"flag 'unknot' must be true or false, not {unknot!r}")

        connected_sum_of = None
        if (summands := obj.get("connected_sum_of")) is not None:
            if not isinstance(summands, list) or len(summands) < 2 or not all(isinstance(s, str) for s in summands):
                raise CorpusError("connected_sum_of must list at least two names")
            connected_sum_of = tuple(summands)

        satellite_of = None
        if (sat := obj.get("satellite_of")) is not None:
            if (
                not isinstance(sat, list) or len(sat) != 3
                or not isinstance(sat[0], str) or not isinstance(sat[1], str)
                or not isinstance(sat[2], int) or isinstance(sat[2], bool) or sat[2] < 0
            ):
                raise CorpusError("satellite_of must be [pattern, companion, winding >= 0]")
            satellite_of = (sat[0], sat[1], sat[2])

        return KnotRecord(
            name=name,
            flags=Flags(unknot=unknot),
            mutant_class=_field(obj, "mutant_class", str),
            connected_sum_of=connected_sum_of,
            satellite_of=satellite_of,
        )
    except ValueError as exc:
        raise CorpusError(f"{name}: {exc}") from exc


def record_from_json(obj: dict, shape: KnotRecord | None = None) -> KnotRecord:
    """A corpus entry checked and parsed: its shape (`record_shape`), the
    field names, the PD, braid and polynomial text, the flags,
    `sum_of_simple` and the integer fields.  The volume is kept as
    written; enrichment normalizes it.  A `shape` that `record_shape`
    already gave for obj is taken as it is."""
    if shape is None:
        shape = record_shape(obj)
    try:
        unknown = set(obj) - _RECORD_KEYS
        if unknown:
            raise CorpusError(f"unknown record fields {sorted(unknown)}")
        diagram = braid = None
        if (pd_text := _field(obj, "diagram", str)) is not None:
            diagram = parse_pd(pd_text)
        if (braid_text := _field(obj, "braid", str)) is not None:
            braid = parse_braid(braid_text)

        def poly(key):
            text = _field(obj, key, str)
            if text is None:
                return None
            try:
                return parse_poly(text)
            except ValueError as exc:
                raise CorpusError(f"bad polynomial in {key!r}: {exc}") from exc

        flags_obj = obj.get("flags") or {}
        for key, value in flags_obj.items():
            if key not in Flags._fields:
                raise CorpusError(f"unknown flag {key!r}")
            if not isinstance(value, bool):
                raise CorpusError(f"flag {key!r} must be true or false, not {value!r}")

        sum_of_simple = obj.get("sum_of_simple")
        if sum_of_simple is not None and not isinstance(sum_of_simple, bool):
            raise CorpusError("sum_of_simple must be true or false")

        def integer(key):
            value = obj.get(key)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool) or value < 0):
                raise CorpusError(f"field {key!r} must be a nonnegative integer")
            return value

        return shape._replace(
            diagram=diagram,
            braid=braid,
            delta=poly("delta"),
            determinant=integer("determinant"),
            jones=poly("jones"),
            genus_lower=integer("genus_lower"),
            genus_upper=integer("genus_upper"),
            genus_exact=integer("genus_exact"),
            ghat=integer("ghat"),
            volume=_field(obj, "volume", str),
            flags=Flags(**flags_obj),
            sum_of_simple=sum_of_simple,
        )
    except ValueError as exc:
        raise CorpusError(f"{shape.name}: {exc}") from exc


# Implications applied as a monotone closure over definite flags.  Each
# pair (antecedent, consequent) upgrades unknown to True and reports a
# contradiction when the consequent is already False.  Every flag's own
# implications come before any pair that reads it, so one pass in this
# order reaches the closure.
_IMPLICATIONS = (
    ("unknot", "fibred"),
    ("unknot", "free"),
    ("unknot", "small"),
    ("two_bridge", "alternating"),
    ("two_bridge", "small"),
    ("fibred", "free"),
    ("small", "free"),
)


def close_flags(flags: Flags) -> Flags:
    values = flags._asdict()
    for antecedent, consequent in _IMPLICATIONS:
        if values[antecedent] is True:
            if values[consequent] is False:
                raise CorpusError(f"flag contradiction: {antecedent} implies {consequent}")
            values[consequent] = True
    return Flags(**values)


def _merge(what: str, declared, computed):
    """Declared and computed values must agree exactly when both exist."""
    if declared is not None and computed is not None and declared != computed:
        shown_d = format_poly(declared) if isinstance(declared, LaurentPoly) else declared
        shown_c = format_poly(computed) if isinstance(computed, LaurentPoly) else computed
        raise CorpusError(f"declared {what} {shown_d} != computed {shown_c}")
    return computed if computed is not None else declared


def check_jones(jones: LaurentPoly, determinant: int) -> LaurentPoly:
    """Return `jones` when it satisfies V(1) = 1 and |V(-1)| = det."""
    at_one, at_minus_one = jones.eval_int(1), abs(jones.eval_int(-1))
    if at_one != 1:
        raise CorpusError(f"jones(1) = {at_one}, expected 1")
    if at_minus_one != determinant:
        raise CorpusError(f"|jones(-1)| = {at_minus_one} != determinant {determinant}")
    return jones


def record_jones(record: KnotRecord) -> LaurentPoly | None:
    """The declared Jones polynomial of an enriched record, else its
    diagram's as `jones_polynomial` computes it and `check_jones` checks
    it, else None."""
    if record.jones is not None or record.diagram is None or (jones := jones_polynomial(record.diagram)) is None:
        return record.jones
    try:
        return check_jones(jones, record.determinant)
    except ValueError as exc:
        raise CorpusError(f"{record.name}: {exc}") from exc


def enrich_record(record: KnotRecord, siblings: dict[str, KnotRecord] | None = None) -> KnotRecord:
    """Fill computed invariants, cross-check declared data, and close the
    flag implications.  A record gives at most one of a diagram and a
    braid; enrichment adds a braid's diagram.  Composite records
    (connected sums, satellites) need their referenced siblings already
    enriched.  A declared Jones polynomial is cross-checked; a record
    that declares none keeps None."""
    siblings = siblings or {}
    try:
        diagram, delta = record.diagram, record.delta
        if diagram is not None and record.braid is not None and not record.enriched:
            raise CorpusError("gives both a diagram and a braid, expected at most one")
        if diagram is not None:
            delta = _merge("delta", delta, alexander_polynomial(diagram))
        elif record.braid is not None:
            diagram = braid_to_pd(record.braid)
            delta = _merge("delta", delta, braid_alexander_polynomial(record.braid))
        if record.connected_sum_of is not None:
            summands = [_sibling(siblings, summand).delta for summand in record.connected_sum_of]
            delta = _merge("delta (connected sum)", delta, connected_sum_delta(*summands))
        if record.satellite_of is not None:
            pattern, companion, winding = record.satellite_of
            composite = satellite_delta(
                _sibling(siblings, pattern).delta,
                _sibling(siblings, companion).delta,
                winding,
            )
            delta = _merge("delta (satellite)", delta, composite)
        if delta is None:
            raise CorpusError("metadata-only record must declare delta")
        if delta != delta.normalize():
            raise CorpusError("declared delta must be normalized")
        if abs(delta.eval_int(1)) != 1:
            raise CorpusError(f"delta(1) = {delta.eval_int(1)}, expected +-1")
        coeffs = delta.coefficients()
        top = delta.max_degree
        # Past this check top is even: an odd top pairs every coefficient with
        # its mirror, so delta(1) would be even and has been rejected above.
        if any(coeffs.get(top - e) != c for e, c in delta.terms):
            raise CorpusError(f"delta {format_poly(delta)} is not palindromic")

        determinant = _merge("determinant", record.determinant, determinant_invariant(delta))

        jones = record.jones
        if jones is not None:
            if diagram is not None:
                jones = _merge("jones", jones, jones_polynomial(diagram))
            check_jones(jones, determinant)

        genus_lower = _merge("genus_lower", record.genus_lower, top // 2)

        genus_upper = record.genus_upper
        if diagram is not None:
            genus_upper = _merge("genus_upper", genus_upper, seifert_circles(diagram)[1])

        genus_exact = record.genus_exact
        if genus_exact is None and genus_upper is not None and genus_lower == genus_upper:
            genus_exact = genus_lower

        flags = record.flags
        if not delta.is_one() and flags.unknot is None:
            flags = flags._replace(unknot=False)
        if flags.unknot is True:
            if not delta.is_one():
                raise CorpusError(f"unknot flag with delta {format_poly(delta)}")
            genus_exact = _merge("genus_exact", genus_exact, 0)
        flags = close_flags(flags)

        ghat = record.ghat
        if (flags.fibred is True or flags.two_bridge is True) and genus_exact is not None:
            ghat = _merge("ghat", ghat, genus_exact)
        if flags.fibred is True and delta.leading_coefficient != 1:
            raise CorpusError(
                f"fibred knots have monic delta, got leading coefficient {delta.leading_coefficient}"
            )

        if genus_exact is not None:
            if genus_lower > genus_exact:
                raise CorpusError(f"genus_lower {genus_lower} > genus_exact {genus_exact}")
            if genus_upper is not None and genus_exact > genus_upper:
                raise CorpusError(f"genus_exact {genus_exact} > genus_upper {genus_upper}")
            if ghat is not None and ghat < genus_exact:
                raise CorpusError(f"ghat {ghat} < genus_exact {genus_exact}")
        elif genus_upper is not None and genus_lower > genus_upper:
            raise CorpusError(f"genus_lower {genus_lower} > genus_upper {genus_upper}")

        volume = normalize_volume(record.volume) if record.volume is not None else None

        return record._replace(
            diagram=diagram,
            delta=delta,
            determinant=determinant,
            jones=jones,
            genus_lower=genus_lower,
            genus_upper=genus_upper,
            genus_exact=genus_exact,
            ghat=ghat,
            volume=volume,
            flags=flags,
            enriched=True,
        )
    except ValueError as exc:
        raise CorpusError(f"{record.name}: {exc}") from exc


def _sibling(siblings: dict[str, KnotRecord], ref: str) -> KnotRecord:
    other = siblings.get(ref)
    if other is None:
        raise CorpusError(f"dangling cross-reference to {ref!r}")
    if not other.enriched or other.delta is None:
        raise CorpusError(f"referenced record {ref!r} is not enriched")
    return other


def genus_interval(record: KnotRecord) -> tuple[int, int | None]:
    """[exact, exact] when the genus is known; otherwise the
    [degree-bound, diagram-bound] interval, unbounded above for
    metadata-only records."""
    _require_enriched(record)
    if record.genus_exact is not None:
        return record.genus_exact, record.genus_exact
    return record.genus_lower, record.genus_upper


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus file and check its structure (`record_shape` and
    `build_corpus`); each record is parsed, its references checked and
    itself enriched on first read.  A file that cannot be read or
    decoded as JSON raises CorpusError naming the file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CorpusError(f"corpus file not found: {path}") from exc
    except OSError as exc:
        raise CorpusError(f"corpus file {path} cannot be read: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
        raise CorpusError(f"corpus file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise CorpusError(f"corpus file {path} must hold a top-level array")
    shapes = [record_shape(obj) for obj in data]
    return build_corpus(shapes, {shape.name: obj for shape, obj in zip(shapes, data)})


def build_corpus(records: list[KnotRecord], raw: dict[str, dict] | None = None) -> Corpus:
    """Build the `Corpus`, which rejects duplicate names, then check what
    no first read can: no two names for one connected sum, no mutant
    class of one record.  The references, enrichment, and the parse of
    the records given as shapes with their JSON objects in `raw` (see
    `Corpus`) wait for the first read of each record."""
    corpus = Corpus(records, raw)
    # Two names for one summand multiset are one knot, and each would
    # certify the other by connected-sum projection.
    sums: dict[tuple[str, ...], str] = {}
    mutant_members: dict[str, int] = {}
    for record in records:
        if record.connected_sum_of is not None:
            key = tuple(sorted(record.connected_sum_of))
            if key in sums:
                raise CorpusError(
                    f"{sums[key]} and {record.name} are both the connected sum of {' # '.join(key)}"
                )
            sums[key] = record.name
        if record.mutant_class is not None:
            mutant_members[record.mutant_class] = mutant_members.get(record.mutant_class, 0) + 1
    for label, count in mutant_members.items():
        if count < 2:
            raise CorpusError(f"mutant class {label!r} has no peer record")
    return corpus


def _walk(roots: Iterable[str], children: Callable[[str], Iterable[str]]) -> tuple[list[str], list[str] | None]:
    """Depth first from each root in the given order: the nodes reached,
    each after its children (a post-order), and the first cycle met, as
    [v, ..., v], or None.  The walk stops at that cycle.  It keeps an
    explicit stack, so deep graphs do not hit the recursion limit."""
    ON_PATH, DONE = 1, 2
    state: dict[str, int] = {}
    order: list[str] = []
    for root in roots:
        if root in state:
            continue
        state[root] = ON_PATH
        path = [root]
        pending = [iter(children(root))]  # per path node, its unvisited children
        while pending:
            for nxt in pending[-1]:
                if state.get(nxt) == ON_PATH:
                    return order, path[path.index(nxt):] + [nxt]
                if nxt not in state:
                    state[nxt] = ON_PATH
                    path.append(nxt)
                    pending.append(iter(children(nxt)))
                    break
            else:
                order.append(path.pop())
                state[order[-1]] = DONE
                pending.pop()
    return order, None
