"""Seeded inputs for the two benchmark workloads.

The same (workload, seed) always gives byte-identical inputs.  The
program sees only what this module writes: diagram text for ad-hoc
`invariants` calls and a corpus JSON file.  Every Alexander polynomial the
generator needs or declares comes from knots.py (Burau), never from
knotdom, so a corpus load cross-checks the program against an independent
computation.

    python3 bench/corpus_gen.py --workload poset-scan --seed 3 --out corpus.json
"""
from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from decimal import Decimal

from knots import (
    alexander_of_braid,
    braid_pd_text,
    braid_text,
    p_format,
    p_mul,
    p_normalize,
    p_substitute_power,
    random_knot_word,
    torus2_delta,
)

WORKLOADS = ("pd-invariants", "poset-scan")

# pd-invariants crossing mix: crossings -> diagrams per pass.  The bracket
# doubles per crossing, so counts taper towards 10; the 25-40 tail is over
# the 24-crossing Jones budget and costs Fox/Bareiss on PD input only.
# Ranked by cost, the median falls inside the 9-crossing class (diagrams
# 47-70 of 114) and p90 inside the tail's block of eight 25- and
# 26-crossing diagrams (diagrams 99-106), on its 4th and 5th: the ranks sit
# inside classes, not on a boundary between two, so the percentiles do not
# jump with the seed.  Fox/Bareiss on a random 26-crossing diagram costs
# from 0.1 to 0.2 s and the bracket at 10 crossings at most 0.06 s; at 11 or
# 12 crossings the bracket (0.1 and 0.25 s) would rank among the tail.
# Tail diagrams have even crossings, so they come from 3-braids, whose cost
# varies less from word to word than that of 4-braids.
PD_SMALL_MIX = {6: 14, 7: 16, 8: 16, 9: 24, 10: 28}
PD_TAIL = {25: 1, 26: 7, 28: 2, 30: 1, 32: 1, 34: 1, 36: 1, 38: 1, 40: 1}
# One torus knot replaces a random diagram at these crossing counts:
# T(2,k) at k crossings, T(3,k) at 2k crossings (3 does not divide k).
TORUS2_AT = (7, 9, 25)
TORUS3_AT = (8, 10, 26, 34)

# The bundled corpus (used by pd-invariants for the corpus commands): the
# record looked up by name and the one with the longest certified chain.
BUNDLED_LOOKUP = "ks_cable23_of_4_1"
BUNDLED_CHAIN = "granny"

# Primes need pairwise distinct Alexander polynomials (so each is a distinct
# knot); braids of at most 9 crossings offer only about 45 of them.
# Fixed shape, so that seeds differ only in words and drawn metadata:
# (strands, crossings) -> primes, satellites with windings 0, 1, 2 in turn,
# and every third connected sum with three summands.  The pair scan grows
# faster than N^2: at N = 95 a poset call costs about 2.5 s (4 s at 125),
# short enough for two calls per pass, so that a change of host speed
# during one call does not move the median of a run.
# (strands, crossings, degree of Delta) -> primes.  Satellites take
# companions of degree at most 4, and three-summand sums take primes only,
# which bounds the largest Delta and so the cost of the costliest pairs.
POSET_PRIME_MIX = {
    (3, 6, 2): 2, (4, 7, 2): 2,
    (3, 6, 4): 2, (3, 8, 4): 4, (4, 7, 4): 2, (4, 9, 4): 5,
    (3, 8, 6): 5, (4, 9, 6): 8,
}
POSET_MUTANT_PAIRS = 2
POSET_SATELLITES = 20
POSET_SUMS = 40


@dataclass(frozen=True)
class Diagram:
    """One ad-hoc `invariants` input with what an independent computation
    says its output must contain."""

    text: str
    crossings: int
    writhe: int
    strands: int
    delta: str


@dataclass
class Workload:
    name: str
    diagrams: list[Diagram]
    corpus: list[dict] | None  # None: the bundled corpus
    lookup: str  # record loaded by `invariants <name>`
    chain_name: str  # record with the longest certified chain
    chain_length: int  # its strict length, known from the construction

    def corpus_text(self) -> str:
        return json.dumps(self.corpus, indent=1) + "\n"


def _diagram(strands: int, word: list[int], as_pd: bool, torus2: int | None = None) -> Diagram:
    text = braid_pd_text(strands, word) if as_pd else braid_text(strands, word)
    delta = torus2_delta(torus2) if torus2 else alexander_of_braid(strands, tuple(word))
    return Diagram(text, len(word), sum(1 if x > 0 else -1 for x in word), strands, p_format(delta))


def _random_knot(rng: random.Random, crossings: int) -> tuple[int, list[int]]:
    """3-braid for an even crossing count, 4-braid for an odd one."""
    strands = 3 if crossings % 2 == 0 else 4
    return strands, random_knot_word(rng, strands, crossings)


def pd_invariants(seed: int) -> Workload:
    rng = random.Random(f"pd-invariants/{seed}")
    diagrams = []
    for crossings, count in {**PD_SMALL_MIX, **PD_TAIL}.items():
        for slot in range(count):
            if slot == 0 and crossings in TORUS2_AT:
                diagrams.append(_diagram(2, [1] * crossings, as_pd=True, torus2=crossings))
            elif slot == 0 and crossings in TORUS3_AT:
                diagrams.append(_diagram(3, [1, 2] * (crossings // 2), as_pd=True))
            else:
                diagrams.append(_diagram(*_random_knot(rng, crossings), as_pd=True))
    rng.shuffle(diagrams)
    return Workload("pd-invariants", diagrams, None, BUNDLED_LOOKUP, BUNDLED_CHAIN, 2)


# -- corpus records -------------------------------------------------------------

def _record(name: str, **fields) -> dict:
    return {"name": name, **{k: v for k, v in fields.items() if v is not None}}


# -- poset-scan: metadata drawn monotone along every certificate -----------------

_TRI = (True, False, None)


def _and3(values) -> bool | None:
    values = list(values)
    if any(v is False for v in values):
        return False
    return True if all(v is True for v in values) else None


def _volume(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.8f}"


def _prime_meta(rng: random.Random, strands: int, word: list[int], delta: dict) -> dict:
    """Tri-state metadata for a braid prime, consistent with the program's
    load-time checks: flag implications, monic delta for fibred knots,
    genus_lower <= genus_exact <= Seifert bound, ghat >= genus."""
    lower = max(delta) // 2
    monic = delta[max(delta)] == 1
    flags = {name: rng.choice(_TRI) for name in (
        "alternating", "toroidally_alternating", "fibred", "two_bridge", "montesinos",
        "small", "free", "simple", "no_winding_zero_companion", "hyperbolic",
        "lo_double_cover", "lspace_double_cover",
    )}
    if not monic:
        flags["fibred"] = False
    if flags["two_bridge"]:
        flags["alternating"] = flags["small"] = True
    if flags["small"] or flags["fibred"]:
        flags["free"] = True
    flags["unknot"] = False
    seifert_bound = (len(word) - strands + 1) // 2  # a closed braid has `strands` Seifert circles
    genus_exact = lower if lower == seifert_bound or rng.random() < 0.6 else None
    if genus_exact is not None and (flags["fibred"] or flags["two_bridge"]):
        ghat = genus_exact if rng.random() < 0.5 else None
    elif rng.random() < 0.6:
        ghat = (genus_exact or lower) + rng.randint(0, 1)
    else:
        ghat = None
    if flags["hyperbolic"] is True:
        volume = _volume(rng, 2.0, 20.0)
    elif flags["hyperbolic"] is False:
        volume = "0.00000000" if rng.random() < 0.7 else None
    else:
        volume = _volume(rng, 2.0, 20.0) if rng.random() < 0.5 else None
    return {
        "braid": braid_text(strands, word),
        "delta": p_format(delta),
        "genus_exact": genus_exact,
        "ghat": ghat,
        "volume": volume,
        "flags": {k: v for k, v in flags.items() if v is not None},
        "sum_of_simple": flags["simple"],
    }


def _sum_of(values) -> int | str | None:
    values = list(values)
    if any(v is None for v in values):
        return None
    if isinstance(values[0], str):
        return format(sum(Decimal(v) for v in values), "f")
    return sum(values)


def poset_scan(seed: int) -> Workload:
    rng = random.Random(f"poset-scan/{seed}")
    records: dict[str, dict] = {}
    deltas: dict[str, dict] = {}
    records["unknot"] = _record(
        "unknot", delta="1", genus_exact=0, ghat=0, volume="0.0",
        flags={"unknot": True, "hyperbolic": False}, sum_of_simple=True,
    )
    deltas["unknot"] = {0: 1}
    seen = {"1"}

    def fresh_word(strands, length, degree):
        for _ in range(20000):
            word = random_knot_word(rng, strands, length)
            delta = alexander_of_braid(strands, tuple(word))
            if max(delta) == degree and p_format(delta) not in seen:
                seen.add(p_format(delta))
                return strands, word, delta
        raise RuntimeError(f"no fresh Alexander polynomial of degree {degree} on {strands} strands")

    primes = []
    shapes = [shape for shape, count in POSET_PRIME_MIX.items() for _ in range(count)]
    for i, shape in enumerate(shapes):
        strands, word, delta = fresh_word(*shape)
        name = f"p{i:03d}"
        records[name] = _record(name, **_prime_meta(rng, strands, word, delta))
        deltas[name] = delta
        primes.append(name)

    for i in range(POSET_MUTANT_PAIRS):
        _, _, delta = fresh_word(4, 9, 4)
        genus = max(delta) // 2
        shared = dict(
            delta=p_format(delta), genus_exact=genus, ghat=genus + 1,
            volume=_volume(rng, 5.0, 20.0), mutant_class=f"mutants_{i}",
            flags={"unknot": False, "hyperbolic": True, "no_winding_zero_companion": True},
        )
        for side in "ab":
            records[f"mut{i}{side}"] = _record(f"mut{i}{side}", **shared)
            deltas[f"mut{i}{side}"] = delta

    satellites = []
    triples = set()
    while len(satellites) < POSET_SATELLITES:
        pattern, companion = rng.sample(primes, 2)
        winding = len(satellites) % 3
        if max(deltas[companion]) > 4:
            continue
        if (pattern, companion, winding) in triples:
            continue
        triples.add((pattern, companion, winding))
        name = f"s{len(satellites):03d}"
        p, c = records[pattern], records[companion]
        volume = None
        if p.get("volume") is not None and c.get("volume") is not None:
            volume = _sum_of([p["volume"], c["volume"], _volume(rng, 0.5, 3.0)])
        records[name] = _record(
            name,
            satellite_of=[pattern, companion, winding],
            genus_exact=_sum_of([p.get("genus_exact")] + [c.get("genus_exact")] * winding),
            ghat=_sum_of([p.get("ghat")] + [c.get("ghat")] * winding),
            volume=volume,
            flags={
                "unknot": False, "hyperbolic": False, "simple": False,
                "two_bridge": False, "montesinos": False,
                **({"no_winding_zero_companion": False} if winding == 0 else {}),
            },
            sum_of_simple=False,
        )
        deltas[name] = p_normalize(p_mul(deltas[pattern], p_substitute_power(deltas[companion], winding)))
        satellites.append(name)

    def add_sum(summands: list[str]) -> str:
        name = "+".join(summands)
        parts = [records[s] for s in summands]
        flag = lambda key: _and3(p.get("flags", {}).get(key) for p in parts)  # noqa: E731
        records[name] = _record(
            name,
            connected_sum_of=list(summands),
            genus_exact=_sum_of(p.get("genus_exact") for p in parts),
            ghat=_sum_of(p.get("ghat") for p in parts),
            volume=_sum_of(p.get("volume") for p in parts),
            flags={k: v for k, v in {
                "alternating": flag("alternating"), "fibred": flag("fibred"), "free": flag("free"),
                "two_bridge": False, "montesinos": False, "small": False, "simple": False,
                "unknot": False, "hyperbolic": False,
            }.items() if v is not None},
            sum_of_simple=_and3(p.get("sum_of_simple") for p in parts),
        )
        return name

    # The tallest tower: tower3 > tower2 > satellite > its pattern > unknot.
    base = satellites[0]
    b, d = rng.sample(primes, 2)
    add_sum(sorted([base, b]))
    chain_name = add_sum(sorted([base, b, d]))
    sums = 2
    while sums < POSET_SUMS:
        three = sums % 3 == 2
        pool = primes if three else primes + satellites
        summands = sorted(rng.choice(pool) for _ in range(3 if three else 2))
        if "+".join(summands) not in records:
            add_sum(summands)
            sums += 1

    return Workload(
        "poset-scan", _adhoc_from_records(records, primes), list(records.values()),
        lookup=chain_name, chain_name=chain_name, chain_length=4,
    )


def _adhoc_from_records(records: dict[str, dict], names: list[str]) -> list[Diagram]:
    """Each named braid record as braid text and as PD text, and its mirror
    image and reverse as braid text: four diagrams per record."""
    out = []
    for name in names:
        text = records[name]["braid"]
        strands = int(text[1:text.index(":")])
        word = [int(x) for x in text.split(":")[1].split()]
        out += [
            _diagram(strands, word, as_pd=False),
            _diagram(strands, word, as_pd=True),
            _diagram(strands, [-x for x in word], as_pd=False),
            _diagram(strands, word[::-1], as_pd=False),
        ]
    return out


BUILDERS = {"pd-invariants": pd_invariants, "poset-scan": poset_scan}


def build(workload: str, seed: int) -> Workload:
    return BUILDERS[workload](seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="corpus JSON path")
    args = parser.parse_args()
    workload = build(args.workload, args.seed)
    if workload.corpus is None:
        parser.error(f"{args.workload} uses the bundled corpus")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(workload.corpus_text())


if __name__ == "__main__":
    main()
