"""Do the reduced Burau kernel and the PD route agree with Fox on every
generated braid?

Inputs: every record with a `braid` in the poset-scan corpora of
`bench/corpus_gen.py` for the given seeds (0-31 by default).  For each
braid the script asserts that `braid_alexander_polynomial` equals
`fox_delta` of `braid_to_pd`, the Fox kernel called directly, that both
equal the record's declared delta, which the generator computes by its
own Burau code (`bench/knots.py`), and that `alexander_polynomial` of the
PD code and of its mirror, which read each back as a braid
(`closed_braid`) and pick their kernel, equal it too.  It prints one
table row per seed with the braid count, the strand and crossing
ranges, and the mean time per braid of Burau, of Fox, and of the PD
route on the code and its mirror together.  pytest does not collect
this file.  From the repository root:

    python tests/braid_agreement.py          # seeds 0-31
    python tests/braid_agreement.py 0-3      # chosen seeds
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SEEDS = range(32)


def agreement(entries: list[dict]) -> tuple[int, tuple[int, int], tuple[int, int], float, float, float]:
    """Check every braid record of one corpus; return the braid count, the
    strand and crossing ranges, and the mean Burau, Fox and PD-route
    times in ms."""
    from kernel_oracle import fox_delta
    from knotdom.alexander import alexander_polynomial, braid_alexander_polynomial
    from knotdom.diagram import braid_to_pd, parse_braid
    from knotdom.laurent import parse_poly

    braids = [(entry["name"], parse_braid(entry["braid"]), entry["delta"]) for entry in entries if "braid" in entry]
    burau_s = fox_s = pd_s = 0.0
    for name, braid, declared in braids:
        pd = braid_to_pd(braid)
        mirror = pd.mirror()
        start = time.perf_counter()
        burau = braid_alexander_polynomial(braid)
        middle = time.perf_counter()
        fox = fox_delta(pd)
        after = time.perf_counter()
        routed = alexander_polynomial(pd), alexander_polynomial(mirror)
        burau_s += middle - start
        fox_s += after - middle
        pd_s += time.perf_counter() - after
        assert burau == fox == parse_poly(declared) == routed[0] == routed[1], (name, braid, burau, fox, routed, declared)
    strands = [braid.strand_count for _, braid, _ in braids]
    crossings = [len(braid.letters) for _, braid, _ in braids]
    count = len(braids)
    return (
        count,
        (min(strands), max(strands)),
        (min(crossings), max(crossings)),
        burau_s / count * 1e3,
        fox_s / count * 1e3,
        pd_s / count * 1e3,
    )


def numbers(arg: str) -> list[int]:
    low, _, high = arg.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(TESTS)]
    import corpus_gen

    seeds = numbers(argv[0]) if argv else SEEDS
    print("| poset-scan seed | braids | strands | crossings | Burau per braid | Fox per braid | PD route, code and mirror |")
    print("|---|---|---|---|---|---|---|")
    total = 0
    for seed in seeds:
        count, strands, crossings, burau_ms, fox_ms, pd_ms = agreement(corpus_gen.build("poset-scan", seed).corpus)
        total += count
        print(
            f"| {seed} | {count} | {strands[0]}-{strands[1]} | {crossings[0]}-{crossings[1]} "
            f"| {burau_ms:.3f} ms | {fox_ms:.3f} ms | {pd_ms:.3f} ms |",
            flush=True,
        )
    print(f"all {total} braids agree: Burau = Fox on braid_to_pd = declared delta = PD route on the code and its mirror")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
