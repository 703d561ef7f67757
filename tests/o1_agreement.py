"""Does `divides` agree with long division on every pair O1 reads?

Inputs: the bundled corpus and the poset-scan corpora of
`bench/corpus_gen.py` for the given seeds (0-31 by default).  For every
ordered pair (k1, k2) of distinct records of one corpus the script
asserts that `divides(k2.delta, k1.delta)` equals
`exact_div(k1.delta, k2.delta) is not None`, the quotient by
`LaurentPoly.divided_by` that `tests/kernel_oracle.py` keeps.  It prints
one table row per corpus with the pair count and, for each route of
`divides`, how many pairs took it and its mean time per pair:

  - shortcut: the divisor is a unit or of higher degree than the dividend;
  - remainder: one integer remainder at X = 2^bits;
  - division: a dividend too long for that, reduced mod p if sparse and
    then divided by `divided_by` unless the reduction refuted it.

pytest does not collect this file.  From the repository root:

    python tests/o1_agreement.py          # the bundled corpus and seeds 0-31
    python tests/o1_agreement.py 0-3      # the bundled corpus and chosen seeds
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SEEDS = range(32)
ROUTES = ("shortcut", "remainder", "division")


def span(p) -> int:
    return p.max_degree - p.min_degree


def agreement(entries: list[dict]) -> tuple[int, dict[str, list[float]]]:
    """Check every ordered pair of one corpus; return the pair count and
    each route's per-pair times in seconds."""
    from knotdom import laurent
    from knotdom.knotbase import build_corpus, record_shape
    from knotdom.laurent import LaurentPoly, divides

    from kernel_oracle import exact_div

    shapes = [record_shape(entry) for entry in entries]
    corpus = build_corpus(shapes, {shape.name: entry for shape, entry in zip(shapes, entries)})
    deltas = [(name, corpus.get(name).delta) for name in corpus.names()]
    divided = []  # calls of the division route's two steps
    originals = LaurentPoly.divided_by, laurent._remainder_mod_prime

    def counted(step):
        def call(*args):
            divided.append(1)
            return step(*args)

        return call

    times: dict[str, list[float]] = {route: [] for route in ROUTES}
    LaurentPoly.divided_by, laurent._remainder_mod_prime = map(counted, originals)
    try:
        for name1, d1 in deltas:
            for name2, d2 in deltas:
                if name1 == name2:
                    continue
                divided.clear()
                start = time.perf_counter()
                answer = divides(d2, d1)
                seconds = time.perf_counter() - start
                if divided:
                    route = "division"
                elif d2.normalize().is_one() or d1.is_zero() or span(d1) < span(d2):
                    route = "shortcut"
                else:
                    route = "remainder"
                times[route].append(seconds)
                expected = exact_div(d1, d2) is not None
                assert answer == expected, (name1, name2, str(d1), str(d2), answer)
    finally:
        LaurentPoly.divided_by, laurent._remainder_mod_prime = originals
    return len(deltas) * (len(deltas) - 1), times


def numbers(arg: str) -> list[int]:
    low, _, high = arg.partition("-")
    return list(range(int(low), int(high or low) + 1))


def row(label: str, pairs: int, times: dict[str, list[float]]) -> str:
    cells = []
    for route in ROUTES:
        spent = times[route]
        mean = f"{sum(spent) / len(spent) * 1e6:.1f} us" if spent else "-"
        cells.append(f"{len(spent)} | {mean}")
    return f"| {label} | {pairs} | " + " | ".join(cells) + " |"


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(TESTS)]
    import corpus_gen

    seeds = numbers(argv[0]) if argv else SEEDS
    print("| corpus | pairs | shortcut | per pair | remainder | per pair | division | per pair |")
    print("|---|---|---|---|---|---|---|---|")
    bundled = json.loads((ROOT / "src" / "knotdom" / "data" / "corpus.json").read_text(encoding="utf-8"))
    count = agreement(bundled)
    total = count[0]
    print(row("bundled", *count), flush=True)
    for seed in seeds:
        count = agreement(corpus_gen.build("poset-scan", seed).corpus)
        total += count[0]
        print(row(f"poset-scan {seed}", *count), flush=True)
    print(f"all {total} ordered pairs agree: divides = exact_div is not None")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
