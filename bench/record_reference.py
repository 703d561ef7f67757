"""Record the stdout digests that benchmark runs compare against.

    python3 bench/record_reference.py --seeds 0-31

For each workload and seed this runs every distinct operation once and
stores, in bench/reference.json, a digest of the generated inputs followed
by one digest of (exit code, stdout) per operation.  Every independent
check must pass first.  Record only from a commit whose outputs are known
to be right; a run then fails any operation whose output changed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import corpus_gen
import run


def record(workload_name: str, seed: int) -> str:
    workload = corpus_gen.build(workload_name, seed)
    corpus_path = None
    if workload.corpus is not None:
        run.OUT.mkdir(exist_ok=True)
        corpus_path = run.OUT / f"corpus-{workload.name}-{seed}.json"
        corpus_path.write_text(workload.corpus_text(), encoding="utf-8")
    ops, _ = run.build_ops(workload, corpus_path)
    runner = run.Runner(ops, None)
    for index in range(len(ops)):
        runner.call(index)
    if runner.failed:
        raise SystemExit(f"{workload_name} seed {seed}: {runner.failed} checks failed: {runner.errors}")
    return " ".join([run.inputs_digest(workload)] + [runner.seen[i] for i in range(len(ops))])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--out", default=str(run.REFERENCE), help="table to update (default: %(default)s)")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))

    first, last = (int(x) for x in args.seeds.split("-"))
    out = Path(args.out)
    table = json.loads(out.read_text()) if out.exists() else {}
    for name in args.workload or corpus_gen.WORKLOADS:
        for seed in range(first, last + 1):
            table.setdefault(name, {})[str(seed)] = record(name, seed)
            print(f"{name} seed {seed} recorded", flush=True)
            out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
