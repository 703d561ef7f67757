"""Time, peak RSS and stdout of `knotdom poset` and `chain-bound` on deep
satellite chains.

For each depth, `test_poset.satellite_chain(depth)` is written to a
corpus file, and `poset --json`, text `poset` and `chain-bound a0000`
(the root of the chain) each run on it in a fresh interpreter.  The
report gives the wall time of the command, the peak RSS of its process
(the interpreter and the test imports included), and the size and
sha256 of what it printed, read from a pipe.  pytest
does not collect this file.  From the repository root:

    python tests/deep_chains.py            # depths 150, 300 and 450
    python tests/deep_chains.py 150 300    # chosen depths
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DEPTHS = (150, 300, 450)
FORMS = (["poset", "--json"], ["poset"], ["chain-bound", "a0000"])

# Runs one command; its timing goes to stderr, its output to stdout.
CHILD = """
import json, resource, sys, time
sys.path[:0] = sys.argv[1:3]
from knotdom.cli import main
start = time.perf_counter()
code = main(sys.argv[3:])
sys.stdout.flush()
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "seconds": seconds, "peak_mb": peak_mb}), file=sys.stderr)
"""


def run(args: list[str]) -> dict:
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(SRC), str(TESTS), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    digest, size = hashlib.sha256(), 0
    while chunk := child.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
    stderr = child.stderr.read().decode()
    if child.wait() != 0:
        raise SystemExit(f"{' '.join(args)} failed:\n{stderr}")
    return {**json.loads(stderr.splitlines()[-1]), "bytes": size, "sha256": digest.hexdigest()}


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(SRC), str(TESTS)]
    from test_poset import satellite_chain

    depths = [int(arg) for arg in argv] or DEPTHS
    print("| depth | command | time | peak RSS | stdout | sha256 |")
    print("|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for depth in depths:
            path = Path(tmp) / f"chain-{depth}.json"
            path.write_text(json.dumps(satellite_chain(depth)), encoding="utf-8")
            for form in FORMS:
                result = run([*form, "--corpus", str(path)])
                print(
                    f"| {depth} | `{' '.join(form)}` | {result['seconds']:.2f} s | {result['peak_mb']:.0f} MB "
                    f"| {result['bytes'] / 1e6:.1f} MB | {result['sha256'][:12]} |",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
