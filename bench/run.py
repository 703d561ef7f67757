"""knotdom benchmark: seeded workloads through the real CLI entry point.

    python3 bench/run.py --workload pd-invariants --seed 0 --seconds 50 --trace 0

Run from a checkout: the program is imported from ./src, never from an
installed copy.  Each operation is one `knotdom.cli.main(argv)` call in
this process, with stdout captured and checked; one client, no threads,
each call waiting for the previous one (a closed loop, as a CLI user).

With --trace 0 a run repeats the workload's pass (its list of operations)
while the next pass fits in --seconds, and at least MIN_PASSES times; the
last stdout line holds the end-to-end metrics, with in-process times
scaled to a reference host speed (see CALIBRATION_BRAID).  With --trace 1
the run makes one pass in which every operation runs untraced and then
traced, and reports per-layer metrics (see tracer.py and README.md).  Every line
before the last is a human-readable report.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import corpus_gen
from knots import alexander_of_braid
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

# On a shared 2-core host single timings scatter by 20% and more, and the
# speed drifts for seconds at a time.  So every operation runs at least
# once per pass, a run makes at least MIN_PASSES passes (more while
# --seconds allows), and each operation's time is the median of its calls:
# a burst that covers fewer than half of them does not move it.
MIN_PASSES = 3


@dataclass(frozen=True)
class PassShape:
    """How often a pass calls each operation."""

    cheap_sweeps: int  # calls per pass of each ad-hoc diagram of at most
    cheap_crossings: int  # this many crossings (sub-50 ms); others: one
    loads: int  # calls per pass of the load command
    graphs: int  # calls per pass of poset and of chain-bound


# The bundled corpus (pd-invariants) is cheap; a poset-scan load costs
# about 0.5 s and its graph about 2 s.
PASS_SHAPES = {
    "pd-invariants": PassShape(cheap_sweeps=3, cheap_crossings=9, loads=5, graphs=5),
    "poset-scan": PassShape(cheap_sweeps=1, cheap_crossings=0, loads=2, graphs=2),
}
SETUP_PER_PASS = 6
DIGEST_CHARS = 10

# The host's speed also switches between two levels about 1.5x apart, for
# fractions of a second to minutes, so that some runs fall wholly on one
# level.  So after every call the run times a fixed computation that uses
# nothing from knotdom (the Burau Alexander polynomial of CALIBRATION_BRAID,
# under 1 ms), and reports each in-process call time at the speed at which
# that computation takes CALIBRATION_REFERENCE_S: scaled by the reference
# over the mean calibration time around the call, from as long before it
# to as long after it as the call took, and at least CALIBRATION_MIN_SPAN_S.
# A mean, because a call's time is the sum of its moments' slowness.
CALIBRATION_BRAID = (4, (1, 2, -3, 1, 2, 3, -1, 2, 3, 1, -2))
CALIBRATION_REFERENCE_S = 0.78e-3
CALIBRATION_MIN_SPAN_S = 0.15

SETUP_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from knotdom.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["invariants", "--json", "3_1"])
sys.exit(code)
"""


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    kind: str  # "adhoc" | "load" | "poset" | "chain_bound" | "verify"
    argv: list[str]
    check: object  # callable(exit_code, stdout) -> error text or None


def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:DIGEST_CHARS]


def inputs_digest(workload) -> str:
    h = hashlib.sha256()
    for d in workload.diagrams:
        h.update(d.text.encode() + b"\n")
    if workload.corpus is not None:
        h.update(workload.corpus_text().encode())
    return h.hexdigest()[:DIGEST_CHARS]


# -- operations and their independent checks -----------------------------------

def _json_of(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _adhoc_check(diagram):
    def check(code, stdout):
        out = _json_of(stdout)
        if code != 0 or not isinstance(out, dict):
            return f"exit {code}"
        expected = {
            "delta": diagram.delta,
            "crossings": diagram.crossings,
            "writhe": diagram.writhe,
            "seifert_circles": diagram.strands,  # a closed braid has one per strand
        }
        wrong = {k: out.get(k) for k, v in expected.items() if out.get(k) != v}
        return f"{wrong} != {expected}" if wrong else None
    return check


def _load_check(name):
    def check(code, stdout):
        out = _json_of(stdout)
        if code != 0 or not isinstance(out, dict) or out.get("name") != name:
            return f"exit {code}"
        return None
    return check


def _poset_check(node_count):
    def check(code, stdout):
        out = _json_of(stdout)
        if not isinstance(out, dict):
            return f"exit {code}"
        if out.get("audit_log"):
            return f"audit findings: {out['audit_log'][:3]}"
        if code != 0 or (node_count and len(out.get("nodes", ())) != node_count):
            return f"exit {code}, {len(out.get('nodes', ()))} nodes"
        return None
    return check


def _chain_check(name, length):
    def check(code, stdout):
        out = _json_of(stdout)
        if code != 0 or not isinstance(out, dict):
            return f"exit {code}"
        if out.get("name") != name or out.get("strict_length") != length:
            return f"chain from {out.get('name')} has length {out.get('strict_length')}, expected {length}"
        return None
    return check


def _verify_check(code, stdout):
    return None if code == 0 else f"verify-paper exit {code}"


def build_ops(workload, corpus_path: Path | None) -> tuple[list[Op], list[int]]:
    """Distinct operations (in reference order, verify-paper last) and one
    pass as indices into them."""
    corpus_args = ["--corpus", str(corpus_path)] if corpus_path else []
    ops = [Op("adhoc", ["--json", "invariants", d.text], _adhoc_check(d)) for d in workload.diagrams]
    node_count = len(workload.corpus) if workload.corpus else 0
    ops += [
        Op("load", corpus_args + ["invariants", "--json", workload.lookup],
           _load_check(workload.lookup)),
        Op("poset", corpus_args + ["poset", "--json"], _poset_check(node_count)),
        Op("chain_bound", corpus_args + ["chain-bound", "--json", workload.chain_name],
           _chain_check(workload.chain_name, workload.chain_length)),
    ]
    # One sweep of every diagram, then more sweeps of the cheap ones, cut
    # into rounds with the corpus commands between them: the repeated calls
    # of an operation are spread through the pass, so that a burst of host
    # load does not hit every sample of its median.
    shape = PASS_SHAPES[workload.name]
    n = len(workload.diagrams)
    cheap = [i for i, d in enumerate(workload.diagrams) if d.crossings <= shape.cheap_crossings]
    adhoc = list(range(n)) + cheap * (shape.cheap_sweeps - 1)
    load, graph_ops = n, [n + 1, n + 2]  # the order of `ops` above
    rounds = max(shape.loads, shape.graphs)
    sequence = []
    for r in range(rounds):
        sequence += adhoc[r * len(adhoc) // rounds:(r + 1) * len(adhoc) // rounds]
        sequence += ([load] if r < shape.loads else []) + (graph_ops if r < shape.graphs else [])
    ops.append(Op("verify", ["verify-paper"], _verify_check))
    return ops, sequence


# -- running -----------------------------------------------------------------------

def calibration() -> float:
    """Wall time of the fixed computation, with the garbage collector off so
    that the size of the program's heap does not enter it."""
    alexander_of_braid.cache_clear()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        alexander_of_braid(*CALIBRATION_BRAID)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Runner:
    def __init__(self, ops: list[Op], reference: list[str] | None) -> None:
        self.ops = ops
        self.reference = reference
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.stdout_bytes = 0
        # (op index, start, call time, calibration time right after the
        # call) of every call of run_pass
        self.timeline: list[tuple[int, float, float, float]] = []
        self.errors: list[str] = []

    def call(self, index: int) -> float:
        """Run one operation and check its output; returns its wall time."""
        import knotdom.cli as cli  # the module attribute, so tracing sees main
        op = self.ops[index]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raising operation counts as failed; keep going
            code = None
            problem = traceback.format_exc().strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        self.attempted += 1
        stdout = out.getvalue()
        self.stdout_bytes += len(stdout.encode())
        if code is not None:
            problem = op.check(code, stdout)
            got = digest(code, stdout)
            if problem is None and self.reference is not None and got != self.reference[index]:
                problem = f"stdout digest {got} != reference {self.reference[index]}"
            if problem is None and self.seen.setdefault(index, got) != got:
                problem = "stdout differs from an earlier call of the same operation"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.kind} {' '.join(op.argv)[:80]}: {problem} {err.getvalue()[-200:]}")
        return elapsed

    def run_pass(self, sequence: list[int]) -> None:
        for index in sequence:
            start = time.perf_counter()
            elapsed = self.call(index)
            self.timeline.append((index, start, elapsed, calibration()))

    def scaled_samples(self) -> dict[int, list[float]]:
        """Op index -> its call times, each scaled to the reference speed by
        the calibrations around it."""
        taken_at = [start + elapsed for _, start, elapsed, _ in self.timeline]  # ascending
        calibrations = [c for *_, c in self.timeline]
        samples: dict[int, list[float]] = {}
        for index, start, elapsed, _ in self.timeline:
            span = max(elapsed, CALIBRATION_MIN_SPAN_S)
            around = calibrations[bisect.bisect_left(taken_at, start - span):
                                  bisect.bisect_right(taken_at, start + elapsed + span)]
            samples.setdefault(index, []).append(elapsed * CALIBRATION_REFERENCE_S / statistics.fmean(around))
        return samples

    def run_paired(self, sequence: list[int], tracer, hooks) -> tuple[float, float, int]:
        """Each operation untraced, then at once traced, so that both
        timings see the same host speed.  Returns the summed untraced and
        traced call times and the stdout bytes of the traced calls."""
        untraced = traced = 0.0
        traced_bytes = 0
        for index in sequence:
            untraced += self.call(index)
            before = self.stdout_bytes
            tracer.install(hooks)
            try:
                traced += self.call(index)
            finally:
                tracer.uninstall()
            traced_bytes += self.stdout_bytes - before
        return untraced, traced, traced_bytes


def measure_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import knotdom.cli and load
    the bundled corpus."""
    code = SETUP_SNIPPET.format(src=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-300:]}")
    return times


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_reference(workload, seed: int) -> tuple[list[str] | None, str]:
    if not REFERENCE.exists():
        return None, "no reference file"
    entry = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(str(seed))
    if entry is None:
        return None, f"no reference for seed {seed}; independent checks only"
    recorded_inputs, *digests = entry.split()
    if recorded_inputs != inputs_digest(workload):
        raise RuntimeError(f"generated inputs for seed {seed} differ from the recorded ones")
    return digests, f"{len(digests)} recorded digests"


# -- metrics ---------------------------------------------------------------------------

def end_to_end(runner: Runner, setup: list[float]) -> dict:
    """Ad-hoc latency percentiles are taken over the diagrams, each timed
    by the median of its calls; corpus commands by the median of all their
    calls.  In-process call times are scaled to the reference speed; set-up
    times, of fresh interpreters, are as measured."""
    scaled = runner.scaled_samples()

    def samples(kind):
        return [t for i, t in scaled.items() if runner.ops[i].kind == kind]

    adhoc = [statistics.median(t) for t in samples("adhoc")]
    calls = sorted(len(t) for t in samples("adhoc"))
    ms = [t * 1000 for t in adhoc]
    note = f"{len(adhoc)} diagrams, each the median of {calls[0]}-{calls[-1]} calls"

    def command(kind):
        times = [x for t in samples(kind) for x in t]
        return statistics.median(times), "s", f"median of {len(times)} calls"

    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "invariants_p50_ms": (percentile(ms, 50), "ms", note),
        "invariants_p90_ms": (percentile(ms, 90), "ms", note),
        "diagrams_per_s": (len(adhoc) / sum(adhoc), "1/s", note),
        "load_s": command("load"),
        "poset_s": command("poset"),
        "chain_bound_s": command("chain_bound"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "this process"),
    }


def trace_hooks(tracer) -> dict:
    """Counters read off call arguments and results at layer boundaries."""

    def crossings(args, result):
        tracer.count("diagram.crossings", getattr(result, "crossing_count", 0))

    def bracket(args, result):
        tracer.count("alexander.bracket.states", 2 ** getattr(args[0], "crossing_count", 0))

    def bareiss(args, result):
        matrix = args[0]
        tracer.count("alexander.bareiss.matrix_dim", len(getattr(matrix, "entries", matrix)))

    def enriched(args, result):
        if getattr(result, "diagram", None) is not None and getattr(result, "jones", None) is None:
            tracer.count("alexander.jones.skipped")

    def certificate(args, result):
        tracer.count("domination.certificate_search.found", result is not None)

    def graph(args, result):
        edges = getattr(result, "edges", ())
        tracer.count("poset.edges", len(edges))
        tracer.count("poset.direct_edges", sum(e.certificate.rule_id != "C5_transitive" for e in edges))

    return {
        "diagram.parse_pd": crossings,
        "diagram.braid_to_pd": crossings,
        "alexander.kauffman_bracket": bracket,
        "alexander.bareiss_determinant": bareiss,
        "knotbase.enrich_record": enriched,
        "domination.certificate_search": certificate,
        "poset.build_graph": graph,
    }


def per_layer(tracer, traced_wall: float, untraced_wall: float, stdout_bytes: int) -> dict:
    def calls(name):
        return tracer.stat(name)[0]

    def self_s(name):
        return tracer.stat(name)[1]

    def ratio(num, den):
        return num / den if den else 0.0

    counters = tracer.counters
    metrics = {
        "laurent.divided_by.calls": (calls("laurent.divided_by"), "count"),
        "laurent.divided_by.self_s": (self_s("laurent.divided_by"), "s"),
        "laurent.exact_div.calls": (calls("laurent.exact_div"), "count"),
        "laurent.mul.calls": (calls("laurent.mul"), "count"),
        "laurent.format_poly.calls": (calls("laurent.format_poly"), "count"),
        "diagram.parse_pd.self_s": (self_s("diagram.parse_pd"), "s"),
        "diagram.braid_to_pd.self_s": (self_s("diagram.braid_to_pd"), "s"),
        "diagram.wirtinger.self_s": (self_s("diagram.wirtinger"), "s"),
        "diagram.seifert_circles.self_s": (self_s("diagram.seifert_circles"), "s"),
        "diagram.crossings": (counters.get("diagram.crossings", 0), "count"),
        "alexander.kauffman_bracket.self_s": (self_s("alexander.kauffman_bracket"), "s"),
        "alexander.bracket.states": (counters.get("alexander.bracket.states", 0), "count"),
        "alexander.alexander_matrix.self_s": (self_s("alexander.alexander_matrix"), "s"),
        "alexander.bareiss_determinant.self_s": (self_s("alexander.bareiss_determinant"), "s"),
        "alexander.bareiss.matrix_dim": (counters.get("alexander.bareiss.matrix_dim", 0), "count"),
        "alexander.jones.skipped": (counters.get("alexander.jones.skipped", 0), "count"),
        "knotbase.record_from_json.self_s": (self_s("knotbase.record_from_json"), "s"),
        "knotbase.enrich_record.calls": (calls("knotbase.enrich_record"), "count"),
        "knotbase.enrich_record.self_s": (self_s("knotbase.enrich_record"), "s"),
        "domination.evaluate_full.calls": (calls("domination.evaluate_full"), "count"),
        "domination.evaluate_full.self_s": (self_s("domination.evaluate_full"), "s"),
        "domination.certificate_search.calls": (calls("domination.certificate_search"), "count"),
        "domination.certificate_search.useful_ratio": (
            ratio(counters.get("domination.certificate_search.found", 0), calls("domination.certificate_search")),
            "ratio",
        ),
        "domination.pair.useful_ratio": (
            ratio(counters.get("poset.direct_edges", 0), calls("domination.evaluate_full")), "ratio",
        ),
        "poset.build_graph.self_s": (self_s("poset.build_graph"), "s"),
        "poset.longest_chain.self_s": (self_s("poset.longest_chain"), "s"),
        "poset.edges": (counters.get("poset.edges", 0), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.layer_self(layer), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.harness_s"] = (traced_wall - tracer.root_time, "s")
    metrics["trace.spans"] = (len(tracer.span_ids), "count")
    return metrics


# -- main --------------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description="knotdom benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "knotdom" / "cli.py").is_file():
        print(f"error: {SRC / 'knotdom'} not found; run from a knotdom checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in corpus_gen.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(corpus_gen.WORKLOADS)}")

    if not args.trace:
        measure_setup(1)  # compiles bytecode into the checkout; not timed
    workload = corpus_gen.build(args.workload, args.seed)
    corpus_path = None
    if workload.corpus is not None:
        OUT.mkdir(exist_ok=True)
        corpus_path = OUT / f"corpus-{workload.name}-{args.seed}.json"
        corpus_path.write_text(workload.corpus_text(), encoding="utf-8")
    ops, sequence = build_ops(workload, corpus_path)
    reference, reference_note = load_reference(workload, args.seed)

    runner = Runner(ops, reference)
    runner.call(len(ops) - 1)  # verify-paper, once per run

    passes = 0
    if args.trace:
        tracer = Tracer()
        untraced_wall, traced_wall, traced_bytes = runner.run_paired(sequence, tracer, trace_hooks(tracer))
        passes = 1
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload.name}-{args.seed}.json")
        metrics = per_layer(tracer, traced_wall, untraced_wall, traced_bytes)
        layers_self = sum(tracer.self_time)
        print(f"traced calls {traced_wall:.3f} s: layers {layers_self:.3f} s, harness "
              f"{traced_wall - tracer.root_time:.3f} s; the same calls untraced {untraced_wall:.3f} s, "
              f"tracing overhead {traced_wall - untraced_wall:.3f} s")
        shown = {k: (v, unit, "") for k, (v, unit) in metrics.items()}
    else:
        start = time.perf_counter()
        pass_times, setup = [], []
        while True:
            pass_start = time.perf_counter()
            runner.run_pass(sequence)
            setup += measure_setup(SETUP_PER_PASS)
            pass_times.append(time.perf_counter() - pass_start)
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= MIN_PASSES and elapsed + statistics.mean(pass_times) > args.seconds:
                break
        calibrations = [c for *_, c in runner.timeline]
        print(f"measured {elapsed:.1f} s; calibration: median {statistics.median(calibrations) * 1000:.4f} ms, "
              f"quartiles {', '.join(f'{q * 1000:.4f}' for q in statistics.quantiles(calibrations, n=4))} ms "
              f"over {len(calibrations)} calls (reference {CALIBRATION_REFERENCE_S * 1000} ms)")
        shown = end_to_end(runner, setup)

    failed_ratio = runner.failed / runner.attempted
    print(f"workload {workload.name} seed {args.seed}: {len(sequence)} operations per pass, "
          f"{passes} pass(es); reference: {reference_note}")
    for name, (value, unit, note) in shown.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  failed_ratio = {failed_ratio:.6g}  ({runner.failed} failed / {runner.attempted} attempted)")
    for line in runner.errors:
        print(f"  FAILED {line}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
