"""Command-line surface: invariant queries, pair checks, poset reports,
chain bounds, and the bundled-example verification suite.

Exit codes: 0 ok/certified/equal, 1 usage or input error, 2 obstructed,
3 unknown.  All output is deterministic; --json renders machine-readable
reports with sorted keys.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import alexander, poset
from .diagram import parse_braid, parse_pd, seifert_circles
from .knotbase import CorpusError, KnotRecord, enrich_record, load_corpus, record_jones
from .laurent import LaurentPoly, divides, format_poly, parse_poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OBSTRUCTED = 2
EXIT_UNKNOWN = 3


class CheckResult(NamedTuple):
    check_id: str
    passed: bool
    detail: str
    anchor: str


class RunReport(NamedTuple):
    """Outcome of the verification suite; exit code 0 iff every check
    passed.  Check ids are stable across releases."""

    checks: tuple[CheckResult, ...]

    @property
    def exit_code(self) -> int:
        return EXIT_OK if all(c.passed for c in self.checks) else EXIT_USAGE

    def to_json_dict(self) -> dict:
        return {
            "checks": [
                {
                    "id": c.check_id,
                    "passed": c.passed,
                    "detail": c.detail,
                    "anchor": c.anchor,
                }
                for c in self.checks
            ],
            "exit_code": self.exit_code,
        }


def default_corpus_path() -> Path:
    return Path(__file__).with_name("data") / "corpus.json"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and shared by every `main` call, since parse_args
    # leaves the parser as it found it.  The global flags are repeated on
    # every subcommand (with SUPPRESS defaults) so they are accepted both
    # before and after it.
    common = _Parser(add_help=False)
    common.add_argument(
        "--corpus", metavar="PATH", default=argparse.SUPPRESS,
        help="corpus JSON file (bundled file by default)",
    )
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="machine-readable output",
    )

    parser = _Parser(prog="knotdom", description=__doc__)
    parser.add_argument("--corpus", metavar="PATH", help="corpus JSON file (bundled file by default)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser(
        "invariants", parents=[common],
        help="invariants of a corpus knot, PD code, or braid word",
    )
    p_inv.add_argument("source", help="knot name, 'X(a,b,c,d) ...' PD text, or 'B<n>: i1 i2 ...' braid text")
    p_inv.set_defaults(run=lambda args: _cmd_invariants(args.source, args.corpus, args.json))

    p_check = sub.add_parser("check", parents=[common], help="evaluate an ordered domination query")
    p_check.add_argument("dominator")
    p_check.add_argument("dominated")
    p_check.set_defaults(
        run=lambda args: _cmd_check(args.dominator, args.dominated, _corpus_path(args.corpus), args.json)
    )

    p_poset = sub.add_parser("poset", parents=[common], help="build the certified domination graph")
    p_poset.add_argument("corpus_path", nargs="?", help="corpus file (overrides --corpus)")
    p_poset.set_defaults(run=lambda args: _cmd_poset(_corpus_path(args.corpus_path or args.corpus), args.json))

    p_bound = sub.add_parser("chain-bound", parents=[common], help="chain-length bounds for a corpus knot")
    p_bound.add_argument("name")
    p_bound.set_defaults(run=lambda args: _cmd_chain_bound(args.name, _corpus_path(args.corpus), args.json))

    p_verify = sub.add_parser(
        "verify-paper", parents=[common], help="run the bundled worked-example verification suite"
    )
    p_verify.set_defaults(run=lambda args: _cmd_verify_paper(_corpus_path(args.corpus), args.json))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; usage errors raise
    SystemExit.  It may be called repeatedly in one process: the argument
    parser is built on the first call and shared by the later ones."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # CorpusError and DiagramError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush
        # at exit stays quiet too, as the `signal` module's docs advise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE


def _corpus_path(arg: str | None) -> Path:
    return Path(arg) if arg else default_corpus_path()


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_invariants(source: str, corpus: str | None, as_json: bool) -> int:
    stripped = source.strip()
    if stripped.startswith("X(") or stripped == "":
        record = enrich_record(KnotRecord(name="<pd>", diagram=parse_pd(stripped)))
    elif stripped.startswith("B") and ":" in stripped:
        record = enrich_record(KnotRecord(name="<braid>", braid=parse_braid(stripped)))
    else:
        record = load_corpus(_corpus_path(corpus)).get(stripped)

    info: dict = {
        "name": record.name,
        "delta": format_poly(record.delta),
        "determinant": record.determinant,
        "genus_lower": record.genus_lower,
        "genus_upper": record.genus_upper,
        "genus_exact": record.genus_exact,
        "ghat": record.ghat,
        "volume": record.volume,
        "flags": record.flags.as_dict(),
        "sum_of_simple": record.sum_of_simple,
    }
    jones, diagram = record_jones(record), record.diagram
    if jones is not None:
        info["jones"] = format_poly(jones)
    if diagram is not None:
        info["crossings"] = diagram.crossing_count
        info["writhe"] = diagram.writhe()
        info["seifert_circles"] = seifert_circles(diagram)[0]
    if as_json:
        _emit(info)
    else:
        for key in sorted(info):
            value = info[key]
            if isinstance(value, dict):
                value = " ".join(f"{k}={v}" for k, v in sorted(value.items()))
            print(f"{key}: {value}")
    return EXIT_OK


_VERDICT_EXIT = {
    "equal": EXIT_OK,
    "certified": EXIT_OK,
    "obstructed": EXIT_OBSTRUCTED,
    "unknown": EXIT_UNKNOWN,
}


def _cmd_check(name1: str, name2: str, corpus_path: Path, as_json: bool) -> int:
    verdict = poset.evaluate(load_corpus(corpus_path), name1, name2)
    if as_json:
        _emit(verdict.to_json_dict((name1, name2)))
    else:
        print(f"{name1} >= {name2}: {verdict.kind}")
        if verdict.kind == "certified":
            cert = verdict.certificate
            print(f"  {cert.rule_id} [{cert.anchor}] witnesses: {' -> '.join(cert.witnesses)}")
        for report in verdict.obstructions:
            print(f"  {report.rule_id} [{report.anchor}]: {report.detail}")
        if verdict.kind == "unknown":
            print(f"  passed: {', '.join(verdict.passed)}")
    return _VERDICT_EXIT[verdict.kind]


def _cmd_poset(corpus_path: Path, as_json: bool) -> int:
    corpus = load_corpus(corpus_path)
    graph = poset.build_graph(corpus)
    if as_json:
        graph.write_json(sys.stdout)
    else:
        print(f"nodes: {len(graph.nodes)}  edges: {len(graph.edges)}")
        for edge in graph.edges:
            print(f"  {edge.src} -> {edge.dst}  [{edge.certificate.rule_id}]")
        if graph.audit_log:
            print("audit findings:")
            for finding in graph.audit_log:
                print(f"  {finding}")
        else:
            print("audit: clean")
    return EXIT_OK if not graph.audit_log else EXIT_USAGE


def _cmd_chain_bound(name: str, corpus_path: Path, as_json: bool) -> int:
    corpus = load_corpus(corpus_path)
    bounds = poset.chain_length_bound(corpus.get(name))
    chain = poset.longest_chain(poset.build_graph(corpus, [name]), name)
    if as_json:
        _emit(
            {
                "name": name,
                "bounds": [b._asdict() for b in bounds],
                "longest_chain": chain,
                "strict_length": len(chain) - 1,
            }
        )
    else:
        print(f"longest certified chain from {name}: {' > '.join(chain)} (strict length {len(chain) - 1})")
        if not bounds:
            print("no chain bounds apply")
        for b in bounds:
            print(f"  {b.rule}: {b.value} ({b.scope})")
    return EXIT_OK


def _cmd_verify_paper(corpus_path: Path, as_json: bool) -> int:
    try:
        report = run_verification(corpus_path)
    except CorpusError as exc:
        print(f"error: missing or invalid fixture: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if as_json:
        _emit(report.to_json_dict())
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {check.check_id} [{check.anchor}]: {check.detail}")
        total = len(report.checks)
        good = sum(1 for c in report.checks if c.passed)
        print(f"{good}/{total} checks passed")
    return report.exit_code


def run_verification(corpus_path: Path | str) -> RunReport:
    """The eight worked-example checks, in a fixed order, against the
    bundled corpus and the exact computational kernel."""
    corpus = load_corpus(corpus_path)
    corpus.records  # checks every record before any output
    checks: list[CheckResult] = []

    def add(check_id: str, anchor: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(check_id, passed, detail, anchor))

    def need(record: KnotRecord, field: str):
        value = getattr(record, field)
        if value is None:
            raise CorpusError(f"{record.name}: missing field {field!r}")
        return value

    trefoil = corpus.get("3_1")
    fig8 = corpus.get("4_1")
    five2 = corpus.get("5_2")

    expected = {
        "3_1": "1 - t + t^2",
        "4_1": "1 - 3t + t^2",
        "5_2": "2 - 3t + 2t^2",
    }
    computed = {
        name: format_poly(alexander.alexander_polynomial(need(corpus.get(name), "diagram")))
        for name in expected
    }
    add(
        "alexander_examples",
        "Ex. 6.3, Ex. 6.4",
        computed == expected,
        f"computed {computed}",
    )

    band_sum = parse_poly("1 - t^2 + t^4")
    add(
        "band_sum_divisibility",
        "Ex. 6.3",
        not divides(trefoil.delta, band_sum),
        f"{format_poly(trefoil.delta)} does not divide {format_poly(band_sum)}",
    )

    murasugi = parse_poly("2 - 3t + 3t^2 - 3t^3 + 2t^4")
    add(
        "murasugi_sum_divisibility",
        "Ex. 6.4",
        not divides(fig8.delta, murasugi)
        and not divides(five2.delta, murasugi),
        f"neither {format_poly(fig8.delta)} nor {format_poly(five2.delta)} divides "
        f"{format_poly(murasugi)}",
    )

    cable = alexander.satellite_delta(trefoil.delta, fig8.delta, 2)
    factors = parse_poly("1 - t - t^2") * parse_poly("1 - t + t^2") * parse_poly("1 + t - t^2")
    add(
        "cable_alexander",
        "Ex. 6.5",
        cable == factors.normalize()
        and divides(trefoil.delta, cable)
        and not divides(fig8.delta, cable),
        f"satellite delta {format_poly(cable)}: pattern divides, companion does not",
    )

    ks = corpus.get("ks_cable23_of_4_1")
    ks_jones = need(ks, "jones")
    jones_trefoil = record_jones(trefoil) or need(trefoil, "jones")
    add(
        "jones_non_divisibility",
        "Remark after Ex. 6.5",
        not divides(jones_trefoil, ks_jones),
        f"{format_poly(jones_trefoil)} does not divide {format_poly(ks_jones)} up to units",
    )

    winding_zero = all(
        alexander.satellite_delta(trefoil.delta, companion, 0) == trefoil.delta
        for companion in (fig8.delta, five2.delta, LaurentPoly.const(1))
    )
    add(
        "winding_zero_pattern",
        "Ex. 2.2",
        winding_zero,
        "winding-zero satellite keeps the pattern's Alexander polynomial",
    )

    v_ks_41 = poset.evaluate(corpus, "ks_cable23_of_4_1", "4_1")
    v_granny = poset.evaluate(corpus, "granny", "3_1")
    v_mutants = poset.evaluate(corpus, "KT_mutant", "Conway_mutant")
    add(
        "pair_verdicts",
        "Ex. 6.5, Prop. 1.2, Cor. 3.2",
        v_ks_41.kind == "obstructed"
        and "O1_alexander" in v_ks_41.rule_ids()
        and v_granny.kind == "certified"
        and v_granny.certificate.rule_id == "C1_connected_sum"
        and v_mutants.kind == "obstructed"
        and "R5_mutant_double_cover" in v_mutants.rule_ids(),
        f"(ks, 4_1)={v_ks_41.kind}{list(v_ks_41.rule_ids())}, "
        f"(granny, 3_1)={v_granny.kind}, (KT, Conway)={v_mutants.kind}",
    )

    chain = poset.longest_chain(poset.build_graph(corpus, ["3_1"]), "3_1")
    bounds_31 = poset.chain_length_bound(trefoil)
    bounds_52 = poset.chain_length_bound(five2)
    ok_31 = bounds_31 == [poset.ChainBound(1, "free_ghat", "total_length")] and len(chain) - 1 == 1
    ok_52 = poset.ChainBound(1, "free_ghat", "total_length") in bounds_52 and poset.ChainBound(
        2, "alternating_degree", "alternating_count"
    ) in bounds_52
    add(
        "chain_bounds",
        "Cor. 5.7, Cor. 6.10",
        ok_31 and ok_52,
        f"3_1 chain length {len(chain) - 1} with ghat bound 1; "
        f"5_2 bounds {[(b.rule, b.value) for b in bounds_52]}",
    )

    return RunReport(tuple(checks))


if __name__ == "__main__":
    sys.exit(main())
