"""Tracing: wrapping where names are imported, self-time accounting, and
per-layer counts that repeat exactly for the same seed."""
import pytest

import corpus_gen
import run
from tracer import Tracer


def _traced_pass(workload_name, seed, tmp_path, adhoc):
    """A shortened pass (the first `adhoc` ad-hoc calls and each corpus
    command once), each call untraced and then traced; returns the tracer,
    the traced call time and the per-layer metrics."""
    workload = corpus_gen.build(workload_name, seed)
    corpus_path = None
    if workload.corpus is not None:
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(workload.corpus_text())
    ops, sequence = run.build_ops(workload, corpus_path)
    sequence = [i for i in sequence if ops[i].kind == "adhoc"][:adhoc] + sorted(
        {i for i in sequence if ops[i].kind != "adhoc"})
    runner = run.Runner(ops, None)
    tracer = Tracer()
    untraced, traced, stdout_bytes = runner.run_paired(sequence, tracer, run.trace_hooks(tracer))
    assert runner.failed == 0, runner.errors
    metrics = run.per_layer(tracer, traced, untraced, stdout_bytes)
    return tracer, traced, metrics


def test_install_wraps_every_importer_and_uninstall_restores():
    import knotdom
    from knotdom import alexander, cli, knotbase, laurent, poset

    originals = (
        knotbase.alexander_polynomial, poset.evaluate_full, poset.certificate_search,
        cli.load_corpus, knotdom.build_graph, laurent.LaurentPoly.divided_by,
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert knotbase.alexander_polynomial is alexander.alexander_polynomial
        assert knotbase.alexander_polynomial is not originals[0]
        assert poset.evaluate_full.__wrapped__ is originals[1]
        assert poset.certificate_search.__wrapped__ is originals[2]
        assert cli.load_corpus.__wrapped__ is originals[3]
        assert knotdom.build_graph is poset.build_graph
        assert laurent.LaurentPoly.divided_by.__wrapped__ is originals[5]
    finally:
        tracer.uninstall()
    assert (
        knotbase.alexander_polynomial, poset.evaluate_full, poset.certificate_search,
        cli.load_corpus, knotdom.build_graph, laurent.LaurentPoly.divided_by,
    ) == originals


def test_self_times_add_up_to_the_root_spans(tmp_path):
    tracer, wall, _ = _traced_pass("pd-invariants", 0, tmp_path, adhoc=6)
    assert sum(tracer.self_time) == pytest.approx(tracer.root_time, rel=1e-9)
    assert 0 < tracer.root_time <= wall
    tracer.dump(tmp_path / "trace.json")


@pytest.mark.parametrize("name,adhoc", [("pd-invariants", 20), ("poset-scan", 4)])
def test_counts_repeat_for_the_same_seed(name, adhoc, tmp_path):
    first = _traced_pass(name, 1, tmp_path, adhoc)[2]
    second = _traced_pass(name, 1, tmp_path, adhoc)[2]
    counts = [k for k, (_, unit) in first.items() if unit in ("count", "bytes", "ratio")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["laurent.divided_by.calls"][0] > 0
