"""The pass layout and the scaling of call times to the reference speed."""
from collections import Counter

import pytest

import corpus_gen
import run


def test_call_times_are_scaled_by_the_calibrations_around_them():
    ref = run.CALIBRATION_REFERENCE_S
    runner = run.Runner([], None)
    # 1 s calls: ten of op 0 at the reference speed, then ten of op 1 on a
    # host twice as fast, so that op 1 did twice the work of op 0.
    runner.timeline = [(0, float(k), 1.0, ref) for k in range(10)]
    runner.timeline += [(1, float(k), 1.0, ref / 2) for k in range(10, 20)]
    samples = runner.scaled_samples()
    assert samples[0][0] == 1.0
    assert samples[1][-1] == 2.0
    # The last call of op 0 ran from 9 s to 10 s: it is scaled by the mean
    # calibration of the calls that ended from 8 s to 11 s, one of them fast.
    assert samples[0][-1] == pytest.approx(ref / ((3 * ref + ref / 2) / 4))


def test_a_pass_calls_cheap_diagrams_more_often_and_every_operation():
    workload = corpus_gen.build("pd-invariants", 0)
    ops, sequence = run.build_ops(workload, None)
    calls = Counter(sequence)
    shape = run.PASS_SHAPES["pd-invariants"]
    for i, diagram in enumerate(workload.diagrams):
        assert calls[i] == (shape.cheap_sweeps if diagram.crossings <= shape.cheap_crossings else 1)
    kinds = Counter(ops[i].kind for i in sequence)
    assert (kinds["load"], kinds["poset"], kinds["chain_bound"]) == (shape.loads, shape.graphs, shape.graphs)
    assert kinds["verify"] == 0  # verify-paper runs once per run, outside the passes
