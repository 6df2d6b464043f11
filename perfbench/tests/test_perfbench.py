"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import drive  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ck, cli = run.import_clusterkit()


class FixedStream:
    """One round of hand-written ops, shaped like gen.OpStream."""

    def __init__(self, ops):
        self.ops = ops

    def text_of_round(self, r):
        return "".join(json.dumps(op) + "\n" for op in self.ops)


def closure_op(expect_variables):
    return {
        "id": "r0.0",
        "kind": "closure",
        "cell": "A2-labelled",
        "quotient": False,
        "matrix": gen.matrix_text(2, [[0, 1], [-1, 0]]),
        "expect": {"variables": expect_variables, "clusters": 5, "finite": True, "reason": "closure"},
    }


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_ops(workload):
    assert gen.OpStream(workload, 7).text(3) == gen.OpStream(workload, 7).text(3)
    assert gen.OpStream(workload, 7).digest(3) != gen.OpStream(workload, 8).digest(3)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_round_holds_one_op_per_cell(workload):
    cells = sorted(op["cell"] for op in gen.OpStream(workload, 1).round(0))
    for seed in (2, 3):
        for r in (0, 5):
            assert sorted(op["cell"] for op in gen.OpStream(workload, seed).round(r)) == cells


def test_independent_answers():
    assert gen.finite_type_counts("A", 3) == (9, 14)
    assert gen.finite_type_counts("B", 3) == (12, 20)
    assert gen.finite_type_counts("D", 4) == (16, 50)
    assert gen.finite_type_counts("D", 5) == (25, 182)
    assert gen.member_expected("inverse", 3, 2) and not gen.member_expected("inverse", 5, 2)
    assert gen.member_expected("shifted", 4, 3) and not gen.member_expected("shifted", 6, 3)
    assert gen.chain_expected(6)["three_term"] == 15


def test_wrong_expectation_and_raising_op_count_as_failed():
    wrong = closure_op(expect_variables=6)  # A2 has 5 cluster variables
    raising = {"id": "r0.1", "kind": "chain", "cell": "chain", "m": 1, "expect": {"ok": True}}
    right = dict(closure_op(expect_variables=5), id="r0.2")
    phase = run.run_rounds(FixedStream([wrong, raising, right]), ck, cli, seconds=None, rounds=1)
    assert phase.attempted == 3
    assert len(phase.failures) == 2
    assert "observed" in phase.failures[0] and "ValueError" in phase.failures[1]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_first_round_matches_independent_answers(workload):
    ops = [op for op in gen.OpStream(workload, 5).round(0) if op["kind"] in ("membership", "staircase", "lie")
           or op.get("type") in ("A2", "B2", "G2", "B3")]
    for op in ops:
        assert drive.matches(drive.prepare(op, ck, cli)(), op["expect"]), op


def test_tracer_records_spans_and_restores_originals():
    original = ck.explore
    t = tracer.Tracer()
    t.install()
    try:
        assert ck.explore is not original
        run.run_rounds(FixedStream([closure_op(5)]), ck, cli, seconds=None, rounds=1, tracer=t)
    finally:
        t.uninstall()
    assert ck.explore is original
    assert sys.modules["clusterkit.explore"].seed_mutate is ck.seed_mutate
    calls, self_s = t.totals()
    assert calls["explore.explore"] == 1 and calls["seeds.seed_mutate"] > 0
    assert calls.get("laurent.poly_gcd", 0) == 0
    assert all(v >= 0 for v in self_s.values())
    metrics = t.layer_metrics(1)
    assert metrics["explore.seeds_found"] == 10
    assert tracer.zero_work_violations("explore-closure", metrics) == []
    assert tracer.zero_work_violations("certify", metrics)


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("gone.fn", "clusterkit.seeds", "no_such_function"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["clusterkit.seeds:no_such_function"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    p, _ = run.tail_percentile(list(range(57)))
    assert p == 82
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)
