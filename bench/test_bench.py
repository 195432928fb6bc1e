"""Tests of the benchmark's own machinery: self time, digests, failure tally."""

from __future__ import annotations

import json
import types

import pytest

import run
import spans
import worker


def test_self_time_counts_overlapping_children_once():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4]; child
    # [8, 12] sticks out of the parent and only [8, 10] counts; the
    # grandchild [1.5, 2] is covered by its own parent, not by the root.
    starts = [0.0, 1.0, 3.0, 8.0, 1.5]
    ends = [10.0, 4.0, 6.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = spans.self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_union_length_merges_and_ignores_empty_intervals():
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert spans.union_length([]) == 0


def test_bucket_of_uses_longest_prefix():
    assert spans.bucket_of("classfn.transfer_ideal") == "classfn.transfer"
    assert spans.bucket_of("classfn.C0Element.mul") == "classfn.C0Element"
    assert spans.bucket_of("groups.TupleClass.__init__") == "groups.hom_classes"
    assert spans.bucket_of("groups.Homomorphism.__init__") == "groups.other"
    assert spans.bucket_of("lattice.hnf") == "lattice"


def test_digest_check_rejects_a_one_byte_change(tmp_path):
    worker.import_charpow()
    ops = [op for op in worker.setup_enumerate_structure(0, tmp_path)
           if op.name == "enumerate-sums-n3-m10"]
    reference = json.loads(worker.REFERENCE.read_text())["digests"]
    results, _ = worker.run_ops(ops)
    outcomes, _ = worker.check_ops(ops, results, 0, reference, oracle=False)
    assert outcomes == [("enumerate-sums-n3-m10", True, "")]

    data = bytearray(ops[0].out_path.read_bytes())
    data[len(data) // 2] ^= 1
    ops[0].out_path.write_bytes(bytes(data))
    outcomes, _ = worker.check_ops(ops, results, 0, reference, oracle=False)
    assert outcomes[0][1] is False


def test_seeded_reference_applies_only_to_its_seed():
    reference = {"op": {"seed": 0, "sha256": "aa"}, "fixed": {"seed": None, "sha256": "bb"}}
    assert worker.reference_verdict("op", "aa", 0, reference) is True
    assert worker.reference_verdict("op", "ab", 0, reference) is False
    assert worker.reference_verdict("op", "ab", 7, reference) is None
    assert worker.reference_verdict("fixed", "bc", 7, reference) is False
    assert worker.reference_verdict("missing", "bc", 7, reference) is None


def test_tally_counts_cut_runs_and_diverging_outputs_as_failed():
    good = {"outcomes": [["a", True, ""], ["b", True, ""]], "digests": {"a": "x"}}
    other = {"outcomes": [["a", True, ""], ["b", True, ""]], "digests": {"a": "y"}}
    children = [run.Child(False, report=good), run.Child(False, error="cut"),
                run.Child(False, report=other)]
    attempted, failed, notes = run.tally(children, expected_ops=2)
    assert (attempted, failed) == (6, 3)
    assert any("cut" in n for n in notes)
    assert any("differs" in n for n in notes)


def test_tally_fails_later_runs_that_repeat_a_failed_output():
    bad = {"outcomes": [["a", False, "oracle identity fails"]], "digests": {"a": "x"}}
    same = {"outcomes": [["a", True, ""]], "digests": {"a": "x"}}
    children = [run.Child(False, report=bad), run.Child(False, report=same)]
    attempted, failed, notes = run.tally(children, expected_ops=1)
    assert (attempted, failed) == (2, 2)


def test_run_children_starts_no_run_that_would_overrun(monkeypatch):
    # untraced runs take 5 s, traced ones 10 s, on a fake clock
    clock = [0.0]
    monkeypatch.setattr(run, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))

    def fake_child(workload, seed, index, traced, oracle, timeout):
        clock[0] += 10.0 if traced else 5.0
        return run.Child(traced, report={})

    monkeypatch.setattr(run, "run_child", fake_child)
    assert len(run.run_children("w", 0, 30, trace=0)) == 6
    clock[0] = 0.0
    traced = [c.traced for c in run.run_children("w", 0, 30, trace=1)]
    assert traced == [False, True, False, True]
    clock[0] = 0.0
    assert len(run.run_children("w", 0, 4, trace=0)) == run.MIN_UNTRACED_RUNS
