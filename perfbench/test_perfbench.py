"""Self-tests of the benchmark: it must not pass a broken engine.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import time

import expected
import run

_INVARIANTS_12 = {
    "schema_version": 1,
    "invariants": {"facet_count": 3962, "h_vector": [1, 53, 606, 1716, 1287, 286, 13],
                   "dim": 13, "reg": 6, "a_invariant": -7, "gorenstein": False,
                   "closed_form_match": True, "mode": "computed"},
    "verification": {"passed": True, "facets": 3962},
}


def _verify_op(extra: tuple[str, ...] = ()) -> run.Op:
    n, t_max = (2, 4), 3
    argv = ("verify", "--n", "2,4", "--t-max", str(t_max), "--format", "json") + extra
    return run.Op("verify n2-4", argv, lambda out: expected.check_verify(n, t_max, out))


def test_checker_accepts_recorded_values_and_extra_fields():
    report = json.loads(json.dumps(_INVARIANTS_12))
    report["schema_version"] = 2
    report["verification"]["counters"] = {"quadratic_fallbacks": 0}
    assert expected.check_invariants((12,), json.dumps(report).encode()) == []


def test_wrong_recorded_value_is_a_failure():
    wrong = dict(expected.INVARIANTS)
    wrong[(12,)] = {**wrong[(12,)], "facet_count": 3963}
    stdout = json.dumps(_INVARIANTS_12).encode()
    assert expected.check_invariants((12,), stdout, table=wrong)

    hilbert = dict(expected.HILBERT)
    hilbert[(2, 4)] = [1, 15, 104, 476]
    tally = run.Tally()
    op = run.Op("verify n2-4", _verify_op().argv,
                lambda out: expected.check_verify((2, 4), 3, out, table=hilbert))
    run.run_op(op, tally, time.monotonic() + 60, reference=None)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_mutated_rule_run_is_a_failure():
    tally = run.Tally()
    run.run_op(_verify_op(), tally, time.monotonic() + 60, reference=None)
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems
    run.run_op(_verify_op(("--mutate-rule", "c2")), tally, time.monotonic() + 60, reference=None)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_output_differing_from_warm_up_is_a_failure():
    tally = run.Tally()
    sample = run.run_op(_verify_op(), tally, time.monotonic() + 60, reference=None)
    run.run_op(_verify_op(), tally, time.monotonic() + 60, reference=sample.stdout + b" ")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_batch_checker_follows_line_order():
    lines = ["3", "12"]
    stdout = (b"c,d,facets,reg,a,gorenstein,pass\n"
              b"3,1,,0,-3,true,prediction-only\n12,1,3962,6,-7,false,true\n")
    assert expected.check_batch_csv(lines, stdout) == []
    assert expected.check_batch_csv(lines[::-1], stdout)


def test_seed_orders_but_never_changes_the_work():
    for workload in ("certify", "oracle", "batch"):
        first, _ = run.build_ops(workload, random.Random(1))
        second, _ = run.build_ops(workload, random.Random(2))
        assert sorted(op.argv for op in first) == sorted(op.argv for op in second)
    ops, jobs = run.build_ops("batch", random.Random(3))
    lines = run.WORK.joinpath("batch.txt").read_text().split()
    assert sorted(lines) == sorted(["12", "2,10", "3,3,4", "2,2,2,4", "12", "3", "2,10", "1,1,1,1"])
    assert sorted(job.n for job in jobs) == [(2, 2, 2, 4), (2, 10), (3, 3, 4), (12,)]
