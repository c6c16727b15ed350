"""Checks on the gradient verification suite itself: coverage, pass/fail
plumbing, and a deliberately wrong gradient as negative control."""

import runpy
from pathlib import Path

import numpy as np

from wvad.tensor import Tensor
from wvad.verification import (OP_CASES, check_case, check_objective,
                               run_all, _objective_case)


def test_suite_passes_on_fresh_build():
    report = run_all(seeds=3)
    assert report.passed
    assert report.rows[-1].name == "full_objective"
    for row in report.rows:
        assert row.passed, row
        assert row.max_rel_err <= 1e-4


def test_suite_covers_every_op_case():
    report = run_all(seeds=1)
    assert [r.name for r in report.rows] == [name for name, _ in OP_CASES] + ["full_objective"]


def test_summary_lines_name_each_check():
    report = run_all(seeds=1)
    lines = report.summary_lines()
    assert len(lines) == len(report.rows) + 1
    for line, row in zip(lines, report.rows):
        assert row.name in line and "PASS" in line
    assert lines[-1].startswith("gradcheck total: PASS")


def test_wrong_gradient_is_flagged():
    # d/dx of x*stop(x) is reported as x, true derivative of x^2 is 2x
    def broken(rng):
        x = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
        return [("x", x)], lambda: (x * Tensor(x.data)).sum()

    row = check_case("broken", broken, seeds=2, h=1e-5, tol=1e-4)
    assert not row.passed
    assert "seed" in row.note


def test_objective_reaches_every_parameter():
    params, f = _objective_case(5)
    total = f()
    total.backward()
    for name, p in params:
        assert p.grad is not None, name
        assert np.any(p.grad != 0), name


def test_objective_check_row():
    row = check_objective(seeds=2, h=1e-5, tol=1e-4)
    assert row.passed
    assert row.name == "full_objective"
    assert row.seeds == 2


def test_run_all_rows_repeat_within_one_process():
    """Nothing a pass computes (the mined batch's gather plan included) is
    carried into the next: two passes give the same rows."""
    assert run_all(seeds=2).rows == run_all(seeds=2).rows


def test_bench_spec_lists_the_suites_rows_in_order():
    """The benchmark's gradcheck workload checks each pass against
    ``VERIFICATION_CASES`` in ``bench/spec.py``; a change to the suite's
    rows fails here before it fails the benchmark. The file is read, not
    imported, so no bytecode is written next to it."""
    spec = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spec.py"))
    assert list(spec["VERIFICATION_CASES"]) == [row.name for row in run_all(seeds=1).rows]
