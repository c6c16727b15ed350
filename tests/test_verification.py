"""Checks on the gradient verification suite itself: coverage, pass/fail
plumbing, a deliberately wrong gradient as negative control, and the pass
rule: a NaN or inf tape gradient fails its row."""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from wvad.tensor import Tensor, no_grad, node
from wvad.verification import CASES, _case_full_objective, check_case, grad_check, run_all


def test_suite_passes_on_fresh_build():
    report = run_all(seeds=3)
    assert report.passed
    assert report.rows[-1].name == "full_objective"
    for row in report.rows:
        assert row.passed, row
        assert row.max_rel_err <= 1e-4


def test_suite_covers_every_op_case():
    report = run_all(seeds=1)
    assert [r.name for r in report.rows] == [name for name, _ in CASES]
    assert report.rows[-1].name == "full_objective"


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

    row = check_case("broken", broken, seeds=2)
    assert not row.passed
    assert "seed" in row.note


def test_objective_reaches_every_parameter():
    params, f = _case_full_objective(np.random.default_rng(5))
    total = f()
    total.backward()
    for name, p in params:
        assert p.grad is not None, name
        assert np.any(p.grad != 0), name


def test_objective_check_row():
    row = check_case("full_objective", _case_full_objective, seeds=2)
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


def loop_max_rel_errs(f, params, h=1e-5):
    """Each parameter's worst relative error, element by element in Python
    floats: the loop that ``grad_check``'s array arithmetic replaced."""
    for _, p in params:
        p.zero_grad()
    f().backward()
    errs = []
    for _, p in params:
        worst = 0.0
        with no_grad():
            for index in np.ndindex(p.data.shape):
                orig = p.data[index]
                p.data[index] = orig + h
                f_plus = float(f().data)
                p.data[index] = orig - h
                f_minus = float(f().data)
                p.data[index] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                analytic = 0.0 if p.grad is None else float(p.grad[index])
                worst = max(worst, abs(analytic - numeric)
                            / max(1.0, abs(analytic), abs(numeric)))
        errs.append(worst)
    return errs


@pytest.mark.parametrize("builder", [b for _, b in CASES], ids=[name for name, _ in CASES])
def test_grad_check_errors_equal_the_element_loop_bit_for_bit(builder):
    params, f = builder(np.random.default_rng(10_000))
    expected = loop_max_rel_errs(f, params)
    assert [row.max_rel_err for row in grad_check(f, params).rows] == expected


# ---------------------------------------------------------------------
# the pass rule: the worst relative error must be <= tol, and NaN is not


def poisoned(t, faults):
    """Identity on the tape whose gradient takes ``faults``, flat index -> value."""
    def backward(g):
        g = np.array(g, dtype=np.float64)
        for i, value in faults.items():
            g.flat[i] = value
        return (g,)
    return node(t.data.copy(), (t,), backward)


def faulty_case(faults_by_build):
    """A builder for sum(a) + sum(b), a of 3 and b of 4 elements, whose tape
    gradient at its n-th build takes ``faults_by_build[n]``, a dict
    {parameter name: {flat index: value}}; the true gradient is all ones."""
    builds = []

    def builder(rng):
        faults = faults_by_build.get(len(builds), {})
        builds.append(rng)
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        return [("a", a), ("b", b)], \
            lambda: poisoned(a, faults.get("a", {})).sum() + poisoned(b, faults.get("b", {})).sum()
    return builder


@pytest.mark.parametrize("index", [0, 3], ids=["first", "last"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_nonfinite_tape_gradient_fails_its_parameter(value, index):
    params, f = faulty_case({0: {"b": {index: value}}})(np.random.default_rng(0))
    report = grad_check(f, params)
    assert [row.passed for row in report.rows] == [True, False]
    assert math.isnan(report.rows[1].max_rel_err)
    assert report.rows[1].note == f"b[{index}]"
    assert not report.passed
    lines = report.summary_lines()
    assert lines[1] == f"gradcheck b: max rel err nan over 1 seeds FAIL (b[{index}])"
    assert lines[-1].startswith("gradcheck total: FAIL")


def test_a_case_fails_when_only_a_later_seed_fails():
    row = check_case("late", faulty_case({1: {"b": {3: math.nan}}}), seeds=2)
    assert not row.passed
    assert math.isnan(row.max_rel_err)
    assert row.note == "seed 1, b[3]"


def test_a_case_note_names_the_first_failing_seed_and_its_worst_element():
    # seed 0: a[1] is off by 1 (rel 1/2), b[2] by 2 (rel 2/3); seed 2: a[0] by 8 (rel 8/9)
    faults = {0: {"a": {1: 2.0}, "b": {2: 3.0}}, 2: {"a": {0: 9.0}}}
    row = check_case("twice", faulty_case(faults), seeds=3)
    assert not row.passed
    assert row.note == "seed 0, b[2]"
    assert row.max_rel_err == pytest.approx(8.0 / 9.0)
    # the note does not move as seeds are added
    assert check_case("twice", faulty_case(faults), seeds=1).note == row.note
