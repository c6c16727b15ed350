"""Deterministic cost guards: counts that do not depend on the machine's
speed, each bounded at its measured value plus a stated slack.

Wall time on a shared box moves by up to 2x between runs, so these tests
count work instead of timing it:

- Calls into the package's own functions during one training step, counted
  with ``sys.setprofile`` after one warm step on 16 + 16 reference videos.
  Ufunc calls, operators and the time inside BLAS are not profiler events,
  so the count guards the step's Python overhead, not its arithmetic. The
  bounds are upper bounds only: newer Pythons inline comprehensions, which
  only lowers the count.
- Objective evaluations of one ``verification.run_all(seeds=5)`` pass, taken
  from the cases' parameter sizes without running the finite differences:
  one taped evaluation plus two per parameter element, per case and seed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import wvad
from wvad import cli, verification
from wvad.synthdata import SynthConfig, generate_dataset, load_split
from wvad.trainer import AdamState, TrainConfig, _build_model, train_step

PACKAGE = str(Path(wvad.__file__).parent)

# measured with CPython 3.11.7 and numpy 2.4; about 5% slack
STEP_CALLS = {"d": (618, 649), "c": (496, 521)}
RUN_ALL_SEEDS = 5
RUN_ALL_OBJECTIVE_EVALS = 8495


@pytest.fixture(scope="module")
def reference_batch(tmp_path_factory):
    """16 normal and 16 abnormal train videos of the reference dataset."""
    root = tmp_path_factory.mktemp("data")
    generate_dataset(SynthConfig(), root)
    videos = [(v.record.id, v.record.video_label, v.features)
              for v in load_split(root, "train")]
    return [v for v in videos if v[1] == 0][:16] + [v for v in videos if v[1] == 1][:16]


def package_calls(fn) -> int:
    """Calls of functions defined in the package's source files while ``fn``
    runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("arm", ["d", "c"])
def test_a_training_step_makes_a_bounded_number_of_package_calls(reference_batch, arm):
    """A mined arm-d step and an arm-c step on the reference shapes."""
    config = cli.ablation_train_config(TrainConfig(mining_warmup_epochs=0), arm, seed=0)
    model = _build_model(config)
    opt = AdamState.for_params(model.named_params())
    train_step(model, reference_batch, config, opt, step=1, epoch=0)
    rows = []
    calls = package_calls(lambda: rows.append(
        train_step(model, reference_batch, config, opt, step=2, epoch=0)))
    if arm == "d":
        assert min(rows[0].n_ha, rows[0].n_ea, rows[0].n_hn, rows[0].n_en) > 0
    measured, bound = STEP_CALLS[arm]
    assert calls <= bound, f"{calls} calls into the package (measured {measured})"


def test_a_gradient_check_pass_evaluates_a_bounded_number_of_objectives():
    evals = 0
    for _, builder in verification.CASES:
        for seed in range(RUN_ALL_SEEDS):
            params, _ = builder(np.random.default_rng(10_000 + seed))
            evals += 1 + 2 * sum(p.data.size for _, p in params)
    assert evals <= RUN_ALL_OBJECTIVE_EVALS, evals
