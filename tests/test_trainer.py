"""Trainer tests: Adam against a closed-form oracle, balanced sampling,
determinism, bitwise checkpoint resume, and failure diagnostics."""

import builtins
import collections
import dataclasses
import errno
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import wvad
import wvad.encoder as encoder_mod
import wvad.trainer as trainer_mod
from wvad.encoder import EncoderConfig, save_checkpoint
from wvad.errors import ConfigError, FormatError, TrainingError
from wvad.losses import LossBreakdown, LossConfig
from wvad.mining import MiningConfig
from wvad.synthdata import SynthConfig, generate_dataset, load_split
from wvad.tensor import Tensor, topological_order
from wvad.trainer import (AdamState, BalancedSampler, TrainConfig, adam_step, load_resume,
                          train, train_step)


def micro_videos(n_normal=3, n_abnormal=3, t=8, d=6, seed=11):
    rng = np.random.default_rng(seed)
    videos = []
    for i in range(n_normal):
        videos.append((f"n{i}", 0, rng.normal(size=(t, d)).astype(np.float32)))
    for i in range(n_abnormal):
        f = rng.normal(size=(t, d)).astype(np.float32)
        f[2:5, : d // 2] += 4.0
        videos.append((f"a{i}", 1, f))
    return videos


def micro_config(**kw):
    base = dict(
        epochs=2, lr=1e-3, batch_normal=2, batch_abnormal=2, seed=3,
        mining_warmup_epochs=1,
        encoder=EncoderConfig(num_snippets=8, d_in=6, d_model=8, heads=2, depth=1),
        loss=LossConfig(k=2),
        mining=MiningConfig(k_hard_normal=2, k_easy=2),
    )
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        micro_config(epochs=0)
    with pytest.raises(ConfigError):
        micro_config(lr=-1e-3)
    with pytest.raises(ConfigError):
        micro_config(weight_decay=-0.1)
    with pytest.raises(ConfigError):
        micro_config(batch_normal=0)
    with pytest.raises(ConfigError):
        micro_config(batch_abnormal=0)
    with pytest.raises(ConfigError):
        micro_config(mining_warmup_epochs=-1)
    with pytest.raises(ConfigError):
        micro_config(model="svm")


# ---------------------------------------------------------------------
# Adam


def test_adam_zero_grad_zero_decay_is_noop():
    p = Tensor(np.array([1.5, -2.0, 0.25], dtype=np.float32), requires_grad=True)
    before = p.data.tobytes()
    st = AdamState.for_params([("p", p)])
    for _ in range(5):
        adam_step([("p", p)], [np.zeros(3, dtype=np.float32)], st, lr=0.1)
    assert p.data.tobytes() == before


def test_adam_first_step_unit_gradient():
    # m_hat = v_hat = 1 after one step, so p moves by lr/(1+eps)
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    st = AdamState.for_params([("p", p)])
    adam_step([("p", p)], [np.array([1.0], dtype=np.float32)], st, lr=0.1)
    assert abs(float(p.data[0]) - 0.9) < 1e-6


def test_adam_decay_only_geometric():
    p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    st = AdamState.for_params([("p", p)])
    for _ in range(5):
        adam_step([("p", p)], [np.zeros(1, dtype=np.float32)], st, lr=0.1, weight_decay=0.1)
    expected = 2.0 * (1.0 - 0.1 * 0.1) ** 5
    assert abs(float(p.data[0]) - expected) < 1e-6


def reference_adam(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    p, m, v = float(p0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps) - lr * wd * p
    return p


@pytest.mark.parametrize("seed", range(5))
def test_adam_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    grads = rng.normal(size=12)
    p = Tensor(np.array([0.7], dtype=np.float32), requires_grad=True)
    st = AdamState.for_params([("p", p)])
    for g in grads:
        adam_step([("p", p)], [np.array([g], dtype=np.float32)], st, lr=0.02,
                  weight_decay=0.01)
    expect = reference_adam(0.7, [float(np.float32(g)) for g in grads], lr=0.02, wd=0.01)
    assert abs(float(p.data[0]) - expect) < 1e-5


def test_adam_moments_stay_float32():
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    st = AdamState.for_params([("p", p)])
    adam_step([("p", p)], [np.array([0.5], dtype=np.float32)], st, lr=0.1)
    assert st.m.dtype == np.float32
    assert st.v.dtype == np.float32
    assert p.data.dtype == np.float32


def _adam_params(seed):
    """Five named float32 parameters, one of them a scalar."""
    rng = np.random.default_rng(seed)
    shapes = {"w0": (3, 4), "b0": (4,), "scale": (), "block0.wq": (2, 3), "b1": (5,)}
    return [(name, Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True))
            for name, s in shapes.items()]


def test_adam_state_is_one_flat_vector_per_moment():
    st = AdamState.for_params(_adam_params(0))
    assert st.m.shape == st.v.shape == (12 + 4 + 1 + 6 + 5,)


def test_flat_adam_is_bitwise_the_per_parameter_update():
    """20 steps with weight decay; parameter 2 never gets a gradient (the
    zeros ``train_step`` passes for it)."""
    params, ref = _adam_params(1), [p for _, p in _adam_params(1)]
    rng = np.random.default_rng(2)
    st = AdamState.for_params(params)
    m = [np.zeros_like(p.data) for p in ref]
    v = [np.zeros_like(p.data) for p in ref]
    for t in range(1, 21):
        grads = [(rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-4, 3))
                 .astype(np.float32) for _, p in params]
        grads[2] = np.zeros_like(params[2][1].data)
        adam_step(params, grads, st, lr=3e-3, weight_decay=5e-4)
        oracles.adam_step(ref, grads, m, v, t, lr=3e-3, weight_decay=5e-4)
        for (_, p), r in zip(params, ref):
            assert p.data.shape == r.data.shape
            assert p.data.tobytes() == r.data.tobytes()
        assert st.m.tobytes() == b"".join(x.tobytes() for x in m)
        assert st.v.tobytes() == b"".join(x.tobytes() for x in v)
    assert st.t == 20


def _optimiser_bytes(params, state):
    return [p.data.tobytes() for _, p in params], state.m.tobytes(), state.v.tobytes(), state.t


@pytest.mark.parametrize("fault", ["nan gradient", "inf gradient", "update overflow"])
def test_a_refused_adam_step_changes_nothing(fault):
    """A step with a non-finite gradient, or with a finite gradient whose
    update overflows float32, raises naming the parameter, and leaves every
    parameter's bytes and the moments and step count as they were. The
    fault sits in block0.wq, at the first value of its block."""
    params = _adam_params(3)
    st = AdamState.for_params(params)
    grads = [np.zeros_like(p.data) for _, p in params]
    if fault == "update overflow":
        # from fresh moments only block0.wq[0, 0] moves by lr: 2 - 3e38 - 3e37 * 2
        # is past float32's -3.4e38, while decay alone keeps the rest finite
        params[3][1].data[0, 0] = 2.0
        grads[3][0, 0] = 1.0
        lr, step, what = 3e38, 1, "update of"
    else:
        rng = np.random.default_rng(4)
        for _ in range(3):
            adam_step(params, [rng.normal(size=p.data.shape).astype(np.float32)
                               for _, p in params], st, lr=1e-3)
        grads[3][0, 0] = np.nan if fault == "nan gradient" else np.inf
        grads[4][0] = np.nan
        lr, step, what = 0.1, 4, "gradient in"
    before = _optimiser_bytes(params, st)
    with np.errstate(over="ignore"):
        with pytest.raises(TrainingError,
                           match=f"^non-finite {what} parameter block0.wq at adam step {step}$"):
            adam_step(params, grads, st, lr=lr, weight_decay=0.1)
    assert _optimiser_bytes(params, st) == before


@pytest.mark.parametrize("fault", ["gradient", "update"])
def test_a_refused_training_step_names_its_step_and_changes_nothing(fault, monkeypatch):
    """Through ``train_step`` the refusal also names the step and epoch, and
    the model and the optimiser stay as the step before left them."""
    cfg = micro_config()
    model = trainer_mod._build_model(cfg)
    named = model.named_params()
    opt = AdamState.for_params(named)
    batch = micro_videos()[1:5]
    train_step(model, batch, cfg, opt, step=1, epoch=0)
    names = [name for name, _ in named]
    if fault == "gradient":
        backward = Tensor.backward

        def poisoned(self):
            backward(self)
            named[names.index("block0.wq")][1].grad[0, 0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
    else:
        # a first moment at float32's largest value overflows m_hat = m / (1 - b1^t)
        opt.m[sum(p.data.size for _, p in named[:names.index("block0.wq")])] = \
            np.finfo(np.float32).max
    before = _optimiser_bytes(named, opt)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=f"^step 2 \\(epoch 0\\): non-finite "
                           f"{'gradient in' if fault == 'gradient' else 'update of'} "
                           f"parameter block0.wq at adam step 2$"):
            train_step(model, batch, cfg, opt, step=2, epoch=0)
    assert _optimiser_bytes(model.named_params(), opt) == before


def test_adam_reports_gradient_and_update_norms():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    st = AdamState.for_params([("p", p)])
    grad_norm, update_norm = adam_step([("p", p)], [np.array([3.0, -4.0], dtype=np.float32)],
                                       st, lr=0.1)
    assert grad_norm == 5.0
    # a first step moves every element by lr * g / (|g| + eps)
    assert update_norm == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-6)


# ---------------------------------------------------------------------
# sampling


def test_sampler_epoch_structure():
    labels = [0] * 7 + [1] * 5
    sampler = BalancedSampler(labels, batch_normal=2, batch_abnormal=2)
    assert sampler.steps_per_epoch == 2
    batches = sampler.epoch_batches(np.random.default_rng(1))
    assert len(batches) == 2
    seen = []
    for batch in batches:
        got = [labels[i] for i in batch]
        assert got == [0, 0, 1, 1]
        seen.extend(batch)
    # without replacement: nothing repeats within the epoch
    assert len(seen) == len(set(seen))


def test_sampler_insufficient_videos():
    with pytest.raises(ConfigError):
        BalancedSampler([0, 0, 1], batch_normal=3, batch_abnormal=1)


def test_sampler_deterministic_given_state():
    labels = [0] * 6 + [1] * 6
    sampler = BalancedSampler(labels, 2, 2)
    a = sampler.epoch_batches(np.random.default_rng(9))
    b = sampler.epoch_batches(np.random.default_rng(9))
    assert a == b


# ---------------------------------------------------------------------
# training loop


def test_train_runs_and_logs():
    videos = micro_videos()
    cfg = micro_config(epochs=3)
    res = train(videos, cfg)
    # 3 normals / batch 2 -> 1 step per epoch
    assert res.steps == 3
    assert len(res.log) == 3
    for row in res.log:
        assert math.isfinite(row.l_total)
    assert [r.epoch for r in res.log] == [0, 1, 2]


def test_train_zero_lr_leaves_params_untouched():
    videos = micro_videos()
    cfg = micro_config(epochs=2, lr=0.0, weight_decay=0.5)
    model_before = trainer_mod._build_model(cfg)
    before = {k: p.data.tobytes() for k, p in model_before.named_params()}
    res = train(videos, cfg)
    after = {k: p.data.tobytes() for k, p in res.model.named_params()}
    assert before == after
    assert all(r.update_norm == 0.0 and r.grad_norm > 0.0 for r in res.log)


def test_train_mining_warmup_delays_contrastive():
    videos = micro_videos()
    cfg = micro_config(epochs=3, mining_warmup_epochs=2)
    res = train(videos, cfg)
    for row in res.log:
        if row.epoch < 2:
            assert row.l_cnt == 0.0 and row.n_ha == 0 and row.n_hn == 0
    assert any(row.n_hn > 0 for row in res.log if row.epoch >= 2)


def test_train_contrastive_weight_zero_never_mines():
    videos = micro_videos()
    cfg = micro_config(epochs=3, mining_warmup_epochs=0, loss=LossConfig(k=2, w_contrast=0.0))
    res = train(videos, cfg)
    assert all(row.l_cnt == 0.0 and row.n_ha == 0 for row in res.log)


def test_train_writes_log_csv(tmp_path):
    videos = micro_videos()
    cfg = micro_config(epochs=2)
    res = train(videos, cfg, out_dir=tmp_path / "run")
    text = (tmp_path / "run" / "log.csv").read_text().strip().splitlines()
    assert text[0] == ("step,epoch,l_total,l_snp,l_vid,l_reg,l_cnt,n_ha,n_hn,n_ea,n_en,"
                       "grad_norm,update_norm")
    assert len(text) == 1 + len(res.log)
    # each row is its LogRow's fields in order, each written as its repr
    assert text[1:] == [",".join(map(repr, dataclasses.astuple(row))) for row in res.log]
    first = text[1].split(",")
    assert int(first[0]) == res.log[0].step
    assert float(first[2]) == res.log[0].l_total
    assert float(first[11]) == res.log[0].grad_norm > 0.0
    assert float(first[12]) == res.log[0].update_norm > 0.0


def test_logged_norms_are_those_of_the_applied_step(monkeypatch):
    """grad_norm is the norm of every parameter's gradient as one vector,
    update_norm that of the change Adam made to the parameters."""
    videos = micro_videos()
    seen = []
    step = trainer_mod.adam_step

    def recording(params, grads, state, **kw):
        before = np.concatenate([p.data.ravel() for _, p in params]).astype(np.float64)
        g = np.concatenate([np.ravel(x) for x in grads]).astype(np.float64)
        norms = step(params, grads, state, **kw)
        after = np.concatenate([p.data.ravel() for _, p in params]).astype(np.float64)
        seen.append((np.linalg.norm(g), np.linalg.norm(after - before)))
        return norms

    monkeypatch.setattr(trainer_mod, "adam_step", recording)
    res = train(videos, micro_config(epochs=2))
    assert len(seen) == len(res.log)
    for row, (g, u) in zip(res.log, seen):
        assert row.grad_norm == pytest.approx(g, rel=1e-12)
        assert row.update_norm == pytest.approx(u, rel=1e-6)


def test_train_linear_model():
    videos = micro_videos()
    cfg = micro_config(epochs=2, model="linear")
    res = train(videos, cfg)
    assert res.model.kind == "linear"
    assert all(math.isfinite(r.l_total) for r in res.log)


def test_train_same_seed_bitwise_identical(tmp_path):
    videos = micro_videos()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    train(videos, micro_config(epochs=3), out_dir=out_a)
    train(videos, micro_config(epochs=3), out_dir=out_b)
    assert (out_a / "log.csv").read_bytes() == (out_b / "log.csv").read_bytes()
    assert (out_a / "checkpoint.wvck").read_bytes() == (out_b / "checkpoint.wvck").read_bytes()


def test_one_and_two_blas_threads_write_the_same_bytes(tmp_path):
    """``wvad train`` in a process with one BLAS thread and in one with two:
    the checkpoint and log.csv bytes agree. The batch (32 videos of 33
    tokens at width 32) is large enough for the BLAS to split its products."""
    generate_dataset(SynthConfig(n_normal_train=16, n_abnormal_train=16, n_normal_test=0,
                                 n_abnormal_test=0), tmp_path / "data")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 3}}), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(wvad.__file__).parents[1]),
                   **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS"), threads))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "wvad.cli", "train", "--config", str(config),
                        "--data", str(tmp_path / "data"), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append([(out / name).read_bytes() for name in ("checkpoint.wvck", "log.csv")])
    assert outputs[0] == outputs[1]


def test_train_seed_changes_trajectory():
    videos = micro_videos()
    res_a = train(videos, micro_config(epochs=2, seed=3))
    res_b = train(videos, micro_config(epochs=2, seed=4))
    assert res_a.log[-1].l_total != res_b.log[-1].l_total


def test_resume_reproduces_uninterrupted_run(tmp_path):
    videos = micro_videos()
    full_dir = tmp_path / "full"
    res_full = train(videos, micro_config(epochs=4), out_dir=full_dir)

    half_dir = tmp_path / "half"
    train(videos, micro_config(epochs=2), out_dir=half_dir)
    rest_dir = tmp_path / "rest"
    res_rest = train(videos, micro_config(epochs=4), out_dir=rest_dir,
                     resume=load_resume(half_dir / "checkpoint.wvck", micro_config(epochs=4)))

    assert (full_dir / "checkpoint.wvck").read_bytes() == \
        (rest_dir / "checkpoint.wvck").read_bytes()
    tail = [r for r in res_full.log if r.epoch >= 2]
    assert res_rest.log == tail

    # resumed in its own directory after dying mid-epoch: log.csv keeps the
    # rows up to the checkpoint's step, drops the later ones, then appends
    crash_dir = tmp_path / "crash"
    train(videos, micro_config(epochs=3), out_dir=crash_dir)
    (crash_dir / "checkpoint.wvck").write_bytes((half_dir / "checkpoint.wvck").read_bytes())
    train(videos, micro_config(epochs=4), out_dir=crash_dir,
          resume=load_resume(crash_dir / "checkpoint.wvck", micro_config(epochs=4)))
    for name in ("checkpoint.wvck", "log.csv"):
        assert (crash_dir / name).read_bytes() == (full_dir / name).read_bytes(), name

    # resumed into a directory whose log.csv is empty: the log starts afresh
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    (empty_dir / "log.csv").write_bytes(b"")
    train(videos, micro_config(epochs=4), out_dir=empty_dir,
          resume=load_resume(half_dir / "checkpoint.wvck", micro_config(epochs=4)))
    for name in ("checkpoint.wvck", "log.csv"):
        assert (empty_dir / name).read_bytes() == (rest_dir / name).read_bytes(), name

    # resumed at or past its epoch target into a new directory: no step runs,
    # and the checkpoint written there reads back to the state it started from
    for epochs in (4, 3):
        past_dir = tmp_path / f"past{epochs}"
        start = load_resume(full_dir / "checkpoint.wvck", micro_config(epochs=epochs))
        res = train(videos, micro_config(epochs=epochs), out_dir=past_dir, resume=start)
        assert res.log == [] and res.steps == start.step == 4
        back = load_resume(past_dir / "checkpoint.wvck", micro_config(epochs=epochs))
        assert (back.step, back.next_epoch, back.opt.t) == (4, 4, 4)
        assert [p.data.tobytes() for _, p in back.model.named_params()] == \
            [p.data.tobytes() for _, p in res_full.model.named_params()]
        full = load_resume(full_dir / "checkpoint.wvck", micro_config(epochs=epochs))
        assert (back.opt.m.tobytes(), back.opt.v.tobytes()) == \
            (full.opt.m.tobytes(), full.opt.v.tobytes())
        assert back.rng.bit_generator.state == full.rng.bit_generator.state


def test_a_run_killed_anywhere_twice_resumes_to_the_same_bytes(tmp_path):
    """``tests/kill_resume.py``: a fresh run killed before any step or just
    before or after a checkpoint's ``os.replace``, the run resuming it
    killed again at any such point, and one more resume end in the
    uninterrupted run's checkpoint and log.csv bytes. After every kill the
    log still holds the rows up to the checkpoint's step. Each kill made
    before ``os.replace`` leaves its temporary file, which nothing reads or
    removes. Two processes share the 90 chains."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(wvad.__file__).parents[1]), str(Path(__file__).parent)]),
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    procs = []
    for part in range(2):
        work = tmp_path / f"part{part}"
        work.mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("kill_resume.py")), str(work),
             str(part), "2"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    counts = collections.Counter()
    for proc in procs:
        out, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
        counts.update(json.loads(out))
    assert counts == {"chains": 90, "second kills": 78, "stale temporaries": 60}


@pytest.mark.parametrize("text, message", [
    ("step,epoch,l_total\n1,0,0.5\n", r"log.csv: columns 'step,epoch,l_total' are not step,"),
    (",".join(trainer_mod.LOG_COLUMNS) + "\none" + ",0" * 12 + "\n", r"log.csv:2: bad step 'one'"),
], ids=["columns", "step"])
def test_resume_rejects_a_log_it_cannot_keep_rows_of(tmp_path, text, message):
    videos = micro_videos()
    out = tmp_path / "run"
    train(videos, micro_config(epochs=1), out_dir=out)
    (out / "log.csv").write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        train(videos, micro_config(epochs=2), out_dir=out,
              resume=load_resume(out / "checkpoint.wvck", micro_config(epochs=2)))


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    """A write that fails halfway (a full disk) leaves the previous
    checkpoint byte-identical and no temporary file behind."""
    model = trainer_mod._build_model(micro_config())
    path = tmp_path / "checkpoint.wvck"
    trainer_mod.save_checkpoint(path, model, extra=b"old")
    before = path.read_bytes()

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(bytes(data)[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(encoder_mod, "open",
                        lambda *a, **k: FullDisk(builtins.open(*a, **k)), raising=False)
    with pytest.raises(OSError):
        trainer_mod.save_checkpoint(path, model, extra=b"new")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.wvck"]


def test_resume_requires_matching_model_kind(tmp_path):
    """A resume refuses a checkpoint whose model config is not the run's:
    another kind, another encoder field, or a linear model of another D."""
    videos = micro_videos()
    deeper = dataclasses.replace(micro_config().encoder, depth=2, heads=4)
    narrower = dataclasses.replace(micro_config().encoder, d_in=5)
    for i, (first, then, message) in enumerate([
            ({}, {"model": "linear"}, r"'model': 'transformer'.*'model': 'linear'"),
            ({}, {"encoder": deeper},
             r"'heads': 2, 'depth': 1, .*config's is .*'heads': 4, 'depth': 2, "),
            ({"model": "linear"}, {"model": "linear", "encoder": narrower},
             r"is \{'model': 'linear', 'd_in': 6\}, config's is \{'model': 'linear', 'd_in': 5\}"),
    ]):
        out = tmp_path / f"run{i}"
        train(videos, micro_config(epochs=1, **first), out_dir=out)
        with pytest.raises(ConfigError, match=message):
            load_resume(out / "checkpoint.wvck", micro_config(epochs=2, **then))


def test_resume_rejects_checkpoint_without_optimiser(tmp_path):
    cfg = micro_config(epochs=1)
    model = trainer_mod._build_model(cfg)
    path = tmp_path / "bare.wvck"
    save_checkpoint(path, model)
    with pytest.raises(FormatError):
        load_resume(path, cfg)


def test_resume_rejects_truncated_optimiser(tmp_path):
    """Cut in the moments, or inside the optimiser section's 16-byte header."""
    videos = micro_videos()
    cfg = micro_config(epochs=1)
    out = tmp_path / "run"
    train(videos, cfg, out_dir=out)
    blob = (out / "checkpoint.wvck").read_bytes()
    header_at = len(blob) - len(encoder_mod.load_checkpoint(out / "checkpoint.wvck")[1])
    for end, message in ((len(blob) - 8, "truncated moments"),
                         (header_at + 10, "truncated optimiser header")):
        (tmp_path / "cut.wvck").write_bytes(blob[:end])
        with pytest.raises(FormatError, match=message):
            load_resume(tmp_path / "cut.wvck", micro_config(epochs=2))


def _with_generator_state(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its generator-state JSON
    text replaced by ``edit(text)``."""
    model, extra = encoder_mod.load_checkpoint(src)
    step, next_epoch, n = struct.unpack_from("<III", extra, 4)
    blob = edit(extra[16:16 + n].decode("utf-8")).encode("utf-8")
    save_checkpoint(dst, model, extra=extra[:4] + struct.pack("<III", step, next_epoch, len(blob))
                    + blob + extra[16 + n:])


@pytest.mark.parametrize("edit", [
    lambda s: s.replace('"PCG64"', '"PCG65"'),      # another generator's name
    lambda s: "[1, 2]",                              # valid JSON of the wrong type
    lambda s: s.replace('"inc"', '"inx"'),           # a missing key
    lambda s: s.replace('"has_uint32": 0', '"has_uint32": "no"'),
], ids=["name", "type", "key", "value"])
def test_resume_rejects_corrupt_generator_state(tmp_path, edit):
    videos = micro_videos()
    out = tmp_path / "run"
    train(videos, micro_config(epochs=1), out_dir=out)
    bad = tmp_path / "bad.wvck"
    _with_generator_state(out / "checkpoint.wvck", bad, edit)
    with pytest.raises(FormatError, match="generator state"):
        load_resume(bad, micro_config(epochs=2))


def test_nonfinite_loss_aborts_with_step(monkeypatch):
    videos = micro_videos()

    def poisoned(batch, labels, mined, config):
        bd = LossBreakdown(l_total=float("nan"), l_cnt=0.0, l_snp=0.0,
                           l_vid=0.0, l_reg=0.0)
        return Tensor(np.float32(np.nan)), bd

    monkeypatch.setattr(trainer_mod, "loss_total", poisoned)
    with pytest.raises(TrainingError, match="step 1"):
        train(videos, micro_config(epochs=1))


def test_mined_step_is_one_small_graph(monkeypatch):
    """One arm-d step with mining engaged, on the reference shapes (16 + 16
    videos, T=32, D_in=D=32), builds one taped graph of at most 66 nodes,
    counted with the walk backward replays: 41 parameters and 25 ops.
    Attention, layer norm, GELU, each affine map, each block's conv over
    the tokens (cls row passed through, bias included), the input
    projection with the cls token, each sigmoid head, each objective term
    and their weighted sum are one node each (113 nodes with the objective
    and the heads composed, 131 with the affine maps and the cls split
    composed as well, 169 with composed attention too, 265 with every op
    composed; a graph per video holds 6,483)."""
    cfg = TrainConfig(mining_warmup_epochs=0)
    assert cfg.encoder.num_snippets == cfg.encoder.d_in == cfg.encoder.d_model == 32
    videos = micro_videos(n_normal=16, n_abnormal=16, t=32, d=32, seed=5)
    model = trainer_mod._build_model(cfg)
    seen = {}

    def counting(batch, labels, mined, config):
        total, breakdown = loss_total(batch, labels, mined, config)
        seen["nodes"] = len(topological_order(total))
        seen["mined"] = mined.counts()
        return total, breakdown

    loss_total = trainer_mod.loss_total
    monkeypatch.setattr(trainer_mod, "loss_total", counting)
    train_step(model, videos, cfg, AdamState.for_params(model.named_params()), step=1, epoch=0)
    assert all(seen["mined"].values()), seen["mined"]   # every term is in the graph
    assert seen["nodes"] <= 66, seen["nodes"]


def test_a_reference_mined_step_keeps_only_what_its_backward_reads(tmp_path, monkeypatch):
    """One arm-d step with mining engaged on 16 + 16 videos of the
    reference dataset, after one warm step. Its ``tracemalloc`` peak over
    its start is at most 8.5 MB and the memory held right after backward at
    most 7 MB (11.8 and 10.7 MB while every interior gradient, GELU's x^2
    and 1 + tanh, and the conv's padded input were kept until the graph was
    dropped); after backward no node with parents holds a gradient."""
    import tracemalloc
    generate_dataset(SynthConfig(), tmp_path / "data")
    videos = [(v.record.id, v.record.video_label, v.features)
              for v in load_split(tmp_path / "data", "train")]
    batch = ([v for v in videos if v[1] == 0][:16] + [v for v in videos if v[1] == 1][:16])
    cfg = TrainConfig(mining_warmup_epochs=0)
    model = trainer_mod._build_model(cfg)
    opt = AdamState.for_params(model.named_params())
    train_step(model, batch, cfg, opt, step=1, epoch=0)

    seen = {}
    backward = Tensor.backward

    def measured(self):
        backward(self)
        seen["held"] = tracemalloc.get_traced_memory()[0] - seen["start"]
        seen["graph"] = topological_order(self)

    monkeypatch.setattr(Tensor, "backward", measured)
    tracemalloc.start()
    try:
        seen["start"] = tracemalloc.get_traced_memory()[0]
        row = train_step(model, batch, cfg, opt, step=2, epoch=0)
        peak = tracemalloc.get_traced_memory()[1] - seen["start"]
    finally:
        tracemalloc.stop()
    assert min(row.n_ha, row.n_ea, row.n_hn, row.n_en) > 0   # every term is in the graph
    assert peak <= 8.5e6, peak
    assert seen["held"] <= 7.0e6, seen["held"]
    interior = [n for n in seen["graph"] if n._parents]
    assert len(interior) == 25
    assert all(n.grad is None for n in interior)


def test_overfit_single_batch_drives_loss_down():
    # fixed micro-batch, repeated steps: the objective should fall hard
    videos = micro_videos(n_normal=2, n_abnormal=2)
    cfg = micro_config(epochs=30, batch_normal=2, batch_abnormal=2,
                       lr=5e-3, mining_warmup_epochs=30)
    res = train(videos, cfg)
    first = res.log[0].l_total
    last = res.log[-1].l_total
    assert last < 0.5 * first


# ---------------------------------------------------------------------
# heap thresholds


def test_train_step_driven_directly_keeps_the_freed_heap(monkeypatch):
    """A loop over ``train_step`` outside ``train`` (a notebook, a profiling
    script) gets the heap thresholds too."""
    calls = []
    monkeypatch.setattr(trainer_mod, "keep_freed_heap", lambda: calls.append(1))
    cfg = micro_config()
    model = trainer_mod._build_model(cfg)
    opt = AdamState.for_params(model.named_params())
    for step in (1, 2):
        train_step(model, micro_videos()[1:5], cfg, opt, step=step, epoch=0)
    assert len(calls) == 2


def test_keep_freed_heap_sets_the_thresholds_once_per_process(monkeypatch):
    """Every step calls it, so the ``ctypes`` lookup and the two ``mallopt``
    calls run on the first call only."""
    made = []

    class FakeLibc:
        def __init__(self, name):
            made.append(name)
            self.mallopt = lambda param, value: made.append((param, value))

    trainer_mod.keep_freed_heap.cache_clear()
    monkeypatch.setattr(trainer_mod.ctypes, "CDLL", FakeLibc)
    try:
        for _ in range(3):
            trainer_mod.keep_freed_heap()
        assert made == [None, (trainer_mod._M_MMAP_THRESHOLD, 16 << 20),
                        (trainer_mod._M_TRIM_THRESHOLD, 64 << 20)]
    finally:
        trainer_mod.keep_freed_heap.cache_clear()
