"""Training loop: balanced sampling, Adam with decoupled weight decay,
per-step loss logging, epoch-end checkpoints with exact resume.

Determinism contract: (videos, config) fully determine the trajectory at a
fixed BLAS thread count. All training math runs in float32, matching the
checkpoint precision, so save -> load -> continue is bitwise identical to an
uninterrupted run. One generator drives sampling; its state is serialised
into the checkpoint next to the optimiser moments.

Checkpoint layout: the encoder module's parameter block, then an appended
section ``WVOP`` with u32 step, u32 next-epoch, a JSON generator state, and
the first/second moments as float32 in parameter declaration order.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .encoder import EncoderConfig, LinearModel, TransformerModel, load_checkpoint, save_checkpoint
from .errors import ConfigError, FormatError, TrainingError
from .losses import LossConfig, loss_total
from .mining import MiningConfig, mine_batch
from .tensor import Tensor

OPT_MAGIC = b"WVOP"

# one video as the trainer sees it
VideoTriple = tuple[str, int, np.ndarray]


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-3
    weight_decay: float = 5e-4
    batch_normal: int = 16
    batch_abnormal: int = 16
    seed: int = 0
    mining_warmup_epochs: int = 2   # epochs of noisy scores skipped before mining starts
    model: str = "transformer"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    mining: MiningConfig = field(default_factory=MiningConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr < 0 or self.weight_decay < 0:
            raise ConfigError("lr and weight_decay must be >= 0")
        if self.batch_normal < 1 or self.batch_abnormal < 1:
            raise ConfigError("both classes need at least one video per batch")
        if self.mining_warmup_epochs < 0:
            raise ConfigError("mining_warmup_epochs must be >= 0")
        if self.model not in ("transformer", "linear"):
            raise ConfigError(f"model must be transformer or linear, got {self.model!r}")


@dataclass
class LogRow:
    """One row of ``log.csv``; the fields are its columns, in order."""

    step: int
    epoch: int
    l_total: float
    l_snp: float
    l_vid: float
    l_reg: float
    l_cnt: float
    n_ha: int
    n_hn: int
    n_ea: int
    n_en: int
    grad_norm: float      # Euclidean norms over all parameters, as one vector
    update_norm: float

    def as_csv(self) -> list[str]:
        return [str(getattr(self, name)) for name in LOG_COLUMNS]


LOG_COLUMNS = tuple(f.name for f in fields(LogRow))


@dataclass
class TrainResult:
    model: TransformerModel | LinearModel
    log: list[LogRow]
    steps: int
    checkpoint_path: Path | None


# ---------------------------------------------------------------------
# optimiser


@dataclass
class AdamState:
    """The first and second moments of every parameter, each concatenated
    in declaration order into one float32 vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[tuple[str, Tensor]]) -> "AdamState":
        size = sum(p.data.size for _, p in params)
        return cls(m=np.zeros(size, dtype=np.float32), v=np.zeros(size, dtype=np.float32))


def _refuse_non_finite(flat: np.ndarray, params: Sequence[tuple[str, Tensor]], what: str,
                       t: int):
    """Raise naming the parameter that holds ``flat``'s first non-finite
    entry, ``flat`` being per-parameter blocks in declaration order."""
    finite = np.isfinite(flat)
    if not finite.all():
        ends = np.cumsum([p.data.size for _, p in params])
        name = params[int(np.searchsorted(ends, np.argmin(finite), side="right"))][0]
        raise TrainingError(f"non-finite {what} parameter {name} at adam step {t}")


def _norm(x: np.ndarray) -> float:
    """Euclidean norm, summed in float64 by numpy's pairwise sum, which
    does not depend on the BLAS thread count."""
    return float(np.sqrt(np.square(x, dtype=np.float64).sum()))


def adam_step(params: Sequence[tuple[str, Tensor]], grads: Sequence[np.ndarray],
              state: AdamState, lr: float, betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8, weight_decay: float = 0.0) -> tuple[float, float]:
    """One Adam update with bias correction; weight decay applied to the
    parameter directly (decoupled), not mixed into the gradient. Returns
    the Euclidean norms of the gradient and of the change to the parameters.

    The gradients and parameters are concatenated into one vector each and
    updated together; each element sees the same expressions as a
    per-parameter update, so the result is bitwise the same. Afterwards
    each parameter's data is a view of the new flat vector.

    A step is applied whole or not at all: a non-finite gradient or updated
    value raises ``TrainingError`` naming its parameter, and leaves every
    parameter and ``state`` as they were.
    """
    b1, b2 = betas
    t = state.t + 1
    g = np.concatenate([np.ravel(x) for x in grads])
    _refuse_non_finite(g, params, "gradient in", t)
    p = np.concatenate([x.data.ravel() for _, x in params])
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    new = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * p
    _refuse_non_finite(new, params, "update of", t)
    state.m, state.v, state.t = m, v, t
    offset = 0
    for _, x in params:
        x.data = new[offset:offset + x.data.size].reshape(x.data.shape)
        offset += x.data.size
    return _norm(g), _norm(new - p)


# ---------------------------------------------------------------------
# sampling


class BalancedSampler:
    """Per-epoch class-balanced batches, sampling without replacement.

    Each epoch reshuffles both class pools and chunks them; the tail that
    does not fill a batch is dropped, so a video appears at most once per
    epoch."""

    def __init__(self, labels: Sequence[int], batch_normal: int, batch_abnormal: int):
        self.normal = [i for i, y in enumerate(labels) if y == 0]
        self.abnormal = [i for i, y in enumerate(labels) if y == 1]
        if len(self.normal) < batch_normal or len(self.abnormal) < batch_abnormal:
            raise ConfigError(
                f"need {batch_normal} normal / {batch_abnormal} abnormal videos, "
                f"dataset has {len(self.normal)} / {len(self.abnormal)}")
        self.batch_normal = batch_normal
        self.batch_abnormal = batch_abnormal
        self.steps_per_epoch = min(len(self.normal) // batch_normal,
                                   len(self.abnormal) // batch_abnormal)

    def epoch_batches(self, rng: np.random.Generator) -> list[list[int]]:
        norm = rng.permutation(len(self.normal))
        abno = rng.permutation(len(self.abnormal))
        batches = []
        for s in range(self.steps_per_epoch):
            n = [self.normal[i] for i in norm[s * self.batch_normal:(s + 1) * self.batch_normal]]
            a = [self.abnormal[i]
                 for i in abno[s * self.batch_abnormal:(s + 1) * self.batch_abnormal]]
            batches.append(n + a)
        return batches


# ---------------------------------------------------------------------
# optimiser-state serialisation


def _opt_state_bytes(state: AdamState, step: int, next_epoch: int,
                     rng: np.random.Generator) -> bytes:
    rng_blob = json.dumps(rng.bit_generator.state, sort_keys=True).encode("utf-8")
    return b"".join([OPT_MAGIC, struct.pack("<III", step, next_epoch, len(rng_blob)), rng_blob,
                     np.ascontiguousarray(state.m, dtype="<f4").tobytes(),
                     np.ascontiguousarray(state.v, dtype="<f4").tobytes()])


def _parse_opt_state(extra: bytes, params: Sequence[tuple[str, Tensor]], path):
    if extra[:4] != OPT_MAGIC:
        raise FormatError(f"{path}: checkpoint has no optimiser section")
    if len(extra) < 16:
        raise FormatError(f"{path}: truncated optimiser header")
    step, next_epoch, rng_len = struct.unpack_from("<III", extra, 4)
    offset = 16 + rng_len
    if len(extra) < offset:
        raise FormatError(f"{path}: truncated generator state")
    bit_gen = np.random.PCG64()
    try:
        bit_gen.state = json.loads(extra[16:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, ValueError, KeyError,
            OverflowError) as e:
        raise FormatError(f"{path}: bad generator state: {e!r}") from e
    size = sum(p.data.size for _, p in params)
    if len(extra) < offset + 8 * size:
        raise FormatError(f"{path}: truncated moments: {len(extra) - offset} bytes "
                          f"for 2 x {size} float32 values")
    m, v = np.frombuffer(extra, dtype="<f4", count=2 * size, offset=offset) \
        .astype(np.float32).reshape(2, size)
    return AdamState(m=m, v=v, t=step), step, next_epoch, np.random.Generator(bit_gen)


# ---------------------------------------------------------------------
# training


def _build_model(config: TrainConfig):
    if config.model == "linear":
        return LinearModel.init(config.encoder.d_in, config.seed)
    return TransformerModel.init(config.encoder, config.seed)


def _log_bytes_through(path: Path, step: int) -> int:
    """The length of an existing log.csv's header and rows up to ``step``,
    in bytes; 0 if there is no log or it is empty.

    A run resumed into its own directory keeps what it logged before the
    checkpoint and drops the rows of the interrupted epoch, whose steps it
    is about to run again. A torn last row ends the kept part.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
    except FileNotFoundError:
        return 0
    if not lines:
        return 0
    if lines[0] != ",".join(LOG_COLUMNS) + "\n":
        raise FormatError(f"{path}: columns {lines[0].strip()!r} are not "
                          f"{','.join(LOG_COLUMNS)}; cannot resume into this log")
    kept = 1
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if not line.endswith("\n") or len(fields) != len(LOG_COLUMNS):
            break
        try:
            row_step = int(fields[0])
        except ValueError:
            raise FormatError(f"{path}:{i}: bad step {fields[0]!r}") from None
        if row_step > step:
            break
        kept = i
    return len("".join(lines[:kept]).encode("utf-8"))


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def keep_freed_heap():
    """Keep the memory a step frees in the heap for the next step.

    A 32-video step allocates and frees a working set of about 20 MB.
    glibc returns the freed top of the heap to the OS once it exceeds the
    trim threshold, which numpy's arrays only raise to about 1 MB, so the
    next step faults the pages back in: about 2.4k page faults and 7 ms of
    kernel time per step, a quarter of the step. Fixed thresholds of 16 MB
    (mmap) and 64 MB (trim) keep the working set; a training run's peak
    RSS is unchanged. A process-wide setting: ``train_step`` asks for it on
    every call and ``cli.main`` for every subcommand, and only the first
    call in a process does the work. Without glibc's ``mallopt`` this does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class Resume(NamedTuple):
    """A checkpoint's training state, checked against the run's config:
    the model, the optimiser, the last step, the epoch to run next and the
    sampling generator. ``train`` continues from it and mutates it."""

    model: TransformerModel | LinearModel
    opt: AdamState
    step: int
    next_epoch: int
    rng: np.random.Generator


def load_resume(path, config: TrainConfig) -> Resume:
    """Read an epoch-end checkpoint of the model that ``config`` describes."""
    model, extra = load_checkpoint(path)
    found, wanted = model.config_dict(), _build_model(config).config_dict()
    if found != wanted:
        raise ConfigError(f"{path}: checkpoint's model is {found}, config's is {wanted}")
    return Resume(model, *_parse_opt_state(extra, model.named_params(), path))


def _fresh(config: TrainConfig) -> Resume:
    """The state a run that resumes nothing starts from."""
    model = _build_model(config)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))
    return Resume(model, AdamState.for_params(model.named_params()), 0, 0, rng)


def train(videos: Sequence[VideoTriple], config: TrainConfig,
          out_dir=None, resume: Resume | None = None) -> TrainResult:
    """Run the full loop; ``config.epochs`` is the total epoch target.

    With ``resume``, the state ``load_resume`` read from an epoch-end
    checkpoint, training continues from the stored epoch and reproduces the
    uninterrupted run exactly.
    """
    sampler = BalancedSampler([label for _, label, _ in videos],
                              config.batch_normal, config.batch_abnormal)
    model, opt, step, start_epoch, rng = resume if resume is not None else _fresh(config)
    out_path = Path(out_dir) if out_dir is not None else None
    ckpt_path = None
    log_fh = None
    writer = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        ckpt_path = out_path / "checkpoint.wvck"
        log_path = out_path / "log.csv"
        kept = _log_bytes_through(log_path, step) if resume is not None else 0
        if kept:
            # the kept rows are never rewritten, so a resume that dies
            # before its first checkpoint still leaves them on disk
            os.truncate(log_path, kept)
        log_fh = open(log_path, "a" if kept else "w", newline="", encoding="utf-8")
        writer = csv.writer(log_fh, lineterminator="\n")
        if not kept:
            writer.writerow(LOG_COLUMNS)

    log: list[LogRow] = []
    try:
        for epoch in range(start_epoch, config.epochs):
            for batch_indices in sampler.epoch_batches(rng):
                step += 1
                row = train_step(model, [videos[i] for i in batch_indices],
                                 config, opt, step, epoch)
                log.append(row)
                if writer is not None:
                    writer.writerow(row.as_csv())
            if ckpt_path is not None:
                log_fh.flush()   # every row up to the checkpoint's step is on disk
                save_checkpoint(ckpt_path, model,
                                extra=_opt_state_bytes(opt, step, epoch + 1, rng))
        if ckpt_path is not None and start_epoch >= config.epochs:
            # resumed past the target: persist state so the path is valid
            save_checkpoint(ckpt_path, model,
                            extra=_opt_state_bytes(opt, step, start_epoch, rng))
    finally:
        if log_fh is not None:
            log_fh.close()
    return TrainResult(model=model, log=log, steps=step, checkpoint_path=ckpt_path)


def train_step(model, batch_videos: Sequence[VideoTriple], config: TrainConfig,
               opt: AdamState, step: int, epoch: int) -> LogRow:
    """Forward, mine, loss, backward, Adam update for one batch.

    The batch is stacked once into a (B, T, D_in) array, so the whole step
    is one taped graph."""
    keep_freed_heap()
    video_ids = [video_id for video_id, _, _ in batch_videos]
    labels = np.array([label for _, label, _ in batch_videos])
    batch = model.forward(np.stack([feats for _, _, feats in batch_videos]))
    mined = None
    if config.loss.w_contrast > 0 and epoch >= config.mining_warmup_epochs:
        mined = mine_batch(list(zip(video_ids, labels.tolist(), batch.scores.data)),
                           config.mining)
    total, breakdown = loss_total(batch, labels, mined, config.loss)
    if not np.isfinite(breakdown.l_total):
        raise TrainingError(
            f"non-finite loss at step {step} (epoch {epoch}): {breakdown}")
    named = model.named_params()
    for _, p in named:
        p.zero_grad()
    total.backward()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for _, p in named]
    try:
        grad_norm, update_norm = adam_step(named, grads, opt, lr=config.lr,
                                           weight_decay=config.weight_decay)
    except TrainingError as e:
        raise TrainingError(f"step {step} (epoch {epoch}): {e}") from e
    counts = mined.counts() if mined is not None else {"HA": 0, "EA": 0, "HN": 0, "EN": 0}
    return LogRow(step=step, epoch=epoch, l_total=breakdown.l_total,
                  l_snp=breakdown.l_snp, l_vid=breakdown.l_vid,
                  l_reg=breakdown.l_reg, l_cnt=breakdown.l_cnt,
                  n_ha=counts["HA"], n_hn=counts["HN"],
                  n_ea=counts["EA"], n_en=counts["EN"],
                  grad_norm=grad_norm, update_norm=update_norm)
