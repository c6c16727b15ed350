"""Training objective: four weighted terms over a mixed batch.

Every term takes the whole batch at once, (B, T) snippet scores, (B,) video
scores and (B, T, D) features, and is a fixed handful of array ops however
many videos the batch holds (the batch-MIL set-up of Sultani et al. 2018).

  l_vid   binary cross-entropy on the video-level scores, averaged over the
          batch so its scale does not depend on batch size
  l_snp   ranking hinge between abnormal and normal videos: the mean of each
          video's top-k snippet scores must separate by a margin of 1
  l_reg   per-video smoothness (squared score differences) plus sparsity
          (mean score), both scaled by 1/T and summed over the batch
  l_cnt   contrastive pull of hard snippets toward their easy counterparts,
          on L2-normalised features with a temperature, negated-log-ratio
          form; anchors are hard abnormal (positives easy abnormal,
          negatives easy normal) and symmetrically hard normal

A term with weight 0.0 is skipped entirely and reported as 0 in the
breakdown, which keeps ablations honest: no gradient can leak from a
disabled term.

Each term is one tape node with a closed-form backward, and the weighted
sum is one more. Each forward runs the numpy expressions of the term's
composed form (a chain of generic tape ops, kept in ``tests/oracles.py``)
in the same order, so it is bitwise that form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ScoredBatch
from .errors import ConfigError, TrainingError
from .mining import MinedSets
from .tensor import Tensor, array_mean, node, unit_rows, unit_rows_backward

_CLAMP = 1e-7


@dataclass
class LossConfig:
    k: int = 3
    smooth_weight: float = 5e-4      # weight of the squared-difference term inside l_reg
    sparse_weight: float = 5e-4      # weight of the mean-score term inside l_reg
    temperature: float = 0.07
    w_contrast: float = 1.0
    w_snippet: float = 1.0
    w_video: float = 1.0
    w_reg: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.smooth_weight < 0 or self.sparse_weight < 0:
            raise ConfigError("regularisation weights must be >= 0")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        for name in ("w_contrast", "w_snippet", "w_video", "w_reg"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


def length_error(video_id: str, n: int, config: LossConfig) -> str | None:
    """Why a video of ``n`` snippets is too short for a loss term that is on, or None."""
    if config.w_snippet > 0 and n < config.k:
        return f"video {video_id}: k must be in [1, {n}], got {config.k}"
    if config.w_reg > 0 and n < 2:
        return f"video {video_id}: need at least 2 snippets, got {n}"
    return None


@dataclass
class LossBreakdown:
    """Scalar values of the objective terms, as logged per training step."""

    l_total: float
    l_cnt: float
    l_snp: float
    l_vid: float
    l_reg: float


def loss_video(video_scores: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy of (B,) video-level scores against labels.

    Scores are clamped to [1e-7, 1-1e-7] before the log; the clamp passes
    no gradient where it binds.
    """
    y = np.asarray(labels)
    if video_scores.data.shape != y.shape or y.ndim != 1:
        raise ValueError(f"scores {video_scores.data.shape} vs labels {y.shape}")
    if not y.size:
        raise ValueError("empty batch")
    v, dtype = video_scores.data, video_scores.data.dtype
    # the probability given to the true label: v if abnormal, 1 - v if normal
    sign = (2 * y - 1).astype(dtype)
    p = np.minimum(np.maximum(v, _CLAMP), 1.0 - _CLAMP) * sign + (1 - y).astype(dtype)

    def backward(g):
        inside = (v > _CLAMP) & (v < 1.0 - _CLAMP)
        return ((-g / y.size) / p * sign * inside,)

    return node(-array_mean(np.log(p)), (video_scores,), backward)


def loss_snippet_topk(scores: Tensor, labels, k: int) -> Tensor:
    """Ranking hinge summed over abnormal/normal video pairs.

    Rows of the (B, T) scores are videos, labelled 1 (abnormal) or 0
    (normal); each pair adds max(0, 1 - topk_mean(abnormal) +
    topk_mean(normal)), zero once the abnormal video's top-k mean exceeds
    the normal one's by the margin. Ties in the top k break toward the
    lowest index, as in ``tensor.topk_mean``. The i-th abnormal row is
    paired with the i-th normal row, in batch order, for the first min(A, N)
    of each.
    """
    x, y = scores.data, np.asarray(labels)
    if x.ndim != 2:
        raise ValueError("loss_snippet_topk expects (videos, T) score arrays")
    if y.shape != x.shape[:1]:
        raise ValueError(f"scores {x.shape} vs labels {y.shape}")
    if not 1 <= k <= x.shape[1]:
        raise ValueError(f"k must be in [1, {x.shape[1]}], got {k}")
    abnormal, normal = (y == 1).nonzero()[0], (y == 0).nonzero()[0]
    m = min(len(abnormal), len(normal))
    abnormal, normal = abnormal[:m], normal[:m]
    top = (-x).argsort(axis=1, kind="stable")[:, :k]
    values = x[np.arange(x.shape[0])[:, None], top]
    margin = x.dtype.type(1) - array_mean(values[abnormal], 1) + array_mean(values[normal], 1)

    def backward(g):
        active = (g * (margin > 0) / k)[:, None]
        z = np.zeros_like(x)
        z[abnormal[:, None], top[abnormal]] = -active
        z[normal[:, None], top[normal]] = active
        return (z,)

    return node(np.add.reduce(np.maximum(margin, 0.0), axis=None), (scores,), backward)


def loss_regularisation(scores: Tensor, smooth_weight: float, sparse_weight: float) -> Tensor:
    """Smoothness + sparsity of (B, T) score rows, both scaled by 1/T and
    summed over the videos."""
    x = scores.data
    if x.ndim != 2:
        raise ValueError("loss_regularisation expects (videos, T) scores")
    n = x.shape[1]
    if n < 2:
        raise ValueError(f"need at least 2 snippets, got {n}")
    smooth, sparse, count = map(x.dtype.type, (smooth_weight, sparse_weight, n))
    diffs = x[:, 1:] - x[:, :-1]

    def backward(g):
        g_n = g / count
        g_diffs = diffs * (2.0 * (g_n * smooth))
        z = np.full(x.shape, g_n * sparse, dtype=x.dtype)
        z[:, 1:] += g_diffs
        z[:, :-1] -= g_diffs
        return (z,)

    value = (np.add.reduce(diffs * diffs, axis=None) * smooth
             + np.add.reduce(x, axis=None) * sparse) / count
    return node(value, (scores,), backward)


def _info_nce(a: np.ndarray, p: np.ndarray, n: np.ndarray, inv_temperature: float):
    """Sum over all anchor/positive pairs of the negated log-ratio
    -log(exp(s_ap) / (exp(s_ap) + sum_n exp(s_an))), s = (row . row) / temperature,
    for (A, D) anchor, (P, D) positive and (N, D) negative rows.

    Returns the value and a function from its gradient to the three row
    sets' gradients: the log-sum-exp backward in closed form.
    """
    s_ap = a @ p.T                                      # (A, P)
    s_ap *= inv_temperature
    e_an = a @ n.T                                      # (A, N)
    e_an *= inv_temperature
    np.exp(e_an, out=e_an)
    e_ap = np.exp(s_ap)
    denom = e_ap + np.add.reduce(e_an, axis=1, keepdims=True)     # (A, P)

    def grads(g):
        inv_denom = 1.0 / denom
        g_ap = (e_ap * inv_denom - 1.0) * (g * inv_temperature)
        g_an = e_an * (np.add.reduce(inv_denom, axis=1, keepdims=True) * (g * inv_temperature))
        return g_ap @ p + g_an @ n, g_ap.T @ a, g_an.T @ a

    log_ratio = np.log(denom)
    np.subtract(s_ap, log_ratio, out=log_ratio)
    return -np.add.reduce(log_ratio, axis=None), grads


def loss_contrastive(mined: MinedSets, features: Tensor, temperature: float) -> Tensor:
    """Both contrastive directions over (B, T, D) features whose rows are
    the mined masks' rows; a direction whose anchor, positive or negative
    set is empty adds nothing, and with neither the term is 0.

    Each set's rows are taken in (video id, t) order, the order of the
    sets' sorted views; ``mined.gather_plan`` holds them, worked out once
    per batch. The rows of every set a direction uses are gathered and
    L2-normalised together, once, and the backward scatters their
    gradients back with one ``np.add.at``, which also adds up a row that
    two hand-built sets share.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    plan = mined.gather_plan
    if not plan.directions:
        return Tensor(np.zeros((), dtype=features.data.dtype))
    batch, t_len, dim = features.data.shape
    if mined.ha.shape != (batch, t_len):
        raise ValueError(f"mined masks {mined.ha.shape} vs features {features.data.shape}")
    rows, blocks = plan.rows, plan.blocks
    unit, norm = unit_rows(features.data.reshape(-1, dim)[rows])
    value, parts = None, []
    for d in plan.directions:
        term, grads = _info_nce(*(unit[blocks[i]] for i in d), 1.0 / temperature)
        value = term if value is None else value + term
        parts.append((d, grads))

    def backward(g):
        g_unit = np.zeros_like(unit)
        for d, grads in parts:
            for i, g_set in zip(d, grads(g)):
                g_unit[blocks[i]] += g_set
        z = np.zeros((batch * t_len, dim), dtype=unit.dtype)
        np.add.at(z, rows, unit_rows_backward(g_unit, unit, norm))
        return (z.reshape(features.data.shape),)

    return node(value, (features,), backward)


def _weighted_sum(terms: list[tuple[Tensor, float]]) -> Tensor:
    """sum_i w_i * term_i over scalar terms as one node, added in the order
    given as ``term * w`` tape ops would add them. The sum runs on numpy
    scalars of the terms' dtype, whose arithmetic rounds as the ufuncs on
    0-d arrays do, without their dispatch."""
    weights = [t.data.dtype.type(w) for t, w in terms]
    value = None
    for (t, _), w in zip(terms, weights):
        value = t.data[()] * w if value is None else value + t.data[()] * w
    return node(value, [t for t, _ in terms], lambda g: [g * w for w in weights])


def loss_total(batch: ScoredBatch, labels, mined: MinedSets | None,
               config: LossConfig) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the four terms over one batch whose (B,) weak labels
    are 0 (normal) or 1 (abnormal).

    Requires at least one video of each label. A zero-weighted term is not
    evaluated; the contrastive term additionally needs mined sets (pass None
    while mining is warming up and the term is reported as 0).
    """
    labels = np.asarray(labels)
    n_abnormal, n_normal = np.count_nonzero(labels == 1), np.count_nonzero(labels == 0)
    if not n_abnormal or not n_normal:
        raise TrainingError(
            f"batch needs both labels, got {n_abnormal} abnormal / {n_normal} normal")
    terms = {
        "l_cnt": (config.w_contrast,
                  loss_contrastive(mined, batch.features, config.temperature)
                  if config.w_contrast > 0 and mined is not None else None),
        "l_snp": (config.w_snippet,
                  loss_snippet_topk(batch.scores, labels, config.k)
                  if config.w_snippet > 0 else None),
        "l_vid": (config.w_video,
                  loss_video(batch.video_scores, labels) if config.w_video > 0 else None),
        "l_reg": (config.w_reg,
                  loss_regularisation(batch.scores, config.smooth_weight, config.sparse_weight)
                  if config.w_reg > 0 else None),
    }
    present = [(term, weight) for weight, term in terms.values() if term is not None]
    if present:
        total = _weighted_sum(present)
    else:
        total = Tensor(np.zeros((), dtype=batch.scores.data.dtype))
    parts = {name: 0.0 if term is None else float(term.data)
             for name, (_, term) in terms.items()}
    return total, LossBreakdown(l_total=float(total.data), **parts)
