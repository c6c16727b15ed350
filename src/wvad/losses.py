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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ScoredBatch
from .errors import ConfigError, TrainingError
from .mining import MinedSets
from .tensor import Tensor, gather_rows, info_nce, l2_normalize, topk_mean

_CLAMP = 1e-7

_PAIR_MODES = ("matched", "all_pairs")


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
    pair_mode: str = "matched"

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
        if self.pair_mode not in _PAIR_MODES:
            raise ConfigError(f"pair_mode must be one of {_PAIR_MODES}, got {self.pair_mode!r}")


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

    Scores are clamped to [1e-7, 1-1e-7] before the log.
    """
    y = np.asarray(labels)
    if video_scores.data.shape != y.shape or y.ndim != 1:
        raise ValueError(f"scores {video_scores.data.shape} vs labels {y.shape}")
    if not y.size:
        raise ValueError("empty batch")
    v = video_scores.clip(_CLAMP, 1.0 - _CLAMP)
    # the probability given to the true label: v if abnormal, 1 - v if normal
    sign = Tensor((2 * y - 1).astype(v.data.dtype))
    return -(v * sign + Tensor((1 - y).astype(v.data.dtype))).log().mean()


def loss_snippet_topk(abn_scores: Tensor, nrm_scores: Tensor, k: int,
                      pair_mode: str = "matched") -> Tensor:
    """Ranking hinge summed over abnormal/normal video pairs.

    Rows of the (A, T) and (N, T) score arrays are videos; each pair adds
    max(0, 1 - topk_mean(abnormal) + topk_mean(normal)), zero once the
    abnormal video's top-k mean exceeds the normal one's by the margin.
    ``matched`` pairs row i with row i for the first min(A, N) rows,
    ``all_pairs`` pairs every abnormal row with every normal row.
    """
    if abn_scores.data.ndim != 2 or nrm_scores.data.ndim != 2:
        raise ValueError("loss_snippet_topk expects (videos, T) score arrays")
    if pair_mode not in _PAIR_MODES:
        raise ConfigError(f"pair_mode must be one of {_PAIR_MODES}, got {pair_mode!r}")
    abn = topk_mean(abn_scores, k, axis=1)
    nrm = topk_mean(nrm_scores, k, axis=1)
    if pair_mode == "all_pairs":
        margin = 1.0 - abn.reshape(-1, 1) + nrm.reshape(1, -1)
    else:
        m = min(abn.data.shape[0], nrm.data.shape[0])
        margin = 1.0 - abn[:m] + nrm[:m]
    return margin.relu().sum()


def loss_regularisation(scores: Tensor, smooth_weight: float, sparse_weight: float) -> Tensor:
    """Smoothness + sparsity of (B, T) score rows, both scaled by 1/T and
    summed over the videos."""
    if scores.data.ndim != 2:
        raise ValueError("loss_regularisation expects (videos, T) scores")
    n = scores.data.shape[1]
    if n < 2:
        raise ValueError(f"need at least 2 snippets, got {n}")
    diffs = scores[:, 1:] - scores[:, :-1]
    return ((diffs * diffs).sum() * smooth_weight + scores.sum() * sparse_weight) / float(n)


def loss_contrastive(mined: MinedSets, features: Tensor, temperature: float) -> Tensor:
    """Both contrastive directions over (B, T, D) features whose rows are
    the mined masks' rows; empty anchor/positive/negative sets give 0.

    Each set's rows are gathered in (video id, t) order, the order of the
    sets' sorted views."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    masks = mined.masks()
    total: Tensor | None = None
    if any(m.any() for m in masks):
        batch, t_len, dim = features.data.shape
        order = sorted(range(batch), key=mined.video_ids.__getitem__)
        row_of = np.arange(batch * t_len).reshape(batch, t_len)[order]
        flat = features.reshape(-1, dim)
        ha, ea, hn, en = (
            l2_normalize(gather_rows(flat, row_of[m[order]])) if m.any() else None
            for m in masks)
        # an anchor set needs positives and negatives to contrast against
        for anchors, positives, negatives in ((ha, ea, en), (hn, en, ea)):
            if anchors is not None and positives is not None and negatives is not None:
                term = info_nce(anchors, positives, negatives, temperature)
                total = term if total is None else total + term
    if total is not None:
        return total
    return Tensor(np.zeros((), dtype=features.data.dtype))


def loss_total(batch: ScoredBatch, mined: MinedSets | None,
               config: LossConfig) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the four terms over one batch.

    Requires at least one video of each label. A zero-weighted term is not
    evaluated; the contrastive term additionally needs mined sets (pass None
    while mining is warming up and the term is reported as 0).
    """
    labels = np.asarray(batch.labels)
    abnormal = np.flatnonzero(labels == 1)
    normal = np.flatnonzero(labels == 0)
    if not abnormal.size or not normal.size:
        raise TrainingError(
            f"batch needs both labels, got {abnormal.size} abnormal / {normal.size} normal")

    total: Tensor | None = None
    parts: dict[str, float] = {}

    def add(name: str, weight: float, term: Tensor | None):
        nonlocal total
        if term is None:
            parts[name] = 0.0
            return
        parts[name] = float(term.data)
        weighted = term * weight
        total = weighted if total is None else total + weighted

    add("l_cnt", config.w_contrast,
        loss_contrastive(mined, batch.features, config.temperature)
        if config.w_contrast > 0 and mined is not None else None)
    add("l_snp", config.w_snippet,
        loss_snippet_topk(batch.scores[abnormal], batch.scores[normal], config.k,
                          config.pair_mode)
        if config.w_snippet > 0 else None)
    add("l_vid", config.w_video,
        loss_video(batch.video_scores, labels) if config.w_video > 0 else None)
    add("l_reg", config.w_reg,
        loss_regularisation(batch.scores, config.smooth_weight, config.sparse_weight)
        if config.w_reg > 0 else None)

    if total is None:
        total = Tensor(np.zeros((), dtype=batch.scores.data.dtype))
    breakdown = LossBreakdown(l_total=float(total.data), l_cnt=parts["l_cnt"],
                              l_snp=parts["l_snp"], l_vid=parts["l_vid"],
                              l_reg=parts["l_reg"])
    return total, breakdown
