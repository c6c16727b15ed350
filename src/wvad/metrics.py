"""Frame-level evaluation: score expansion, ROC-AUC, average precision.

Both metrics return the correctly rounded float64 value of an exact rational:

* ``roc_auc`` uses the average-rank form of the Mann-Whitney statistic. The
  rank sum is a sum of halves of integers, exact in float64 for any feasible
  n, so the single final division is the only rounding step.
* ``average_precision`` computes each precision term with one float division
  and combines them with ``math.fsum`` (exact summation, rounded once), so
  the result does not depend on accumulation order.

Score ties: AUC grants half credit per tied positive/negative pair; AP ranks
negatives above positives at equal score, making the reported value a
deterministic lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass
class EvalRecord:
    """Per-frame scores and binary labels, concatenated over all test videos."""

    frame_scores: np.ndarray
    frame_labels: np.ndarray

    def __post_init__(self):
        self.frame_scores = np.asarray(self.frame_scores, dtype=np.float64)
        self.frame_labels = np.asarray(self.frame_labels)
        if self.frame_scores.shape != self.frame_labels.shape:
            raise ValueError(
                f"scores {self.frame_scores.shape} vs labels {self.frame_labels.shape}")
        if self.frame_scores.ndim != 1:
            raise ValueError("EvalRecord holds flat per-frame arrays")


def snippet_to_frame_scores(scores: np.ndarray, num_frames: int) -> np.ndarray:
    """Expand T snippet scores to per-frame scores.

    Frame f takes the score of snippet floor(f * T / num_frames), the
    inverse of cutting the video into T equal snippet spans.
    """
    scores = np.asarray(scores)
    t = scores.shape[0]
    if num_frames < t:
        raise ValueError(f"num_frames ({num_frames}) must be >= snippet count ({t})")
    idx = (np.arange(num_frames) * t) // num_frames
    return scores[idx]


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores {s.shape} vs labels {y.shape}")
    if s.size == 0:
        raise MetricError("empty input")
    if not np.all(np.isfinite(s)):
        raise MetricError(f"{int(np.sum(~np.isfinite(s)))} non-finite scores")
    if not np.all((y == 0) | (y == 1)):
        raise MetricError("labels must be 0/1")
    return s, y


def roc_auc(scores, labels) -> float:
    """Exact pairwise ranking probability with half credit for ties."""
    s, y = _validate(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"roc_auc needs both classes, got {n_pos} pos / {n_neg} neg")
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # average 1-based rank per tie group
    _, inverse, counts = np.unique(sorted_s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = group_rank[inverse]
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Ranked-retrieval AP, step-wise (not interpolated), pessimistic ties."""
    s, y = _validate(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("average_precision needs at least one positive")
    # descending score; at equal score the negative sorts first
    order = np.lexsort((y, -s))
    ranked = y[order]
    hits = np.cumsum(ranked)
    positions = np.nonzero(ranked == 1)[0]
    terms = [float(hits[i]) / float(i + 1) for i in positions]
    return math.fsum(terms) / n_pos


def evaluate(record: EvalRecord) -> tuple[float, float]:
    """AUC and AP of one evaluation record."""
    return (roc_auc(record.frame_scores, record.frame_labels),
            average_precision(record.frame_scores, record.frame_labels))
