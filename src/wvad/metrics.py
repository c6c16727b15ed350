"""Frame-level evaluation: score expansion, ROC-AUC, average precision.

``evaluate`` computes both metrics from one sort of the scores into tie
groups (each group's start, size and positive count) and returns the
correctly rounded float64 value of each exact rational. Only those integer
counts enter either metric, so an entry may stand for several frames that
share its score and label (``EvalRecord.frame_counts``): every frame of a
snippet takes the snippet's score, and ``wvad eval`` passes each snippet as
at most two weighted entries, its positive and its negative frames, with the
same result to the bit as the per-frame arrays.

* AUC uses the average-rank form of the Mann-Whitney statistic. Twice the
  positives' rank sum is an integer, so the statistic is exact and the
  single final division is the only rounding step.
* AP computes each precision term with one float division and combines
  them with ``math.fsum`` (exact summation, rounded once), so the result
  does not depend on accumulation order.

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
    """Scores and binary labels, concatenated over all test videos.

    Entry i stands for ``frame_counts[i]`` frames that share
    ``frame_scores[i]`` and ``frame_labels[i]``; without counts, one frame
    per entry.
    """

    frame_scores: np.ndarray
    frame_labels: np.ndarray
    frame_counts: np.ndarray | None = None

    def __post_init__(self):
        self.frame_scores = np.asarray(self.frame_scores, dtype=np.float64)
        self.frame_labels = np.asarray(self.frame_labels)
        if self.frame_scores.shape != self.frame_labels.shape:
            raise ValueError(
                f"scores {self.frame_scores.shape} vs labels {self.frame_labels.shape}")
        if self.frame_scores.ndim != 1:
            raise ValueError("EvalRecord holds flat per-frame arrays")
        if self.frame_counts is None:
            self.frame_counts = np.ones(self.frame_scores.size, dtype=np.int64)
        self.frame_counts = np.asarray(self.frame_counts, dtype=np.int64)
        if self.frame_counts.shape != self.frame_scores.shape:
            raise ValueError(f"counts {self.frame_counts.shape} vs "
                             f"scores {self.frame_scores.shape}")
        if np.any(self.frame_counts < 1):
            raise ValueError("every entry stands for at least one frame")
        if self.frame_scores.size == 0:
            raise MetricError("empty input")
        finite = np.isfinite(self.frame_scores)
        if not finite.all():
            raise MetricError(f"{int(self.frame_counts[~finite].sum())} non-finite scores")
        if not np.all((self.frame_labels == 0) | (self.frame_labels == 1)):
            raise MetricError("labels must be 0/1")


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


def _tie_groups(s: np.ndarray, y: np.ndarray, c: np.ndarray):
    """The tie groups of a record's scores in ascending order, from one sort:
    each group's start in the sorted order of the frames, its size and its
    positive count, all summed over the entries' frame counts ``c``.

    Only these counts enter either metric, never the order inside a group,
    so the sort need not be stable. Positives are counted in int64 whatever
    the label dtype (frame labels are uint8): a count in the labels' own
    dtype would wrap at 256, and an unsigned one would turn arithmetic with
    the int64 positions into float64.
    """
    order = np.argsort(s)
    sorted_s = s[order]
    first = np.empty(s.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_s[1:], sorted_s[:-1], out=first[1:])
    bounds = np.flatnonzero(first)
    c = c[order]
    sizes = np.add.reduceat(c, bounds)
    positives = np.add.reduceat(y[order].astype(np.int64) * c, bounds)
    return np.cumsum(sizes) - sizes, sizes, positives


def _auc(groups, n_pos: int, n_neg: int) -> float:
    starts, sizes, positives = groups
    # a group's average 1-based rank is (start + end + 1) / 2; twice the
    # positives' rank sum is an exact integer, and so is twice Mann-Whitney U
    twice_rank_sum = int(positives @ (2 * starts + sizes + 1))
    return (twice_rank_sum - n_pos * (n_pos + 1)) / (2 * n_pos * n_neg)


def _ap(groups, n_pos: int) -> float:
    starts, sizes, positives = (a[::-1] for a in groups)
    # walking the groups by descending score, negatives first inside a group:
    # the j-th positive of a group sits at 0-based position
    # start_desc + (size - positives) + j and is hit number hits_before + j + 1
    ends = starts + sizes
    start_desc = ends[0] - ends   # ends[0], the top group's end, is n
    hits_before = np.cumsum(positives) - positives
    hits = np.arange(1, n_pos + 1)
    ranks = np.repeat(start_desc + sizes - positives - hits_before, positives) + hits
    return math.fsum((hits / ranks).tolist()) / n_pos


def evaluate(record: EvalRecord) -> tuple[float, float]:
    """AUC and AP of one evaluation record, from one sort of its scores."""
    s, y, c = record.frame_scores, record.frame_labels, record.frame_counts
    n_pos = int(c[y == 1].sum())
    n_neg = int(c.sum()) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"AUC and AP need both classes, got {n_pos} pos / {n_neg} neg")
    groups = _tie_groups(s, y, c)
    return _auc(groups, n_pos, n_neg), _ap(groups, n_pos)
