"""Hard/easy snippet mining from per-video score sequences.

Runs on plain numpy arrays (scores detached from the graph), one whole
batch at a time: the score rows are stacked into a (B, T) array and every
step below is an array op along the time axis. Threshold the scores, erode
the binary prediction to find the boundary snippets of each
predicted-abnormal run, flag zeros inside mostly-positive windows as missed
abnormal, and pick top-k/bottom-k snippets for the remaining sets. The four
(B, T) masks feed the contrastive objective:

  hard abnormal  boundary snippets + missed zeros (abnormal videos)
  easy abnormal  top-k scored snippets of abnormal videos, minus hard ones
  hard normal    top-k scored snippets of normal videos
  easy normal    the k lowest-scored snippets of normal videos that are not
                 hard normal

All selections are deterministic: ties break toward the lowest index, and
the (video_id, t) views of the sets are sorted. The four sets are disjoint:
easy normal takes the k lowest-scored snippets that are not hard normal, so
a flat normal video (all scores tied) gives each set its own snippets, and
a video shorter than the two counts together gets fewer easy ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError


@dataclass
class MiningConfig:
    threshold: float = 0.5
    erosion_width: int = 3
    region_window: int = 5       # consecutive-snippet window scanned for missed zeros
    region_min_count: int = 3    # positives required in a window before its zeros count as missed
    k_hard_normal: int = 3
    k_easy: int = 3

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0,1), got {self.threshold}")
        if self.erosion_width < 1 or self.erosion_width % 2 == 0:
            raise ConfigError(f"erosion_width must be odd, got {self.erosion_width}")
        if not 1 <= self.region_min_count <= self.region_window:
            raise ConfigError(
                f"need 1 <= region_min_count <= region_window, got "
                f"{self.region_min_count} > {self.region_window}")
        if self.k_hard_normal < 1 or self.k_easy < 1:
            raise ConfigError("selection counts must be >= 1")


# (anchors, positives, negatives) of the two contrastive directions, as
# indices into ``MinedSets.masks()`` (HA, EA, HN, EN)
DIRECTIONS = ((0, 1, 3), (2, 3, 1))


@dataclass(frozen=True)
class GatherPlan:
    """Where the contrastive objective reads one batch's mined rows."""

    directions: tuple[tuple[int, int, int], ...]   # those whose three sets are non-empty
    rows: np.ndarray            # flat (B*T) rows of every used set, set after set,
                                # each in (video id, t) order
    blocks: tuple[slice | None, ...]    # each set's block of ``rows``, None if unused


@dataclass(frozen=True, eq=False)
class MinedSets:
    """The four mined sets of one batch as (B, T) boolean masks.

    Row i of every mask belongs to ``video_ids[i]``; rows of a batch whose
    videos differ in length are padded with False up to the longest. The
    masks are made read-only, so ``gather_plan`` can be computed once.
    """

    video_ids: tuple[str, ...]
    ha: np.ndarray
    ea: np.ndarray
    hn: np.ndarray
    en: np.ndarray

    def __post_init__(self):
        for mask in self.masks():
            mask.flags.writeable = False

    def masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.ha, self.ea, self.hn, self.en

    @functools.cached_property
    def gather_plan(self) -> GatherPlan:
        """The live directions and the rows of the sets they use."""
        masks = self.masks()
        sizes = [np.count_nonzero(m) for m in masks]
        directions = tuple(d for d in DIRECTIONS if all(sizes[i] for i in d))
        used = sorted({i for d in directions for i in d})
        batch, t_len = masks[0].shape
        order = np.array(sorted(range(batch), key=self.video_ids.__getitem__), dtype=np.intp)
        chosen = np.array([masks[i] for i in used]).reshape(len(used), batch, t_len)[:, order]
        row_of = (order[:, None] * t_len + np.arange(t_len)).ravel()
        rows = row_of[np.flatnonzero(chosen) % row_of.size]
        rows.flags.writeable = False
        blocks, end = [None] * len(masks), 0
        for i in used:
            blocks[i], end = slice(end, end + sizes[i]), end + sizes[i]
        return GatherPlan(directions, rows, tuple(blocks))

    def counts(self) -> dict[str, int]:
        return {key: int(m.sum()) for key, m in zip(("HA", "EA", "HN", "EN"), self.masks())}

    def _pairs(self, mask: np.ndarray) -> tuple[tuple[str, int], ...]:
        rows, ts = np.nonzero(mask)
        return tuple(sorted(zip([self.video_ids[i] for i in rows.tolist()], ts.tolist())))

    # sorted (video_id, t) views, for mined.csv and for tests
    @property
    def hard_abnormal(self) -> tuple[tuple[str, int], ...]:
        return self._pairs(self.ha)

    @property
    def easy_abnormal(self) -> tuple[tuple[str, int], ...]:
        return self._pairs(self.ea)

    @property
    def hard_normal(self) -> tuple[tuple[str, int], ...]:
        return self._pairs(self.hn)

    @property
    def easy_normal(self) -> tuple[tuple[str, int], ...]:
        return self._pairs(self.en)


def threshold_predictions(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Binary prediction per snippet; strictly greater than the threshold."""
    return np.asarray(scores) > threshold


def erode(pred: np.ndarray, width: int) -> np.ndarray:
    """Morphological erosion along the last (time) axis, replicate padding.

    Output t is True iff every prediction in the width-wide window centred
    at t is; edge windows reuse the boundary value, so a run touching the
    video boundary is not automatically opened up.
    """
    if width < 1 or width % 2 == 0:
        raise ValueError(f"erosion width must be odd, got {width}")
    pred = np.asarray(pred, dtype=bool)
    n = pred.shape[-1]
    half = width // 2
    padded = pred[..., np.clip(np.arange(-half, n + half), 0, n - 1)]
    out = padded[..., :n].copy()
    for j in range(1, width):
        out &= padded[..., j:j + n]
    return out


def missed_pseudo_abnormal(pred: np.ndarray, window: int, min_count: int) -> np.ndarray:
    """Zeros lying inside any length-``window`` stretch (along the last
    axis) with >= ``min_count`` ones: the qualifying window starts, dilated
    over their windows, minus the positives."""
    pred = np.asarray(pred, dtype=bool)
    n = pred.shape[-1]
    if not 1 <= min_count <= window:
        raise ValueError(f"need 1 <= min_count <= window, got {min_count}, {window}")
    if window > n:
        raise ValueError(f"window {window} longer than sequence {n}")
    runs = np.zeros((*pred.shape[:-1], n + 1), dtype=np.intp)
    np.cumsum(pred, axis=-1, out=runs[..., 1:])
    starts = runs[..., window:] - runs[..., :-window] >= min_count
    covered = np.zeros_like(pred)
    for j in range(window):
        covered[..., j:j + n - window + 1] |= starts
    return covered & ~pred


def _top_k(order: np.ndarray, k: int) -> np.ndarray:
    """(B, T) mask of the first k columns of each row of an argsort."""
    mask = np.zeros(order.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


def _mine_rows(scores: np.ndarray, abnormal: np.ndarray,
               config: MiningConfig) -> tuple[np.ndarray, ...]:
    """The four masks of (B, T) score rows; ``abnormal`` is the (B,) label."""
    pred = threshold_predictions(scores, config.threshold)
    edges = pred & ~erode(pred, config.erosion_width)
    if scores.shape[1] >= config.region_window:
        missed = missed_pseudo_abnormal(pred, config.region_window, config.region_min_count)
    else:   # only normal videos are this short, and they need no missed zeros
        missed = np.zeros_like(pred)
    top = np.argsort(-scores, axis=1, kind="stable")
    bottom = np.argsort(scores, axis=1, kind="stable")
    abn = abnormal[:, None]
    ha = (edges | missed) & abn
    ea = _top_k(top, config.k_easy) & ~ha & abn
    hn = _top_k(top, config.k_hard_normal) & ~abn
    # the k lowest-scored snippets that are not hard normal: count, in
    # ascending score order, only the snippets hard normal left
    free = ~np.take_along_axis(hn, bottom, axis=1)
    taken = free & (np.cumsum(free, axis=1) <= config.k_easy)
    en = np.zeros_like(hn)
    np.put_along_axis(en, bottom, taken, axis=1)
    en &= ~abn
    return ha, ea, hn, en


def length_error(video_id: str, n: int, abnormal: bool, config: MiningConfig) -> str | None:
    """Why a video of ``n`` snippets cannot be mined, or None: an abnormal
    video needs ``region_window`` and ``k_easy`` snippets, a normal one
    ``k_hard_normal`` and ``k_easy``."""
    if abnormal and n < config.region_window:
        return f"video {video_id}: window {config.region_window} longer than sequence {n}"
    for k in (config.k_easy,) if abnormal else (config.k_hard_normal, config.k_easy):
        if n < k:
            return f"video {video_id}: k must be in [1, {n}], got {k}"
    return None


def _first_error(videos, labels: np.ndarray, lengths: np.ndarray,
                 config: MiningConfig) -> str | None:
    """The error the first unminable video of the batch raises, if any."""
    abnormal, normal = labels == 1, labels == 0
    for (video_id, label, _), is_abnormal, is_normal, n in zip(
            videos, abnormal.tolist(), normal.tolist(), lengths.tolist()):
        if not (is_abnormal or is_normal):
            return f"label must be 0 or 1, got {label} for {video_id}"
        error = length_error(video_id, n, is_abnormal, config)
        if error is not None:
            return error
    return None


def mine_batch(videos: Sequence[tuple[str, int, np.ndarray]],
               config: MiningConfig) -> MinedSets:
    """Mine every video of a batch; items are (video_id, label, scores).

    Videos of equal length (and score dtype) are mined together as one
    (B, T) array, so a training batch is one group.
    """
    video_ids = tuple(video_id for video_id, _, _ in videos)
    labels = np.array([label for _, label, _ in videos])
    rows = [np.asarray(scores) for _, _, scores in videos]
    lengths = np.array([row.shape[0] for row in rows], dtype=np.intp)
    error = _first_error(videos, labels, lengths, config)
    if error is not None:
        raise ValueError(error)
    t_max = int(lengths.max()) if rows else 0
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault((row.shape[0], row.dtype), []).append(i)
    if len(groups) == 1:
        masks = _mine_rows(np.stack(rows), labels == 1, config)
    else:
        masks = tuple(np.zeros((len(rows), t_max), dtype=bool) for _ in range(4))
        for (n, _), members in groups.items():
            idx = np.array(members)
            for full, part in zip(masks, _mine_rows(np.stack([rows[i] for i in members]),
                                                    labels[idx] == 1, config)):
                full[idx, :n] = part
    return MinedSets(video_ids, *masks)
