"""Reference forms the library's fused and batched code is checked against.

The tensor ops here are the composed forms: chains of the tape's own
elementwise and index ops, each with its own local backward rule, so their
gradients come from the chain rule rather than a closed form. The fused
ops in ``wvad.tensor`` run the same forward expressions in the same order,
so their float32 forwards must match these bit for bit.

``adam_step`` is the per-parameter optimiser update that
``wvad.trainer.adam_step`` runs on one flat vector; both must give the same
parameter and moment bits.

The mining functions are the per-video form: one video at a time, sets
built from index lists. ``mine_batch_per_video`` returns the four sorted
(video_id, t) tuples that ``wvad.mining.mine_batch`` must reproduce from
its (B, T) masks.

``roc_auc`` and ``average_precision`` are the metrics as they were before
``wvad.metrics`` computed both from one sort into tie groups: an
``argsort`` with ``np.unique`` ranks for AUC and a ``lexsort`` with a hit
cumsum for AP. Both round the same exact rationals once, so the library's
values must equal theirs with ``==``.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wvad.errors import MetricError
from wvad.metrics import _validate
from wvad.mining import MinedSets
from wvad.tensor import _accum, _result, softmax


# ---------------------------------------------------------------------
# composed tensor ops


def layer_norm(x, gamma, beta, eps=1e-5):
    m = x.mean(axis=-1, keepdims=True)
    d = x - m
    v = (d * d).mean(axis=-1, keepdims=True)
    return (d / (v + eps).sqrt()) * gamma + beta


def gelu(x):
    c = math.sqrt(2.0 / math.pi)
    inner = (x + (x * x * x) * 0.044715) * c
    return x * (inner.tanh() + 1.0) * 0.5


def l2_normalize(x, eps=1e-12):
    sq = (x * x).sum(axis=-1, keepdims=True)
    return x / (sq + eps).sqrt()


def pad_edge(x, half):
    """Replicate padding along axis -2 as one index op."""
    n = x.data.shape[-2]
    idx = np.clip(np.arange(-half, n + half), 0, n - 1)
    out = _result(x.data[..., idx, :], (x,))
    if out.requires_grad:
        def backward(g):
            z = g[..., half:half + n, :].copy()
            z[..., 0, :] += g[..., :half, :].sum(axis=-2)
            z[..., -1, :] += g[..., half + n:, :].sum(axis=-2)
            _accum(x, z)
        out._backward = backward
    return out


def dws_conv1d(x, depth_kernel, point_kernel):
    t_len = x.data.shape[-2]
    width = depth_kernel.data.shape[1]
    padded = pad_edge(x, width // 2) if width > 1 else x
    acc = None
    for j in range(width):
        term = padded[..., j:j + t_len, :] * depth_kernel[:, j]
        acc = term if acc is None else acc + term
    return acc @ point_kernel


def multi_head_self_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    *lead, n, d = x.data.shape
    dh = d // heads
    r = len(lead)
    to_heads = (*range(r), r + 1, r, r + 2)
    q = (x @ wq + bq).reshape(*lead, n, heads, dh).transpose(to_heads)
    k = (x @ wk + bk).reshape(*lead, n, heads, dh).transpose(*range(r), r + 1, r + 2, r)
    v = (x @ wv + bv).reshape(*lead, n, heads, dh).transpose(to_heads)
    attn = softmax((q @ k) * (1.0 / math.sqrt(dh)), axis=-1)
    merged = (attn @ v).transpose(to_heads).reshape(*lead, n, d)
    return merged @ wo + bo


def info_nce(anchors, positives, negatives, temperature):
    s_ap = (anchors @ positives.T) * (1.0 / temperature)
    s_an = (anchors @ negatives.T) * (1.0 / temperature)
    neg_sum = s_an.exp().sum(axis=1, keepdims=True)
    log_ratio = s_ap - (s_ap.exp() + neg_sum).log()
    return -log_ratio.sum()


# ---------------------------------------------------------------------
# per-parameter Adam


def adam_step(params, grads, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """Step ``t`` (from 1) of Adam on each parameter in turn; ``m`` and
    ``v`` are per-parameter lists, replaced in place."""
    b1, b2 = betas
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
        m_hat = m[i] / (1.0 - b1 ** t)
        v_hat = v[i] / (1.0 - b2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * p.data


# ---------------------------------------------------------------------
# per-video mining


def _hard_abnormal(scores, cfg):
    pred = (np.asarray(scores) > cfg.threshold).astype(np.uint8)
    half = cfg.erosion_width // 2
    eroded = sliding_window_view(np.pad(pred, half, mode="edge"),
                                 cfg.erosion_width).all(axis=1)
    edges = np.nonzero(pred.astype(bool) & ~eroded)[0].tolist()
    n = pred.shape[0]
    if cfg.region_window > n:
        raise ValueError(f"window {cfg.region_window} longer than sequence {n}")
    sums = sliding_window_view(pred, cfg.region_window).sum(axis=1)
    flagged = np.zeros(n, dtype=bool)
    for start in np.nonzero(sums >= cfg.region_min_count)[0]:
        flagged[start:start + cfg.region_window] = True
    missed = np.nonzero(flagged & (pred == 0))[0].tolist()
    return sorted(set(edges) | set(missed))


def _top(scores, k, descending=True):
    scores = np.asarray(scores)
    if not 1 <= k <= scores.shape[0]:
        raise ValueError(f"k must be in [1, {scores.shape[0]}], got {k}")
    key = -scores if descending else scores
    return np.argsort(key, kind="stable")[:k].tolist()


def mine_batch_per_video(videos, cfg):
    """(HA, EA, HN, EN) as sorted (video_id, t) tuples, one video at a time."""
    ha, ea, hn, en = [], [], [], []
    for video_id, label, scores in videos:
        if label == 1:
            hard = _hard_abnormal(scores, cfg)
            ha.extend((video_id, t) for t in hard)
            ea.extend((video_id, t)
                      for t in sorted(set(_top(scores, cfg.k_easy)) - set(hard)))
        elif label == 0:
            hn.extend((video_id, t) for t in sorted(_top(scores, cfg.k_hard_normal)))
            en.extend((video_id, t) for t in sorted(_top(scores, cfg.k_easy, False)))
        else:
            raise ValueError(f"label must be 0 or 1, got {label} for {video_id}")
    return tuple(sorted(ha)), tuple(sorted(ea)), tuple(sorted(hn)), tuple(sorted(en))


def views(mined):
    """The four sorted (video_id, t) views of a ``MinedSets``."""
    return mined.hard_abnormal, mined.easy_abnormal, mined.hard_normal, mined.easy_normal


def mined_sets(video_ids, t_len, ha=(), ea=(), hn=(), en=()):
    """A ``MinedSets`` from (video_id, t) pairs, for hand-built loss tests."""
    row = {vid: i for i, vid in enumerate(video_ids)}
    masks = np.zeros((4, len(video_ids), t_len), dtype=bool)
    for mask, pairs in zip(masks, (ha, ea, hn, en)):
        for vid, t in pairs:
            mask[row[vid], t] = True
    return MinedSets(tuple(video_ids), *masks)



# ---------------------------------------------------------------------
# metrics with a sort per metric


def roc_auc(scores, labels) -> float:
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
