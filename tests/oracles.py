"""Reference forms the library's fused and batched code is checked against.

The tensor ops here are the composed forms: chains of the tape's own
elementwise and index ops, each with its own local backward rule, so their
gradients come from the chain rule rather than a closed form. The fused
ops in ``wvad.tensor`` run the same forward expressions in the same order,
so their float32 forwards must match these bit for bit. So must the
objective's terms in ``wvad.losses`` and the encoder's heads and input
projection, each one node, against the composed objective, heads and
input projection here.

The backward rules section keeps single nodes as they were before their
backward rules were rewritten for speed (the attention, layer norm and
conv-tap nodes): the same forwards with the earlier closed-form backward
rules, which the rewritten rules must match in float64.

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

``generate_per_video`` is the dataset generator's per-video loop: one
spawned generator and one ``_make_video`` call per video, each video's
features and frame labels kept apart. ``wvad.synthdata`` writes a split as
one block, and ``load_split`` must give back each video's bits.

``read_scores_csv_rows`` is the score-CSV reader as first written: one row
at a time, each check in turn, with a ``_readable`` wrapper that numbers
the row csv cannot read. ``wvad.cli``'s reader is a row loop too; on any
input the two must return the same values or raise the same exception
class with the same message.

``init_params`` and ``init_linear`` are the parameter init as it was
written before each model kind declared its parameters in one table: every
shape and fan-in spelled out, the uniform draws made block by block and
then for the input projection, cls token, positions and heads. The
table-driven init must give the same bits, parameter for parameter.
"""

import csv
import itertools
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wvad.cli import SCORE_COLUMNS
from wvad.encoder import BlockParams, EncoderConfig, ModelParams
from wvad.errors import ConfigError, FormatError, MetricError
from wvad.metrics import _validate
from wvad.mining import MinedSets
from wvad.synthdata import SynthConfig, _make_video, _video_plan
from wvad.tensor import (Tensor, _unbroadcast, broadcast_to, concat, gather_rows, node,
                         softmax, topk_mean)


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

    def backward(g):
        z = g[..., half:half + n, :].copy()
        z[..., 0, :] += g[..., :half, :].sum(axis=-2)
        z[..., -1, :] += g[..., half + n:, :].sum(axis=-2)
        return (z,)

    return node(x.data[..., idx, :], (x,), backward)


def linear(x, w, b):
    return x @ w + b


def dws_conv1d(x, depth_kernel, point_kernel, bias=None, skip=0):
    """The taps, ``@ point`` and ``+ bias`` over rows ``skip:``, then the
    skipped rows concatenated in front (the encoder's split -> conv ->
    concat around its cls row)."""
    rows = x[..., skip:, :] if skip else x
    t_len = rows.data.shape[-2]
    width = depth_kernel.data.shape[1]
    padded = pad_edge(rows, width // 2) if width > 1 else rows
    acc = None
    for j in range(width):
        term = padded[..., j:j + t_len, :] * depth_kernel[:, j]
        acc = term if acc is None else acc + term
    out = acc @ point_kernel
    if bias is not None:
        out = out + bias
    return concat([x[..., :skip, :], out], axis=-2) if skip else out


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
# the composed objective, heads and input projection


_CLAMP = 1e-7


def loss_video(video_scores, labels):
    y = np.asarray(labels)
    v = video_scores.clip(_CLAMP, 1.0 - _CLAMP)
    sign = Tensor((2 * y - 1).astype(v.data.dtype))
    return -(v * sign + Tensor((1 - y).astype(v.data.dtype))).log().mean()


def loss_snippet_topk(abn_scores, nrm_scores, k):
    """The hinge over separate (A, T) abnormal and (N, T) normal rows."""
    abn = topk_mean(abn_scores, k, axis=1)
    nrm = topk_mean(nrm_scores, k, axis=1)
    m = min(abn.data.shape[0], nrm.data.shape[0])
    return (1.0 - abn[:m] + nrm[:m]).relu().sum()


def loss_regularisation(scores, smooth_weight, sparse_weight):
    n = scores.data.shape[1]
    diffs = scores[:, 1:] - scores[:, :-1]
    return ((diffs * diffs).sum() * smooth_weight + scores.sum() * sparse_weight) / float(n)


def loss_contrastive(mined, features, temperature):
    """One gather, L2 normalisation and InfoNCE per set and direction."""
    masks = mined.masks()
    total = None
    if any(m.any() for m in masks):
        batch, t_len, dim = features.data.shape
        order = sorted(range(batch), key=mined.video_ids.__getitem__)
        row_of = np.arange(batch * t_len).reshape(batch, t_len)[order]
        flat = features.reshape(-1, dim)
        ha, ea, hn, en = (
            l2_normalize(gather_rows(flat, row_of[m[order]])) if m.any() else None
            for m in masks)
        for anchors, positives, negatives in ((ha, ea, en), (hn, en, ea)):
            if anchors is not None and positives is not None and negatives is not None:
                term = info_nce(anchors, positives, negatives, temperature)
                total = term if total is None else total + term
    if total is not None:
        return total
    return Tensor(np.zeros((), dtype=features.data.dtype))


def loss_total(batch, labels, mined, config):
    """The terms on sliced abnormal and normal rows, each times its weight
    and added with one tape op each; returns the total and the terms'
    values (0.0 for a term not evaluated)."""
    labels = np.asarray(labels)
    abnormal = np.flatnonzero(labels == 1)
    normal = np.flatnonzero(labels == 0)
    total = None
    parts = {}

    def add(name, weight, term):
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
        loss_snippet_topk(batch.scores[abnormal], batch.scores[normal], config.k)
        if config.w_snippet > 0 else None)
    add("l_vid", config.w_video,
        loss_video(batch.video_scores, labels) if config.w_video > 0 else None)
    add("l_reg", config.w_reg,
        loss_regularisation(batch.scores, config.smooth_weight, config.sparse_weight)
        if config.w_reg > 0 else None)
    if total is None:
        total = Tensor(np.zeros((), dtype=batch.scores.data.dtype))
    return total, parts


def embed(features, w, b, cls_token):
    """The input projection, then the cls token broadcast and concatenated."""
    batch, d = features.data.shape[0], w.data.shape[1]
    cls = broadcast_to(cls_token.reshape(1, 1, d), (batch, 1, d))
    return concat([cls, linear(features, w, b)], axis=1)


def snippet_scores(tokens, w, b):
    return linear(tokens[..., 1:, :], w, b).sigmoid()


def video_score(tokens, w, b):
    return linear(tokens[..., 0:1, :], w, b)[..., 0].sigmoid()


# ---------------------------------------------------------------------
# backward rules replaced by faster ones


def layer_norm_rule(x, gamma, beta, eps=1e-5):
    xd = x.data
    d = xd - xd.mean(axis=-1, keepdims=True)
    std = np.sqrt((d * d).mean(axis=-1, keepdims=True) + eps)
    xhat = d / std

    def backward(g):
        gx = None
        if x.requires_grad:
            gx = g * gamma.data
            gx = (gx - gx.mean(axis=-1, keepdims=True)
                  - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) / std
        return (gx,
                _unbroadcast(g * xhat, gamma.data.shape) if gamma.requires_grad else None,
                _unbroadcast(g, beta.data.shape) if beta.requires_grad else None)

    return node(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


def depthwise_conv_rule(x, kernel):
    """The conv taps alone, with a full padded zero array and ``width``
    full-size products for each gradient."""
    xd, k = x.data, kernel.data
    n, width = xd.shape[-2], k.shape[1]
    half = width // 2
    padded = xd[..., np.clip(np.arange(-half, n + half), 0, n - 1), :]
    acc = padded[..., 0:n, :] * k[:, 0]
    for j in range(1, width):
        acc = acc + padded[..., j:j + n, :] * k[:, j]

    def backward(g):
        gx = gk = None
        if kernel.requires_grad:
            gk = np.empty_like(k)
            for j in range(width):
                gk[:, j] = _unbroadcast(g * padded[..., j:j + n, :], k[:, j].shape)
        if x.requires_grad:
            gp = np.zeros_like(padded)
            for j in range(width):
                gp[..., j:j + n, :] += g * k[:, j]
            gx = gp[..., half:half + n, :]
            gx[..., 0, :] += gp[..., :half, :].sum(axis=-2)
            gx[..., -1, :] += gp[..., half + n:, :].sum(axis=-2)
        return gx, gk

    return node(acc, (x, kernel), backward)


def attention_rule(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Attention as one node whose backward forms dS from rowsum(dA * A)
    over the sequence and runs every product on the strided head views."""
    xd = x.data
    *lead, n, d = xd.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    r = len(lead)
    to_heads = (*range(r), r + 1, r, r + 2)
    qkv = np.empty((*lead, n, 3 * d), dtype=np.result_type(xd, wq.data))
    for i, w in enumerate((wq, wk, wv)):
        np.matmul(xd, w.data, out=qkv[..., i * d:(i + 1) * d])
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    qkv = qkv.reshape(*lead, n, 3, heads, dh)
    q, k, v = (qkv[..., i, :, :].transpose(to_heads) for i in range(3))
    s = (q @ np.swapaxes(k, -1, -2)) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = (attn @ v).transpose(to_heads).reshape(*lead, n, d)

    def backward(g):
        g_wo = merged.reshape(-1, d).T @ g.reshape(-1, d) if wo.requires_grad else None
        g_bo = _unbroadcast(g, bo.data.shape) if bo.requires_grad else None
        g_heads = (g @ wo.data.T).reshape(*lead, n, heads, dh).transpose(to_heads)
        g_attn = g_heads @ np.swapaxes(v, -1, -2)
        g_s = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
        g_s *= scale
        g_qkv = np.empty(qkv.shape, dtype=g_s.dtype)
        g_qkv[..., 0, :, :] = (g_s @ k).transpose(to_heads)
        g_qkv[..., 1, :, :] = (np.swapaxes(g_s, -1, -2) @ q).transpose(to_heads)
        g_qkv[..., 2, :, :] = (np.swapaxes(attn, -1, -2) @ g_heads).transpose(to_heads)
        g_qkv = g_qkv.reshape(-1, 3 * d)
        g_w = xd.reshape(-1, d).T @ g_qkv
        g_b = g_qkv.sum(axis=0)
        gx = None
        if x.requires_grad:
            w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
            gx = (g_qkv @ w_qkv.T).reshape(xd.shape)
        q_, k_, v_ = (slice(i * d, (i + 1) * d) for i in range(3))
        return gx, g_w[:, q_], g_b[q_], g_w[:, k_], g_b[k_], g_w[:, v_], g_b[v_], g_wo, g_bo

    return node(merged @ wo.data + bo.data, (x, wq, bq, wk, bk, wv, bv, wo, bo), backward)


def dws_conv1d_rule(x, depth_kernel, point_kernel, bias=None, skip=0):
    """``dws_conv1d`` as the encoder built it from nodes with the earlier
    rules: split, conv taps, ``@ point``, ``+ bias``, concat."""
    rows = x[..., skip:, :] if skip else x
    out = depthwise_conv_rule(rows, depth_kernel) @ point_kernel
    if bias is not None:
        out = out + bias
    return concat([x[..., :skip, :], out], axis=-2) if skip else out


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
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label} for {video_id}")
        try:
            if label == 1:
                hard = _hard_abnormal(scores, cfg)
                ha.extend((video_id, t) for t in hard)
                ea.extend((video_id, t)
                          for t in sorted(set(_top(scores, cfg.k_easy)) - set(hard)))
            else:
                hard = _top(scores, cfg.k_hard_normal)
                _top(scores, cfg.k_easy, False)    # the same bound on k_easy
                easy = [t for t in _top(scores, len(scores), False) if t not in hard]
                hn.extend((video_id, t) for t in sorted(hard))
                en.extend((video_id, t) for t in sorted(easy[:cfg.k_easy]))
        except ValueError as e:   # a video too short for the config
            raise ValueError(f"video {video_id}: {e}") from None
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
    s, y, _ = _validate(scores, labels)
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
    s, y, _ = _validate(scores, labels)
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


# ---------------------------------------------------------------------
# the generator, one video at a time


def generate_per_video(config: SynthConfig) -> list[tuple[str, str, int, np.ndarray,
                                                          np.ndarray | None]]:
    """Every video's (id, split, label, features, frame labels) in plan
    order; a train video's frame labels are None."""
    plan = _video_plan(config)
    seeds = np.random.SeedSequence(config.seed).spawn(len(plan))
    out = []
    for (video_id, split, label), seed in zip(plan, seeds):
        features, snippet_labels = _make_video(np.random.Generator(np.random.PCG64(seed)),
                                               label, config)
        frame_labels = (np.repeat(snippet_labels, config.frames_per_snippet)
                        if split == "test" else None)
        out.append((video_id, split, label, features, frame_labels))
    return out


# ---------------------------------------------------------------------
# the score-CSV reader, one row at a time


def _readable(rows, path):
    """``rows`` up to one that csv cannot read, which fails as a malformed
    row does, numbered as the rows before it are."""
    for i in itertools.count(2):
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error as e:
            raise ConfigError(f"{path}:{i}: unreadable row: {e}") from e
        yield row


def read_scores_csv_rows(path) -> list[tuple[str, int, np.ndarray]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8: byte 0x{e.object[e.start]:02x} "
                          f"at offset {e.start}") from None
    lines = text.splitlines()
    if not lines:
        return []
    reader = csv.reader(lines)
    header = next(reader)
    if set(header) != set(SCORE_COLUMNS):
        raise ConfigError(f"{path}: expected columns {','.join(SCORE_COLUMNS)}, "
                          f"got {header}")
    # found by name, read as csv.DictReader would: a repeated name reads its
    # last column, and a short row's missing fields read as None (malformed)
    column = {name: i for i, name in enumerate(header)}
    i_vid, i_t, i_score, i_label = (column[name] for name in SCORE_COLUMNS)
    width = len(header)
    per_video: dict[str, dict] = {}
    for i, row in enumerate(_readable(filter(None, reader), path), start=2):
        if len(row) < width:
            row = row + [None] * (width - len(row))
        try:
            vid = row[i_vid]
            t = int(row[i_t])
            score = float(row[i_score])
            label = int(row[i_label])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{path}:{i}: malformed row: {e}") from e
        if not math.isfinite(score):
            raise ConfigError(f"{path}:{i}: non-finite score {row[i_score]!r}")
        if vid is None or label not in (0, 1):
            raise ConfigError(f"{path}:{i}: bad video id or label")
        entry = per_video.setdefault(vid, {"label": label, "scores": {}})
        if entry["label"] != label:
            raise ConfigError(f"{path}:{i}: conflicting labels for video {vid}")
        if t in entry["scores"]:
            raise ConfigError(f"{path}:{i}: duplicate snippet index {t} for {vid}")
        entry["scores"][t] = score
    videos = []
    for vid, entry in per_video.items():
        ts = sorted(entry["scores"])
        if ts != list(range(len(ts))):
            raise ConfigError(f"{path}: video {vid} snippet indices are not 0..T-1")
        videos.append((vid, entry["label"],
                       np.array([entry["scores"][t] for t in ts], dtype=np.float64)))
    return videos


# ---------------------------------------------------------------------
# the explicit parameter init


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def init_params(config: EncoderConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Fan-in-scaled symmetric init; biases zero; deterministic for a seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d = config.d_model
    blocks = []
    for _ in range(config.depth):
        blocks.append(BlockParams(
            conv_depth=_uniform(rng, (d, config.conv_width), config.conv_width, dtype),
            conv_point=_uniform(rng, (d, d), d, dtype),
            conv_bias=_zeros(d, dtype),
            wq=_uniform(rng, (d, d), d, dtype), bq=_zeros(d, dtype),
            wk=_uniform(rng, (d, d), d, dtype), bk=_zeros(d, dtype),
            wv=_uniform(rng, (d, d), d, dtype), bv=_zeros(d, dtype),
            wo=_uniform(rng, (d, d), d, dtype), bo=_zeros(d, dtype),
            ln_gamma=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
            ln_beta=_zeros(d, dtype),
            ff_w1=_uniform(rng, (d, 2 * d), d, dtype), ff_b1=_zeros(2 * d, dtype),
            ff_w2=_uniform(rng, (2 * d, d), 2 * d, dtype), ff_b2=_zeros(d, dtype),
        ))
    return ModelParams(
        w_in=_uniform(rng, (config.d_in, d), config.d_in, dtype),
        b_in=_zeros(d, dtype),
        cls_token=_uniform(rng, (d,), d, dtype),
        blocks=blocks,
        score_w=_uniform(rng, (d,), d, dtype),
        score_b=_zeros((), dtype),
        video_w=_uniform(rng, (d,), d, dtype),
        video_b=_zeros((), dtype),
    )


def init_linear(d_in: int, seed: int, dtype=np.float32) -> tuple[Tensor, Tensor]:
    """The linear model's (w, b) at init."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return _uniform(rng, (d_in,), d_in, dtype), _zeros((), dtype)
