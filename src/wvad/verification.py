"""Finite-difference verification: every differentiable op, then the full
training objective end to end, each checked across several seeds.

``grad_check`` compares one scalar closure's tape gradient with central
differences of step ``H``; every perturbed evaluation runs untaped. Each
case builds float64 leaf parameters and a scalar closure; the closure is
rebuilt per evaluation so central differences see a fresh graph. Inputs are
kept away from kinks (relu at 0, clip boundaries, top-k ties) so the
two-sided difference is a valid derivative estimate at tolerance ``TOL``.

Pass rule: a row (one parameter, or one case over all its seeds) passes
when its worst relative error is <= ``TOL``. A NaN error (a NaN or inf tape
gradient) fails, and so does a non-finite objective, whose error is inf.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .encoder import EncoderConfig, TransformerModel
from .losses import LossConfig, loss_total
from .mining import MinedSets
from .tensor import (Tensor, broadcast_to, concat, dropout, dws_conv1d, gather_rows,
                     gelu, l2_normalize, layer_norm, multi_head_self_attention, no_grad,
                     softmax, topk_mean)

H = 1e-5     # central-difference step
TOL = 1e-4   # the largest relative error a row passes with


@dataclass
class CheckRow:
    """One checked parameter (from ``grad_check``) or one case over seeds."""

    name: str
    seeds: int
    max_rel_err: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= TOL   # False for NaN


@dataclass
class VerificationReport:
    rows: list[CheckRow] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            extra = f" ({r.note})" if r.note else ""
            lines.append(f"gradcheck {r.name}: max rel err {r.max_rel_err:.3e} "
                         f"over {r.seeds} seeds {status}{extra}")
        lines.append(f"gradcheck total: {'PASS' if self.passed else 'FAIL'} "
                     f"in {self.elapsed_s:.1f}s (h={H:g}, tol={TOL:g})")
        return lines


def grad_check(f: Callable[[], Tensor],
               params: Iterable[tuple[str, Tensor]]) -> VerificationReport:
    """Compare the tape gradient of ``f()`` against central finite differences.

    ``f`` must rebuild the graph on every call and return a scalar; ``params``
    are the float64 leaves to perturb, and keep their tape gradients in
    ``.grad``. The report has one row per parameter. The relative error for
    one element is |analytic - numeric| / max(1, |analytic|, |numeric|), so
    near-zero gradients are judged on absolute error; a failing row's note
    names its worst element. A non-finite objective at a perturbed point
    fails the parameter with infinite error and names the point.
    """
    start = time.perf_counter()
    named = list(params)
    for name, p in named:
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters ({name} is {p.data.dtype})")
    for _, p in named:
        p.zero_grad()
    loss = f()
    if loss.data.size != 1:
        raise ValueError("grad_check objective must be scalar")
    loss.backward()
    report = VerificationReport()
    for name, p in named:
        # untaped evaluations leave .grad alone
        ana = p.grad if p.grad is not None else np.zeros_like(p.data)
        if ana.shape != p.data.shape:   # would broadcast against the differences
            raise ValueError(f"tape gradient of {name} is {ana.shape}, not {p.data.shape}")
        numeric = np.zeros_like(p.data)
        with no_grad():
            for flat_i, index in enumerate(np.ndindex(p.data.shape)):
                orig = p.data[index]
                p.data[index] = orig + H
                f_plus = float(f().data)
                p.data[index] = orig - H
                f_minus = float(f().data)
                p.data[index] = orig
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    row = CheckRow(name, 1, math.inf,
                                   f"non-finite objective at {name}[{flat_i}]")
                    break
                numeric[index] = (f_plus - f_minus) / (2.0 * H)
            else:
                with np.errstate(invalid="ignore"):   # inf tape gradients give NaN
                    rel = np.abs(ana - numeric) / np.maximum(
                        1.0, np.maximum(np.abs(ana), np.abs(numeric)))
                err = float(rel.max(initial=0.0))   # NaN wins the max, and argmax finds it
                row = CheckRow(name, 1, err, "" if err <= TOL else f"{name}[{np.argmax(rel)}]")
        report.rows.append(row)
    report.elapsed_s = time.perf_counter() - start
    return report


def _away_from(x, point, margin):
    """Push values within ``margin`` of ``point`` outside it, keeping sign."""
    d = x - point
    small = np.abs(d) < margin
    d = np.where(small, np.where(d >= 0, margin, -margin) * 2.0, d)
    return point + d


# each builder: rng -> (named float64 params, scalar closure)

def _case_arithmetic(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(_away_from(rng.normal(size=(3, 4)), 0.0, 0.3), requires_grad=True)
    w = rng.normal(size=(3, 4))
    return [("a", a), ("b", b), ("c", c)], \
        lambda: ((a + b) * (a - b) / c * Tensor(w)).sum() + (-a).sum()


def _case_broadcast(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    row = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    col = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    w3 = rng.normal(size=(2, 3, 4))
    return [("a", a), ("row", row), ("col", col)], \
        lambda: ((a + row) * col * Tensor(w)).sum() \
        + (broadcast_to(row, (2, 3, 4)) * Tensor(w3)).sum()


def _case_matmul(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    v = Tensor(rng.normal(size=4), requires_grad=True)
    u = Tensor(rng.normal(size=3), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)     # a batch of rows
    p = Tensor(rng.normal(size=(2, 2, 3, 2)), requires_grad=True)  # batched heads
    q = Tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
    w = rng.normal(size=(3, 2))
    w3 = rng.normal(size=(2, 3, 2))
    w4 = rng.normal(size=(2, 2, 3, 3))
    return [("a", a), ("b", b), ("v", v), ("u", u), ("x", x), ("p", p), ("q", q)], \
        lambda: ((a @ b) * Tensor(w)).sum() + (a @ v).sum() + (u @ a).sum() \
        + ((x @ b) * Tensor(w3)).sum() + ((x @ v) * Tensor(w3[..., 0])).sum() \
        + ((p @ q) * Tensor(w4)).sum()


def _case_getitem(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = rng.normal(size=(3, 3))
    return [("x", x)], \
        lambda: (x[1:4] * Tensor(w)).sum() + x[[0, 2, 2]].sum()


def _case_reshape_transpose(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = rng.normal(size=(4, 3))
    w3 = rng.normal(size=(2, 4, 3))
    return [("x", x), ("y", y)], \
        lambda: (x.reshape(2, 6).reshape(3, 4).T * Tensor(w)).sum() \
        + (y.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3).reshape(4, 3, 2)
           .transpose(2, 0, 1) * Tensor(w3)).sum()


def _case_reductions(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w0 = rng.normal(size=4)
    w1 = rng.normal(size=3)
    return [("x", x)], \
        lambda: (x.sum(axis=0) * Tensor(w0)).sum() \
        + (x.mean(axis=1) * Tensor(w1)).sum() + x.mean()


def _case_exp_log_sqrt(rng):
    pos = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 4)) * 0.5, requires_grad=True)
    w = rng.normal(size=(3, 4))
    return [("pos", pos), ("x", x)], \
        lambda: (pos.log() * Tensor(w)).sum() + pos.sqrt().sum() + x.exp().sum()


def _case_activations(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    r = Tensor(_away_from(rng.normal(size=(3, 4)), 0.0, 0.1), requires_grad=True)
    w = rng.normal(size=(3, 4))
    return [("x", x), ("r", r)], \
        lambda: (x.tanh() * Tensor(w)).sum() + x.sigmoid().sum() \
        + r.relu().sum() + gelu(x).sum()


def _case_clip(rng):
    raw = rng.normal(size=(3, 4))
    raw = _away_from(_away_from(raw, -0.5, 0.05), 0.5, 0.05)
    x = Tensor(raw, requires_grad=True)
    w = rng.normal(size=(3, 4))
    return [("x", x)], lambda: (x.clip(-0.5, 0.5) * Tensor(w)).sum()


def _case_concat(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 1, 3)), requires_grad=True)
    w0 = rng.normal(size=(4, 3))
    w1 = rng.normal(size=(2, 6))
    w2 = rng.normal(size=(2, 3, 3))
    return [("a", a), ("b", b), ("c", c)], \
        lambda: (concat([a, b], axis=0) * Tensor(w0)).sum() \
        + (concat([a, b], axis=1) * Tensor(w1)).sum() \
        + (concat([c, a.reshape(2, 1, 3), b.reshape(2, 1, 3)], axis=1) * Tensor(w2)).sum()


def _case_gather_rows(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = rng.normal(size=(4, 3))
    return [("x", x)], lambda: (gather_rows(x, [0, 2, 2, 4]) * Tensor(w)).sum()


def _case_softmax(rng):
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = rng.normal(size=(3, 5))
    return [("x", x)], lambda: (softmax(x, axis=-1) * Tensor(w)).sum()


def _case_topk_mean(rng):
    # distinct values with gaps far above H so the top-k set is stable
    base = rng.permutation(7).astype(np.float64) * 0.3
    x = Tensor(base + rng.normal(size=7) * 0.01, requires_grad=True)
    grid = np.stack([rng.permutation(6) for _ in range(3)]).astype(np.float64) * 0.3
    m = Tensor(grid + rng.normal(size=(3, 6)) * 0.01, requires_grad=True)
    w = rng.normal(size=3)
    return [("x", x), ("m", m)], \
        lambda: topk_mean(x, 3) + (topk_mean(m, 2, axis=1) * Tensor(w)).sum()


def _case_layer_norm(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    beta = Tensor(rng.normal(size=4), requires_grad=True)
    w = rng.normal(size=(3, 4))
    return [("x", x), ("gamma", gamma), ("beta", beta)], \
        lambda: (layer_norm(x, gamma, beta) * Tensor(w)).sum()


def _case_l2_normalize(rng):
    x = Tensor(rng.normal(size=(3, 4)) + 0.5, requires_grad=True)
    w = rng.normal(size=(3, 4))
    return [("x", x)], lambda: (l2_normalize(x) * Tensor(w)).sum()


def _case_dws_conv1d(rng):
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    xb = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)   # a batch, width-5 pad
    depth = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    depth5 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    point = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w = rng.normal(size=(5, 4))
    wb = rng.normal(size=(2, 3, 4))
    return [("x", x), ("xb", xb), ("depth", depth), ("depth5", depth5), ("point", point)], \
        lambda: (dws_conv1d(x, depth, point) * Tensor(w)).sum() \
        + (dws_conv1d(xb, depth5, point) * Tensor(wb)).sum()


def _case_attention(rng):
    d = 4
    x = Tensor(rng.normal(size=(4, d)), requires_grad=True)
    xb = Tensor(rng.normal(size=(2, 3, d)), requires_grad=True)   # a batch of videos
    mats = {m: Tensor(rng.normal(size=(d, d)) / np.sqrt(d), requires_grad=True)
            for m in ("wq", "wk", "wv", "wo")}
    biases = {m: Tensor(rng.normal(size=d) * 0.1, requires_grad=True)
              for m in ("bq", "bk", "bv", "bo")}
    w = rng.normal(size=(4, d))
    wb = rng.normal(size=(2, 3, d))
    params = [("x", x), ("xb", xb)] + list(mats.items()) + list(biases.items())

    def attend(inp):
        return multi_head_self_attention(
            inp, mats["wq"], biases["bq"], mats["wk"], biases["bk"],
            mats["wv"], biases["bv"], mats["wo"], biases["bo"], heads=2)

    return params, lambda: (attend(x) * Tensor(w)).sum() + (attend(xb) * Tensor(wb)).sum()


def _case_dropout(rng):
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = rng.normal(size=(4, 5))
    mask_seed = int(rng.integers(0, 2 ** 31))
    # fresh generator per call keeps the mask identical across FD evals
    return [("x", x)], \
        lambda: (dropout(x, 0.4, np.random.default_rng(mask_seed)) * Tensor(w)).sum()


def _case_full_objective(rng):
    """Micro transformer driven through the complete four-term objective."""
    seed = int(rng.integers(0, 2 ** 31))
    config = EncoderConfig(num_snippets=4, d_in=3, d_model=4, heads=2, depth=1)
    model = TransformerModel.init(config, seed=seed, dtype=np.float64)
    feat_rng = np.random.default_rng(20_000 + seed)
    feats = {"nrm": feat_rng.normal(size=(4, 3)), "abn": feat_rng.normal(size=(4, 3))}
    # one snippet per set: abn 1 hard, abn 3 easy, nrm 0 hard, nrm 2 easy
    ha, ea, hn, en = np.zeros((4, 2, 4), dtype=bool)
    ha[1, 1] = ea[1, 3] = hn[0, 0] = en[0, 2] = True
    mined = MinedSets(("nrm", "abn"), ha, ea, hn, en)
    loss_cfg = LossConfig(k=2)
    videos = np.stack([feats["nrm"], feats["abn"]])
    labels = np.array([0, 1])

    def f():
        total, _ = loss_total(model.forward(videos), labels, mined, loss_cfg)
        return total

    return model.named_params(), f


# every differentiable op, then the whole objective
CASES = [
    ("arithmetic", _case_arithmetic),
    ("broadcast", _case_broadcast),
    ("matmul", _case_matmul),
    ("getitem", _case_getitem),
    ("reshape_transpose", _case_reshape_transpose),
    ("reductions", _case_reductions),
    ("exp_log_sqrt", _case_exp_log_sqrt),
    ("activations", _case_activations),
    ("clip", _case_clip),
    ("concat", _case_concat),
    ("gather_rows", _case_gather_rows),
    ("softmax", _case_softmax),
    ("topk_mean", _case_topk_mean),
    ("layer_norm", _case_layer_norm),
    ("l2_normalize", _case_l2_normalize),
    ("dws_conv1d", _case_dws_conv1d),
    ("attention", _case_attention),
    ("dropout", _case_dropout),
    ("full_objective", _case_full_objective),
]


def check_case(name, builder, seeds: int) -> CheckRow:
    """Run one case across seeds. The row keeps the worst relative error, so
    it fails when any seed's row fails; its note names the first failing
    seed and that seed's worst element."""
    errs, note = [], ""
    for seed in range(seeds):
        params, f = builder(np.random.default_rng(10_000 + seed))
        rows = grad_check(f, params).rows
        worst = rows[np.argmax([r.max_rel_err for r in rows])]   # the first NaN, else the worst
        errs.append(worst.max_rel_err)
        if not (worst.passed or note):
            note = f"seed {seed}, {worst.note}"
    return CheckRow(name, seeds, float(np.max(errs, initial=0.0)), note)   # NaN wins


def run_all(seeds: int = 10) -> VerificationReport:
    start = time.perf_counter()
    report = VerificationReport()
    for name, builder in CASES:
        report.rows.append(check_case(name, builder, seeds))
    report.elapsed_s = time.perf_counter() - start
    return report
