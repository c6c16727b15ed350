"""Finite-difference verification: every differentiable op, then the full
training objective end to end, each checked across several seeds.

``grad_check`` compares one scalar closure's tape gradient with central
differences; every perturbed evaluation runs untaped. Each case builds
float64 leaf parameters and a scalar closure; the closure is rebuilt per
evaluation so central differences see a fresh graph. Inputs are kept away
from kinks (relu at 0, clip boundaries, top-k ties) so the two-sided
difference is a valid derivative estimate at tolerance 1e-4.
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


@dataclass
class CheckRow:
    name: str
    seeds: int
    max_rel_err: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    rows: list[CheckRow] = field(default_factory=list)
    h: float = 1e-5
    tol: float = 1e-4
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
                     f"in {self.elapsed_s:.1f}s (h={self.h:g}, tol={self.tol:g})")
        return lines


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    worst_index: int
    analytic: float
    numeric: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_rel_err)


@dataclass
class GradCheckReport:
    """Per-parameter comparison of tape gradients vs central differences."""

    entries: list[GradCheckEntry] = field(default_factory=list)
    h: float = 1e-5
    tol: float = 1e-4

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.passed and e.max_rel_err <= self.tol for e in self.entries)

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not (e.passed and e.max_rel_err <= self.tol)]

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            status = "ok" if e.passed and e.max_rel_err <= self.tol else "FAIL"
            extra = f" ({e.note})" if e.note else ""
            lines.append(f"{e.name}: max_rel_err={e.max_rel_err:.3e} {status}{extra}")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]] | dict,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare the tape gradient of ``f()`` against central finite differences.

    ``f`` must rebuild the graph on every call and return a scalar; ``params``
    are the float64 leaves to perturb. The relative error for one element is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so near-zero
    gradients are judged on absolute error. A non-finite objective at a
    perturbed point marks the parameter as failed with its location.
    """
    named = list(params.items()) if isinstance(params, dict) else list(params)
    for name, p in named:
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters ({name} is {p.data.dtype})")
    for _, p in named:
        p.zero_grad()
    loss = f()
    if loss.data.size != 1:
        raise ValueError("grad_check objective must be scalar")
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in named
    }
    report = GradCheckReport(h=h, tol=tol)
    for name, p in named:
        ana = analytic[name]
        worst = GradCheckEntry(name=name, max_rel_err=0.0, worst_index=-1,
                               analytic=0.0, numeric=0.0)
        with no_grad():
            for flat_i, index in enumerate(np.ndindex(p.data.shape)):
                orig = p.data[index]
                p.data[index] = orig + h
                f_plus = float(f().data)
                p.data[index] = orig - h
                f_minus = float(f().data)
                p.data[index] = orig
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    worst = GradCheckEntry(
                        name=name, max_rel_err=math.inf, worst_index=flat_i,
                        analytic=float(ana[index]), numeric=math.nan,
                        note=f"non-finite objective at {name}[{flat_i}]")
                    break
                numeric = (f_plus - f_minus) / (2.0 * h)
                a_val = float(ana[index])
                rel = abs(a_val - numeric) / max(1.0, abs(a_val), abs(numeric))
                if rel > worst.max_rel_err:
                    worst = GradCheckEntry(name=name, max_rel_err=rel, worst_index=flat_i,
                                           analytic=a_val, numeric=numeric)
        report.entries.append(worst)
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
    # distinct values with gaps far above h so the top-k set is stable
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


OP_CASES = [
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
]


def check_case(name, builder, seeds: int, h: float, tol: float) -> CheckRow:
    """Run one case across seeds; the row keeps the worst relative error."""
    worst = 0.0
    note = ""
    ok = True
    for seed in range(seeds):
        rng = np.random.default_rng(10_000 + seed)
        params, f = builder(rng)
        report = grad_check(f, params, h=h, tol=tol)
        if report.max_rel_err > worst or not report.passed:
            worst = max(worst, report.max_rel_err)
        if not report.passed:
            ok = False
            bad = report.failures()[0]
            note = f"seed {seed}, {bad.name}[{bad.worst_index}]"
    return CheckRow(name=name, seeds=seeds, max_rel_err=worst, passed=ok, note=note)


def _objective_case(seed: int):
    """Micro transformer driven through the complete four-term objective."""
    config = EncoderConfig(num_snippets=4, d_in=3, d_model=4, heads=2, depth=1)
    model = TransformerModel.init(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(20_000 + seed)
    feats = {"nrm": rng.normal(size=(4, 3)), "abn": rng.normal(size=(4, 3))}
    # one snippet per set: abn 1 hard, abn 3 easy, nrm 0 hard, nrm 2 easy
    ha, ea, hn, en = np.zeros((4, 2, 4), dtype=bool)
    ha[1, 1] = ea[1, 3] = hn[0, 0] = en[0, 2] = True
    mined = MinedSets(("nrm", "abn"), ha, ea, hn, en)
    loss_cfg = LossConfig(k=2)
    videos = np.stack([feats["nrm"], feats["abn"]])
    labels = np.array([0, 1])

    def f():
        batch = model.forward(videos)
        batch.labels = labels
        total, _ = loss_total(batch, mined, loss_cfg)
        return total

    return model.named_params(), f


def check_objective(seeds: int, h: float, tol: float) -> CheckRow:
    return check_case("full_objective", lambda rng: _objective_case(
        int(rng.integers(0, 2 ** 31))), seeds, h, tol)


def run_all(seeds: int = 10, h: float = 1e-5, tol: float = 1e-4) -> VerificationReport:
    start = time.perf_counter()
    report = VerificationReport(h=h, tol=tol)
    for name, builder in OP_CASES:
        report.rows.append(check_case(name, builder, seeds, h, tol))
    report.rows.append(check_objective(seeds, h, tol))
    report.elapsed_s = time.perf_counter() - start
    return report
