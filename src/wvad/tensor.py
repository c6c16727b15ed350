"""Minimal reverse-mode autodiff over dense numpy arrays.

Define-by-run: every operation is one ``node``, which records its inputs and
a local backward rule returning one gradient per input, and
``Tensor.backward()`` replays the recorded graph in reverse topological
order. float64 is the verification dtype (all gradient checks run in it);
float32 is allowed for training. Binary ops wrap plain numbers as
constants in the other operand's dtype so the dtype never silently promotes.

Single-threaded numpy is the correctness baseline: forward results are
bitwise deterministic for fixed inputs and a fixed BLAS thread count.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

_GRAD_ENABLED = True
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure forward evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Dense array plus an optional gradient and backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self._owns_grad = False      # may ``grad`` be written in place?
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``.

        ``self`` must be a scalar. Nodes are visited in exact reverse
        topological order; each parent receives one accumulated gradient.
        Only leaves keep ``.grad``: an interior node's gradient is dropped
        as soon as its rule has passed it on, so a pass holds only the
        gradients still waiting for their rule. Interior gradients that a
        pass which raised left behind are cleared first, so only leaves
        accumulate across calls.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        order = topological_order(self)
        for node in order:
            if node._parents:
                node.grad = None
        self.grad = np.ones_like(self.data)
        self._owns_grad = True
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        return node(self.data + other.data, (self, other), lambda g: (
            _unbroadcast(g, self.data.shape) if self.requires_grad else None,
            _unbroadcast(g, other.data.shape) if other.requires_grad else None))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        return node(self.data - other.data, (self, other), lambda g: (
            _unbroadcast(g, self.data.shape) if self.requires_grad else None,
            _unbroadcast(-g, other.data.shape) if other.requires_grad else None))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        other = self._wrap(other)
        return node(self.data * other.data, (self, other), lambda g: (
            _unbroadcast(g * other.data, self.data.shape) if self.requires_grad else None,
            _unbroadcast(g * self.data, other.data.shape) if other.requires_grad else None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        return node(self.data / other.data, (self, other), lambda g: (
            _unbroadcast(g / other.data, self.data.shape) if self.requires_grad else None,
            _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
            if other.requires_grad else None))

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __neg__(self):
        return node(-self.data, (self,), lambda g: (-g,))

    def __matmul__(self, other):
        """Matrix product with numpy semantics for these operand forms:

        1-D/2-D @ 1-D/2-D, N-D @ 2-D and N-D @ 1-D (a stack of rows times one
        matrix or vector), and N-D @ N-D of equal rank >= 3 with equal
        leading (batch) dimensions.
        """
        if not isinstance(other, Tensor):
            raise TypeError("matmul expects a Tensor operand")
        a, b = self.data, other.data
        if a.ndim == 0 or b.ndim == 0 or (
                b.ndim > 2 and (a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2])):
            raise ValueError(f"unsupported matmul operands {a.shape} @ {b.shape}")

        def backward(g):
            ga = gb = None
            if self.requires_grad:
                if b.ndim == 1:        # (..., k) @ (k,) -> (...)
                    ga = np.multiply.outer(g, b)
                elif a.ndim == 1:      # (k,) @ (k, m) -> (m,)
                    ga = b @ g
                elif b.ndim == 2:      # one GEMM over the rows of the stack
                    ga = (g.reshape(-1, b.shape[1]) @ b.T).reshape(a.shape)
                else:
                    ga = g @ np.swapaxes(b, -1, -2)
            if other.requires_grad:
                if b.ndim > 2:         # batched: one product per leading index
                    gb = np.swapaxes(a, -1, -2) @ g
                elif a.ndim == 1:
                    gb = np.multiply.outer(a, g)
                elif b.ndim == 1:      # sum over every row of the stack
                    gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1)
                else:
                    gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, gb

        return node(a @ b, (self, other), backward)

    # -- shape ops -----------------------------------------------------

    def __getitem__(self, idx):
        def backward(g):
            z = np.zeros_like(self.data)
            if _basic_index(idx):
                z[idx] += g
            else:
                np.add.at(z, idx, g)
            return (z,)

        return node(self.data[idx], (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return node(self.data.reshape(shape), (self,),
                    lambda g: (g.reshape(self.data.shape),))

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (numpy semantics); no axes reverses them."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = axes or None
        return node(self.data.transpose(axes), (self,), lambda g: (
            g.transpose(None if axes is None else tuple(np.argsort(axes))),))

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return node(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                    lambda g: (_spread(g, self.data.shape, axis, keepdims),))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return node(self.data.mean(axis=axis, keepdims=keepdims), (self,), lambda g: (
            _spread(g, self.data.shape, axis, keepdims)
            / (self.data.size if axis is None else _axis_count(self.data.shape, axis)),))

    # -- elementwise ---------------------------------------------------

    def exp(self) -> "Tensor":
        val = np.exp(self.data)
        return node(val, (self,), lambda g: (g * val,))

    def log(self) -> "Tensor":
        return node(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sqrt(self) -> "Tensor":
        val = np.sqrt(self.data)
        return node(val, (self,), lambda g: (g * (0.5 / val),))

    def tanh(self) -> "Tensor":
        val = np.tanh(self.data)
        return node(val, (self,), lambda g: (g * (1.0 - val * val),))

    def sigmoid(self) -> "Tensor":
        val = stable_sigmoid(self.data)
        return node(val, (self,), lambda g: (g * val * (1.0 - val),))

    def relu(self) -> "Tensor":
        return node(np.maximum(self.data, 0.0), (self,), lambda g: (g * (self.data > 0),))

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values to [lo, hi]; gradient is zero where the clamp binds."""
        return node(np.clip(self.data, lo, hi), (self,),
                    lambda g: (g * ((self.data > lo) & (self.data < hi)),))

    def _wrap(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))


# ---------------------------------------------------------------------
# graph plumbing


def topological_order(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root`` through the tape, parents first.

    This is the walk ``backward`` replays in reverse; its length is the
    graph size of one objective.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad``, copying only when it must (copy-on-write).

    ``g`` may be a view of another node's gradient or a read-only
    broadcast, so it is never written to. A leaf's gradient is what callers
    read, so a leaf always gets an owned, writeable copy. An interior node
    keeps its first gradient as given; its second accumulation allocates
    the sum, which the node owns and adds into in place from then on.
    """
    if t.grad is None:
        if t._parents and g.dtype == t.data.dtype:
            t.grad, t._owns_grad = g, False
        else:
            t.grad, t._owns_grad = np.array(g, dtype=t.data.dtype), True
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad = np.add(t.grad, g, out=np.empty(t.grad.shape, dtype=t.data.dtype))
        t._owns_grad = True


def node(value: np.ndarray, parents: Sequence[Tensor],
         backward: Callable[[np.ndarray], Iterable[np.ndarray | None]]) -> Tensor:
    """One tape node: ``value`` computed from ``parents``, with
    ``backward(g)`` giving one gradient per parent, in order (None for a
    parent it leaves alone). Parents that need no gradient get none, and
    nothing is recorded under ``no_grad`` or when no parent needs one.
    Every op on the tape is built with this alone.
    """
    out = Tensor(value)
    if _GRAD_ENABLED:
        live = tuple(t for t in parents if t.requires_grad)
        if live:
            out.requires_grad = True
            out._parents = live
            out._backward = lambda g: _accum_each(parents, backward(g))
    return out


def _accum_each(tensors: Iterable[Tensor], grads: Iterable[np.ndarray | None]):
    """``_accum`` each gradient that is given into its tensor, if that
    tensor requires one."""
    for t, g in zip(tensors, grads):
        if g is not None and t.requires_grad:
            _accum(t, g)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back to the un-reduced shape."""
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def _axis_count(shape: tuple[int, ...], axis) -> int:
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = 1
    for ax in axes:
        n *= shape[ax]
    return n


def array_mean(x: np.ndarray, axis=None, keepdims: bool = False):
    """``x.mean(axis, keepdims=keepdims)`` of a float array by the two calls
    numpy's ``_methods._mean`` makes, one ``np.add.reduce`` and one division
    by the count, so the same bits without its Python wrapper."""
    total = np.add.reduce(x, axis=axis, keepdims=keepdims)
    count = np.intp(x.size if axis is None else _axis_count(x.shape, axis))
    if isinstance(total, np.ndarray):
        return np.true_divide(total, count, out=total, casting="unsafe")
    return total.dtype.type(total / count)


def _basic_index(idx) -> bool:
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(p, (int, np.integer, slice)) or p is None or p is Ellipsis
               for p in parts)


def _column_sums(g2: np.ndarray) -> np.ndarray:
    """Sums over the rows of a (rows, m) matrix, as one GEMV: numpy's
    reduction along axis 0 takes several times as long."""
    return np.ones(g2.shape[0], dtype=g2.dtype) @ g2


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function without overflow: 1 / (1 + e) where x >= 0
    and e / (1 + e) elsewhere, with e = exp(-|x|), in ``x``'s dtype.

    The one is a scalar of that dtype: numpy < 2 would promote a 0-d
    float32 with a Python float to float64.
    """
    e = np.exp(-np.abs(x))
    one = e.dtype.type(1)
    val = np.where(x >= 0, one, e)
    val /= one + e
    return val


# ---------------------------------------------------------------------
# free functions


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``."""
    ts = list(tensors)

    def backward(g):
        ax = axis % g.ndim
        return np.split(g, np.cumsum([t.data.shape[ax] for t in ts])[:-1], axis=ax)

    return node(np.concatenate([t.data for t in ts], axis=axis), ts, backward)


def broadcast_to(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Repeat ``x`` along broadcast axes; the gradient sums them back."""
    return node(np.broadcast_to(x.data, shape), (x,),
                lambda g: (_unbroadcast(g, x.data.shape),))


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows by integer index; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        z = np.zeros_like(x.data)
        np.add.at(z, idx, g)
        return (z,)

    return node(x.data[idx], (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``; rows sum to one."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=axis, keepdims=True)
    return node(val, (x,), lambda g: (val * (g - (g * val).sum(axis=axis, keepdims=True)),))


def topk_mean(scores: Tensor, k: int, axis: int | None = None) -> Tensor:
    """Mean of the k largest entries of a 1-D tensor, or along ``axis``.

    Without ``axis`` the input must be 1-D and the result is a scalar; with
    it the axis is reduced away, one top-k mean per lane. Ties break toward
    the lowest index (stable selection), so the result and its gradient (1/k
    on the selected entries, 0 elsewhere) are deterministic.
    """
    x = scores.data
    if axis is None:
        if x.ndim != 1:
            raise ValueError("topk_mean expects a 1-D tensor unless an axis is given")
        axis = 0
    n = x.shape[axis]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    idx = np.take(np.argsort(-x, axis=axis, kind="stable"), np.arange(k), axis=axis)

    def backward(g):
        z = np.zeros_like(x)
        np.put_along_axis(z, idx, np.expand_dims(g / k, axis), axis=axis)
        return (z,)

    return node(np.take_along_axis(x, idx, axis=axis).mean(axis=axis), (scores,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise each row to zero mean / unit variance, then scale and shift.

    One node; the backward is the closed form of Ba et al. 2016, with
    x_hat the normalised row and s its standard deviation:
    dx = (dx_hat - mean(dx_hat) - x_hat * mean(dx_hat * x_hat)) / s.
    """
    xd = x.data
    xhat = xd - array_mean(xd, -1, keepdims=True)
    std = array_mean(xhat * xhat, -1, keepdims=True)
    std += eps
    np.sqrt(std, out=std)
    xhat /= std
    width = xd.shape[-1]

    def backward(g):
        gx = None
        if x.requires_grad:
            # the two row means as einsum sums over the short last axis, in place
            gx = g * gamma.data
            proj = xhat * (np.einsum("...i,...i->...", gx, xhat)[..., None] / width)
            gx -= np.einsum("...i->...", gx)[..., None] / width
            gx -= proj
            gx /= std
        return (gx,
                _column_sums((g * xhat).reshape(-1, width)).reshape(gamma.data.shape)
                if gamma.requires_grad else None,
                _column_sums(g.reshape(-1, width)).reshape(beta.data.shape)
                if beta.requires_grad else None)

    return node(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Smooth GELU (tanh approximation), one node."""
    xd = x.data
    th = xd * xd
    th *= xd
    th *= 0.044715
    th += xd
    th *= _GELU_C
    th = np.tanh(th)
    y = xd * (th + 1.0)
    y *= 0.5

    def backward(g):
        # 0.5 * (1 + th + x * (1 - th^2) * c * (1 + 3 * 0.044715 * x^2)), in
        # place; x^2 and 1 + th are recomputed by the forward's expressions
        # rather than kept on the tape
        d = th * th
        np.subtract(1.0, d, out=d)
        d *= xd
        d *= (xd * xd) * (3.0 * 0.044715 * _GELU_C) + _GELU_C
        d += th + 1.0
        d *= g
        d *= 0.5
        return (d,)

    return node(y, (x,), backward)


def unit_rows(xd: np.ndarray, eps: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Each row (last axis) of ``xd`` scaled to unit Euclidean norm, and the norms."""
    norm = np.sqrt((xd * xd).sum(axis=-1, keepdims=True) + eps)
    return xd / norm, norm


def unit_rows_backward(g: np.ndarray, val: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """The rows' gradient of ``unit_rows`` from its output ``val``'s, ``g``."""
    gx = val * np.einsum("...i,...i->...", g, val)[..., None]
    np.subtract(g, gx, out=gx)
    gx /= norm
    return gx


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row (last axis) to unit Euclidean norm, one node."""
    val, norm = unit_rows(x.data, eps)
    return node(val, (x,), lambda g: (unit_rows_backward(g, val, norm),))


def affine_grads(xd: np.ndarray, w: Tensor, b: Tensor | None, g: np.ndarray,
                 rows: bool) -> tuple[np.ndarray | None, ...]:
    """Gradients (rows, ``w``, ``b``) of ``xd @ w + b`` for rows ``xd``
    (..., k) and a (k, m) or (k,) weight, each None where it is not needed:
    the rows' unless ``rows`` is set, a tensor's unless it requires one.

    The rows are flattened to one (rows, k) matrix first, so each product
    is one GEMM, where numpy would run a (B, T, k) stack as B of them.
    """
    k = xd.shape[-1]
    w2 = w.data.reshape(k, -1)
    g2 = g.reshape(-1, w2.shape[1])
    gw = (xd.reshape(-1, k).T @ g2).reshape(w.data.shape) if w.requires_grad else None
    gb = (_column_sums(g2).reshape(b.data.shape)
          if b is not None and b.requires_grad else None)
    return (g2 @ w2.T).reshape(xd.shape) if rows else None, gw, gb


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x @ w + b`` of the rows of ``x`` (..., k), with
    ``w`` (k, m) or (k,), as one node.

    The forward is the composed expression, so it is bitwise ``x @ w + b``;
    the backward runs each product as one GEMM over all rows.
    """
    if w.data.ndim not in (1, 2) or b.data.size != w.data.size // w.data.shape[0]:
        raise ValueError(f"linear expects a (k, m) weight with an (m,) bias or a (k,) "
                         f"weight with a scalar bias, got {w.data.shape} and {b.data.shape}")
    return node(x.data @ w.data + b.data, (x, w, b),
                lambda g: affine_grads(x.data, w, b, g, x.requires_grad))


def dws_conv1d(x: Tensor, depth_kernel: Tensor, point_kernel: Tensor,
               bias: Tensor | None = None, skip: int = 0) -> Tensor:
    """Depthwise-separable 1-D convolution over the time axis, one node.

    ``x`` is (T, C) or a batch (B, T, C); ``depth_kernel`` is (C, W) with W
    odd, applied per channel along time with replicate padding ("same"
    output length); ``point_kernel`` is (C, C') and mixes channels, and
    ``bias`` (C',), if given, is added last. Output row t depends only on
    input rows t-W//2 .. t+W//2 of the same video. The first ``skip`` rows
    of each video pass through unchanged and the conv runs over the rest,
    so C' must then equal C: the encoder's cls token has no temporal
    position.

    The forward runs the composed form's expressions in its order (taps,
    ``@ point``, ``+ bias``, then the concatenation after the skipped
    rows; ``tests/oracles.py``), so it is bitwise that form. In the
    backward the padding rows' gradient folds back onto the two edge rows,
    and the kernel gradient is one einsum over a sliding window of the
    padded rows, gathered again there rather than kept on the tape.
    """
    xd, k = x.data, depth_kernel.data
    if xd.ndim not in (2, 3) or k.ndim != 2 or point_kernel.data.ndim != 2:
        raise ValueError("dws_conv1d expects a 2-D or 3-D input and 2-D kernels")
    channels = xd.shape[-1]
    if k.shape[0] != channels:
        raise ValueError(f"depth kernel has {k.shape[0]} channels, input has {channels}")
    if point_kernel.data.shape[0] != channels:
        raise ValueError(f"point kernel has {point_kernel.data.shape[0]} input channels, "
                         f"input has {channels}")
    width = k.shape[1]
    if width % 2 == 0:
        raise ValueError(f"kernel width must be odd, got {width}")
    n = xd.shape[-2] - skip
    if n < 1 or skip < 0 or (skip and point_kernel.data.shape[1] != channels):
        raise ValueError(f"cannot pass {skip} rows of {xd.shape} through a "
                         f"{point_kernel.data.shape} point kernel")
    half = width // 2
    edge = np.minimum(np.maximum(np.arange(skip - half, skip + n + half), skip), skip + n - 1)
    padded = xd[..., edge, :]
    acc = padded[..., 0:n, :] * k[:, 0]
    for j in range(1, width):
        acc += padded[..., j:j + n, :] * k[:, j]
    y = acc @ point_kernel.data
    if bias is not None:
        y = y + bias.data
    if skip:
        y = np.concatenate([xd[..., :skip, :], y], axis=-2)

    def backward(g):
        g_acc, *g_point = affine_grads(acc, point_kernel, bias, g[..., skip:, :],
                                       x.requires_grad or depth_kernel.requires_grad)
        g_depth = gx = None
        if depth_kernel.requires_grad:
            rows = xd[..., edge, :].reshape(-1, n + 2 * half, channels)
            windows = sliding_window_view(rows, n, axis=1)        # (B, W, C, n)
            g_depth = np.einsum("btc,bjct->cj", g_acc.reshape(-1, n, channels), windows)
        if x.requires_grad:
            # tap j = half + s read input row t + s for output row t: its
            # product lands there, and the rows that read the padding
            # fold onto the edge row as a short sum
            gx = np.empty_like(xd)
            if skip:
                gx[..., :skip, :] = g[..., :skip, :]
            g_in = gx[..., skip:, :]
            np.multiply(g_acc, k[:, half], out=g_in)
            for s in range(-half, half + 1):
                lo, hi = min(n, max(0, -s)), max(0, min(n, n - s))
                if s and lo < hi:
                    g_in[..., lo + s:hi + s, :] += g_acc[..., lo:hi, :] * k[:, half + s]
                if s < 0:
                    g_in[..., 0, :] += g_acc[..., :lo, :].sum(axis=-2) * k[:, half + s]
                elif s > 0:
                    g_in[..., n - 1, :] += g_acc[..., hi:, :].sum(axis=-2) * k[:, half + s]
        return (gx, g_depth, *g_point)

    return node(y, (x, depth_kernel, point_kernel) + (() if bias is None else (bias,)),
                backward)


def multi_head_self_attention(
    x: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    heads: int,
) -> Tensor:
    """Standard scaled dot-product self-attention over the rows of ``x``.

    ``x`` is (n, d) or a batch (B, n, d) with d divisible by ``heads``;
    tokens attend within their own video only. Heads are a reshape of the
    projections to (..., heads, n, d/heads), so each output row is, per
    head, a convex combination of value rows (attention rows sum to one).

    One node. Q, K and V are written side by side into one (..., n, 3d)
    array, each by its own product: one product with [wq|wk|wv] would round
    differently where d is not a multiple of the BLAS kernel's column tile,
    and the forward is bitwise the composed form (``tests/oracles.py``).
    The backward is closed form: with A the attention, O = A V the heads'
    output and dA, dO their gradients, the scores get
    dS = A * (dA - rowsum(dA * A)), where rowsum(dA * A) = rowsum(dO * O)
    is taken over the head width instead of the sequence (Dao et al.
    2022). dS is built in place on dA, with the score scale folded into
    dO. The head-batched products write straight into the stacked
    (..., n, 3d) gradient, and one product with it gives the three
    projection-weight gradients and one more gives dx.
    """
    xd = x.data
    *lead, n, d = xd.shape
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    r = len(lead)
    # (..., n, h, dh) <-> (..., h, n, dh); a swap, so it also merges heads back
    to_heads = (*range(r), r + 1, r, r + 2)
    qkv = np.empty((*lead, n, 3 * d), dtype=np.result_type(xd, wq.data))
    for i, w in enumerate((wq, wk, wv)):
        np.matmul(xd, w.data, out=qkv[..., i * d:(i + 1) * d])
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    qkv = qkv.reshape(*lead, n, 3, heads, dh)
    q, k, v = [qkv[..., i, :, :].transpose(to_heads) for i in range(3)]
    # scale, shift, exp and normalise in place on one (..., n, n) buffer;
    # the row max is over one key-major copy: a max is exact in any order,
    # and numpy's reduction over a short last axis is several times slower
    attn = q @ k.swapaxes(-1, -2)
    attn *= scale
    attn -= np.maximum.reduce(np.ascontiguousarray(attn.transpose(r + 2, *range(r + 2))),
                              axis=0)[..., None]
    np.exp(attn, out=attn)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)
    o = attn @ v
    merged = o.transpose(to_heads).reshape(*lead, n, d)

    def backward(g):
        g_o, *g_out = affine_grads(merged, wo, bo, g, True)
        g_o = g_o.reshape(*lead, n, heads, dh).transpose(to_heads)
        # dS from the scaled dO, as one contiguous copy: the strided
        # head views make numpy's small batched products much slower
        g_os = np.multiply(g_o, scale, order="C")
        g_s = g_os @ np.ascontiguousarray(v.swapaxes(-1, -2))
        g_s -= np.einsum("...ij,...ij->...i", g_os, o)[..., None]
        g_s *= attn
        g_qkv = np.empty(qkv.shape, dtype=g_s.dtype)
        g_q, g_k, g_v = (g_qkv[..., i, :, :].transpose(to_heads) for i in range(3))
        np.matmul(g_s, k, out=g_q)
        np.matmul(g_s.swapaxes(-1, -2), q, out=g_k)
        np.matmul(attn.swapaxes(-1, -2), g_o, out=g_v)
        g_qkv = g_qkv.reshape(-1, 3 * d)
        g_w = xd.reshape(-1, d).T @ g_qkv
        g_b = _column_sums(g_qkv)
        gx = None
        if x.requires_grad:
            w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
            gx = (g_qkv @ w_qkv.T).reshape(xd.shape)
        q_, k_, v_ = (slice(i * d, (i + 1) * d) for i in range(3))
        return gx, g_w[:, q_], g_b[q_], g_w[:, k_], g_b[k_], g_w[:, v_], g_b[v_], *g_out

    return node(merged @ wo.data + bo.data, (x, wq, bq, wk, bk, wv, bv, wo, bo), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout driven by an explicit generator."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return x * Tensor(keep / (1.0 - rate))
