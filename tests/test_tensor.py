"""Unit and finite-difference tests for the autodiff engine."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from wvad.errors import ConfigError
from wvad.losses import _info_nce
from wvad.tensor import (
    Tensor,
    array_mean,
    broadcast_to,
    concat,
    dropout,
    dws_conv1d,
    gather_rows,
    gelu,
    l2_normalize,
    layer_norm,
    linear,
    multi_head_self_attention,
    no_grad,
    node,
    softmax,
    stable_sigmoid,
    topk_mean,
    topological_order,
)
from wvad.verification import grad_check


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def check(f, params):
    report = grad_check(f, params)
    assert report.passed, report.summary_lines()
    return report


# ---------------------------------------------------------------------
# basics


def test_add_mul_values():
    a = t64([1.0, 2.0])
    b = t64([3.0, 4.0])
    out = (a + b) * a
    np.testing.assert_allclose(out.data, [4.0, 12.0])


def test_shared_gradient_feeds_two_parents():
    """Copy-on-write accumulation: a gradient array handed to several
    parents, or a read-only broadcast, is never written through."""
    a = t64([1.0, 2.0, 3.0])
    w = np.array([0.5, -1.0, 2.0])
    v = np.array([3.0, 1.0, -2.0])
    x = a * 2.0                       # interior; x + x hands it one array twice
    ((x + x) * Tensor(w)).sum().backward()
    np.testing.assert_array_equal(a.grad, 4.0 * w)

    b = t64([1.0, 2.0, 3.0])
    p, q = b * 1.0, b * 3.0           # p + q lends one array to both parents
    (((p + q) * Tensor(w)).sum() + (p * Tensor(v)).sum()).backward()
    np.testing.assert_array_equal(b.grad, 4.0 * w + v)

    c = t64(np.ones((2, 3)))
    y = c * 1.0                       # first gradient: a broadcast view of a scalar
    (y.sum() + (y * Tensor(np.arange(6.0).reshape(2, 3))).sum()).backward()
    np.testing.assert_array_equal(c.grad, 1.0 + np.arange(6.0).reshape(2, 3))


def test_leaf_gradient_is_an_owned_writeable_copy():
    a = t64([1.0, 2.0])
    a.sum().backward()                 # the op hands a read-only broadcast
    assert a.grad.flags.writeable and a.grad.flags.owndata
    b = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    (b * Tensor(np.array([1.0, 2.0]))).sum().backward()   # float64 gradient
    assert b.grad.dtype == np.float32
    np.testing.assert_array_equal(b.grad, [1.0, 2.0])


def test_backward_twice_accumulates_into_leaves_only():
    x = t64(3.0)
    y = x * x + x
    y.backward()
    y.backward()
    assert x.grad == pytest.approx(14.0)


def test_only_leaves_keep_a_gradient_after_backward():
    a, w = t64([1.0, -2.0, 3.0]), t64([0.5, 0.25, 2.0])
    y = gelu(a * w)
    loss = (y * y + y).sum()
    loss.backward()
    graph = topological_order(loss)
    assert [n for n in graph if n._parents and n.grad is not None] == []
    assert all(n.grad is not None for n in (a, w))


def _raising_once(x: Tensor) -> Tensor:
    """``x`` unchanged, through a node whose backward raises on its first
    call only."""
    calls = []

    def backward(g):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("rule failed")
        return (g,)

    return node(x.data.copy(), (x,), backward)


def test_a_backward_that_raised_leaves_nothing_a_later_pass_adds_into():
    """The rule raises after its sibling branch has already given ``h`` a
    gradient; a second pass over the same graph, with the leaves zeroed as
    ``train_step`` zeroes them, gives a clean pass's leaf gradients."""
    def graph(faulty):
        w = t64([1.5, -0.5, 2.0])
        h = w * 3.0
        return w, h, ((h * h) + (_raising_once(h) if faulty else h)).sum()

    w, h, loss = graph(True)
    with pytest.raises(RuntimeError, match="rule failed"):
        loss.backward()
    assert h.grad is not None
    w.zero_grad()
    loss.backward()
    clean_w, _, clean = graph(False)
    clean.backward()
    np.testing.assert_array_equal(w.grad, clean_w.grad)


def test_reuse_accumulates_gradient():
    # y = x*x + x, dy/dx = 2x + 1
    x = t64(3.0)
    y = x * x + x
    y.backward()
    assert x.grad == pytest.approx(7.0)


def test_scalar_wrapping_keeps_dtype():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    y = ((x * 2.5) + 1.0) / 3.0
    assert y.data.dtype == np.float32


def test_backward_requires_scalar():
    x = t64([1.0, 2.0])
    with pytest.raises(ValueError):
        (x * x).backward()


def test_no_grad_blocks_recording():
    x = t64([1.0, 2.0])
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    assert y._backward is None


_TAPE_PLUMBING = {"_result", "_accum", "_accum_each"}


def _with_enclosing_function(tree):
    """Every AST node with the name of the innermost ``def`` around it."""
    stack = [(tree, None)]
    while stack:
        n, fn = stack.pop()
        yield n, fn
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = n.name
        stack.extend((child, fn) for child in ast.iter_child_nodes(n))


def _sets_backward(n) -> bool:
    """Does ``n`` assign some object's ``_backward`` a value other than None?"""
    if not isinstance(n, (ast.Assign, ast.AnnAssign)):
        return False
    if isinstance(n.value, ast.Constant) and n.value.value is None:
        return False     # Tensor.__init__ starts every tensor without a rule
    targets = n.targets if isinstance(n, ast.Assign) else [n.target]
    return any(isinstance(t, ast.Attribute) and t.attr == "_backward"
               for target in targets for t in ast.walk(target))


def test_every_tape_node_is_built_by_tensor_node():
    """Only ``tensor.node`` gives a tensor its backward rule, and only
    ``tensor.py`` reaches the gradient plumbing, so no op in ``src/`` or
    the tests can wire the tape a second way."""
    root = Path(__file__).resolve().parent.parent
    setters, reaches = set(), set()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        where = path.relative_to(root).as_posix()
        for n, fn in _with_enclosing_function(ast.parse(path.read_text(encoding="utf-8"))):
            if _sets_backward(n):
                setters.add((where, fn))
            if where != "src/wvad/tensor.py" and (
                    isinstance(n, ast.ImportFrom)
                    and any(a.name in _TAPE_PLUMBING for a in n.names)
                    or isinstance(n, ast.Attribute) and n.attr in _TAPE_PLUMBING):
                reaches.add((where, n.lineno))
    assert setters == {("src/wvad/tensor.py", "node")}
    assert not reaches, sorted(reaches)


def test_tensor_of_data_breaks_graph():
    x = t64([1.0, -2.0])
    y = Tensor(x.data)
    assert not y.requires_grad
    np.testing.assert_array_equal(y.data, x.data)


def test_broadcast_add_unbroadcasts_grad():
    a = t64(np.ones((3, 4)))
    b = t64(np.ones(4))
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 4)))
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


def test_rsub_rdiv():
    x = t64(2.0)
    y = 1.0 - x
    z = 1.0 / x
    assert y.data == pytest.approx(-1.0)
    assert z.data == pytest.approx(0.5)
    (y + z).backward()
    assert x.grad == pytest.approx(-1.0 - 0.25)


# ---------------------------------------------------------------------
# matmul, all rank combinations


def test_matmul_shapes_and_grads():
    rng = np.random.default_rng(11)
    a2 = t64(rng.normal(size=(3, 4)))
    b2 = t64(rng.normal(size=(4, 2)))
    v4 = t64(rng.normal(size=4))
    v3 = t64(rng.normal(size=3))

    check(lambda: ((a2 @ b2) * (a2 @ b2)).sum(), [("a", a2), ("b", b2)])
    check(lambda: ((a2 @ v4) * (a2 @ v4)).sum(), [("a", a2), ("v", v4)])
    check(lambda: ((v3 @ a2) * (v3 @ a2)).sum(), [("v", v3), ("a", a2)])
    check(lambda: (v4 @ v4) * (v4 @ v4), [("v", v4)])


def test_matmul_batched_forms_fd():
    rng = np.random.default_rng(12)
    x3 = t64(rng.normal(size=(2, 3, 4)))
    w = t64(rng.normal(size=(4, 2)))
    v = t64(rng.normal(size=4))
    q = t64(rng.normal(size=(2, 2, 3, 4)))
    k = t64(rng.normal(size=(2, 2, 4, 3)))
    check(lambda: ((x3 @ w) * (x3 @ w)).sum(), [("x3", x3), ("w", w)])
    check(lambda: ((x3 @ v) * (x3 @ v)).sum(), [("x3", x3), ("v", v)])
    check(lambda: ((q @ k) * (q @ k)).sum(), [("q", q), ("k", k)])


def test_matmul_batched_equals_per_item():
    rng = np.random.default_rng(13)
    x3 = rng.normal(size=(3, 5, 4))
    w = rng.normal(size=(4, 2))
    v = rng.normal(size=4)
    for b in range(3):
        np.testing.assert_array_equal((Tensor(x3) @ Tensor(w)).data[b], x3[b] @ w)
        np.testing.assert_array_equal((Tensor(x3) @ Tensor(v)).data[b], x3[b] @ v)


def test_matmul_rejects_bad_ranks():
    with pytest.raises(ValueError):
        t64(np.ones(2)) @ t64(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        t64(np.ones((2, 2, 2))) @ t64(np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        t64(np.ones((2, 3, 4))) @ t64(np.ones((3, 4, 5)))
    with pytest.raises(ValueError):
        t64(np.ones((2, 2))) @ t64(2.0)
    with pytest.raises(TypeError):
        t64(np.ones((2, 2))) @ np.ones(2)


# ---------------------------------------------------------------------
# indexing and shaping


def test_getitem_slice_grad():
    x = t64(np.arange(6.0).reshape(3, 2))
    y = x[1:3]
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [[0, 0], [1, 1], [1, 1]])


def test_getitem_fancy_duplicate_indices_accumulate():
    x = t64([1.0, 2.0, 3.0])
    y = x[np.array([0, 0, 2])]
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


def test_gather_rows_duplicates():
    x = t64(np.arange(8.0).reshape(4, 2))
    out = gather_rows(x, [1, 1, 3])
    assert out.shape == (3, 2)
    out.sum().backward()
    np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_concat_axis0_and_axis1():
    a = t64(np.ones((2, 3)))
    b = t64(np.full((1, 3), 2.0))
    out = concat([a, b], axis=0)
    assert out.shape == (3, 3)
    (out * out).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))

    c = t64(np.ones((2, 2)))
    d = t64(np.ones((2, 1)))
    out = concat([c, d], axis=1)
    assert out.shape == (2, 3)


def test_reshape_transpose_roundtrip():
    x = t64(np.arange(6.0).reshape(2, 3))
    y = x.reshape(3, 2).T
    assert y.shape == (2, 3)
    (y * y).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data)


def test_transpose_axes_values_and_fd():
    rng = np.random.default_rng(14)
    x = t64(rng.normal(size=(2, 3, 4)))
    np.testing.assert_array_equal(x.transpose(1, 2, 0).data, x.data.transpose(1, 2, 0))
    np.testing.assert_array_equal(x.transpose((2, 0, 1)).data, x.data.transpose(2, 0, 1))
    np.testing.assert_array_equal(x.T.data, x.data.T)
    w = Tensor(rng.normal(size=(3, 4, 2)))
    check(lambda: (x.transpose(1, 2, 0) * w).sum(), [("x", x)])


def test_concat_any_axis_and_broadcast_to():
    rng = np.random.default_rng(15)
    a = t64(rng.normal(size=(2, 1, 3)))
    b = t64(rng.normal(size=(2, 4, 3)))
    out = concat([a, b], axis=1)
    np.testing.assert_array_equal(out.data, np.concatenate([a.data, b.data], axis=1))
    w = Tensor(rng.normal(size=(2, 5, 3)))
    check(lambda: (concat([a, b], axis=1) * w).sum(), [("a", a), ("b", b)])
    row = t64(rng.normal(size=(1, 1, 3)))
    wide = broadcast_to(row, (4, 1, 3))
    np.testing.assert_array_equal(wide.data, np.tile(row.data, (4, 1, 1)))
    w = Tensor(rng.normal(size=(4, 1, 3)))
    check(lambda: (broadcast_to(row, (4, 1, 3)) * w).sum(), [("row", row)])


def test_topological_order_counts_each_node_once():
    x = t64([1.0, 2.0])
    y = x * x
    z = (y + y).sum()
    order = topological_order(z)
    assert len(order) == 4            # x, y, y + y, sum
    assert order[0] is x and order[-1] is z


# ---------------------------------------------------------------------
# reductions and elementwise


def test_sum_mean_axis_keepdims():
    x = t64(np.arange(6.0).reshape(2, 3))
    assert x.sum().data == pytest.approx(15.0)
    np.testing.assert_allclose(x.mean(axis=0).data, [1.5, 2.5, 3.5])
    assert x.mean(axis=1, keepdims=True).shape == (2, 1)
    x.zero_grad()
    x.mean(axis=1).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 3.0))


def test_sigmoid_is_stable_at_extremes():
    x = t64([-1000.0, 0.0, 1000.0])
    with np.errstate(over="raise"):
        y = x.sigmoid()
    np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_keeps_the_input_dtype_down_to_0d(dtype):
    """A 0-d input (one video's cls score) must not promote to float64, as
    a Python-float operand would under numpy < 2."""
    for x in (np.asarray(-2.0, dtype=dtype), np.asarray(2.0, dtype=dtype),
              np.linspace(-3.0, 3.0, 6, dtype=dtype).reshape(2, 3)):
        for value in (stable_sigmoid(x), Tensor(x).sigmoid().data):
            assert value.dtype == dtype and value.shape == x.shape
            np.testing.assert_allclose(value, 1.0 / (1.0 + np.exp(-x.astype(np.float64))),
                                       rtol=1e-6)


def test_node_gives_each_parent_its_gradient_only_if_it_needs_one():
    a, b, c = t64([1.0, 2.0]), t64([3.0, 4.0], requires_grad=False), t64([5.0, 6.0])
    out = node(a.data * b.data + c.data, (a, b, c), lambda g: (g * b.data, g * a.data, None))
    assert out._parents == (a, c)
    out.sum().backward()
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])
    assert b.grad is None and c.grad is None
    with no_grad():
        assert not node(a.data, (a,), lambda g: (g,)).requires_grad


def test_clip_zero_grad_outside_range():
    x = t64([-2.0, 0.5, 3.0])
    y = x.clip(0.0, 1.0)
    np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0])
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


def test_elementwise_fd_sweep():
    """Central differences agree with the tape for every unary op."""
    specs = [
        ("exp", lambda t: t.exp().sum(), lambda r: r.normal(size=5)),
        ("log", lambda t: t.log().sum(), lambda r: r.uniform(0.5, 2.0, size=5)),
        ("sqrt", lambda t: t.sqrt().sum(), lambda r: r.uniform(0.5, 2.0, size=5)),
        ("tanh", lambda t: t.tanh().sum(), lambda r: r.normal(size=5)),
        ("sigmoid", lambda t: t.sigmoid().sum(), lambda r: r.normal(size=5)),
        # keep samples away from the relu/clip kinks where FD is undefined
        ("relu", lambda t: t.relu().sum(),
         lambda r: np.where(np.abs(z := r.normal(size=5)) < 0.05, 0.5, z)),
        ("clip", lambda t: t.clip(-0.5, 0.5).sum(), lambda r: r.normal(size=5) * 2.0),
        ("neg", lambda t: (-t).sum(), lambda r: r.normal(size=5)),
    ]
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        for name, fn, sample in specs:
            x = t64(sample(rng))
            check(lambda fn=fn, x=x: fn(x), [(name, x)])


def test_softmax_rows_sum_to_one_and_fd():
    rng = np.random.default_rng(5)
    x = t64(rng.normal(size=(4, 6)))
    s = softmax(x, axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(4), atol=1e-12)
    w = t64(rng.normal(size=(4, 6)), requires_grad=False)
    check(lambda: (softmax(x, axis=-1) * w).sum(), [("x", x)])


def test_softmax_shift_invariance():
    x = np.array([1.0, 2.0, 3.0])
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 1000.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------
# top-k mean


def test_topk_mean_value():
    s = t64([0.9, 0.1, 0.7, 0.3])
    out = topk_mean(s, 2)
    assert out.data == pytest.approx(0.8)


def test_topk_mean_tie_gradient_prefers_low_index():
    # two entries tie for second place; the stable sort picks index 1
    s = t64([0.9, 0.5, 0.5])
    topk_mean(s, 2).backward()
    np.testing.assert_allclose(s.grad, [0.5, 0.5, 0.0])


def test_topk_mean_k_equals_n_is_mean():
    s = t64([0.2, 0.4, 0.6])
    out = topk_mean(s, 3)
    assert out.data == pytest.approx(0.4)
    out.backward()
    np.testing.assert_allclose(s.grad, np.full(3, 1.0 / 3.0))


def test_topk_mean_validation():
    s = t64([1.0, 2.0])
    with pytest.raises(ValueError):
        topk_mean(s, 0)
    with pytest.raises(ValueError):
        topk_mean(s, 3)
    with pytest.raises(ValueError):
        topk_mean(t64(np.ones((2, 2))), 1)


def test_topk_mean_along_axis_matches_rows():
    rng = np.random.default_rng(201)
    x = t64(rng.normal(size=(4, 6)))
    rows = topk_mean(x, 3, axis=1)
    for i in range(4):
        assert rows.data[i] == topk_mean(t64(x.data[i]), 3).data
    cols = topk_mean(x, 2, axis=0)
    np.testing.assert_allclose(cols.data, np.sort(x.data, axis=0)[-2:].mean(axis=0))
    w = Tensor(rng.normal(size=4))
    check(lambda: (topk_mean(x, 3, axis=1) * w).sum(), [("x", x)])


def test_topk_mean_axis_tie_gradient_prefers_low_index():
    s = t64([[0.9, 0.5, 0.5], [0.5, 0.5, 0.9]])
    topk_mean(s, 2, axis=1).sum().backward()
    np.testing.assert_allclose(s.grad, [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])


def test_topk_mean_fd():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        # distinct values keep the selected set stable under the FD step
        vals = rng.permutation(np.linspace(-1.0, 1.0, 8))
        x = t64(vals)
        check(lambda x=x: topk_mean(x, 3) * topk_mean(x, 3), [("x", x)])


# ---------------------------------------------------------------------
# depthwise-separable conv


def test_dws_conv_identity_kernel():
    x = t64(np.array([[1.0], [2.0], [3.0]]))
    dk = t64(np.array([[0.0, 1.0, 0.0]]))
    pk = t64(np.array([[1.0]]))
    out = dws_conv1d(x, dk, pk)
    np.testing.assert_allclose(out.data, [[1.0], [2.0], [3.0]])


def test_dws_conv_box_kernel_replicate_padding():
    # edges replicate: [1,1,2,3,3] convolved with ones -> [4, 6, 8]
    x = t64(np.array([[1.0], [2.0], [3.0]]))
    dk = t64(np.ones((1, 3)))
    pk = t64(np.array([[1.0]]))
    out = dws_conv1d(x, dk, pk)
    np.testing.assert_allclose(out.data, [[4.0], [6.0], [8.0]])


def test_dws_conv_zero_kernel():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(5, 3)))
    out = dws_conv1d(x, t64(np.zeros((3, 3))), t64(np.eye(3)))
    np.testing.assert_allclose(out.data, np.zeros((5, 3)))


def test_dws_conv_locality():
    """Width-3 output at row t ignores rows beyond t±1."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 4))
    dk = Tensor(rng.normal(size=(4, 3)))
    pk = Tensor(rng.normal(size=(4, 4)))
    base = dws_conv1d(Tensor(x), dk, pk).data
    x2 = x.copy()
    x2[7] += 10.0
    moved = dws_conv1d(Tensor(x2), dk, pk).data
    np.testing.assert_allclose(moved[:6], base[:6], atol=1e-12)
    assert not np.allclose(moved[6:], base[6:])


def test_dws_conv_rejects_even_width_and_shape_mismatch():
    x = t64(np.ones((4, 2)))
    with pytest.raises(ValueError):
        dws_conv1d(x, t64(np.ones((2, 2))), t64(np.eye(2)))
    with pytest.raises(ValueError):
        dws_conv1d(x, t64(np.ones((3, 3))), t64(np.eye(2)))
    with pytest.raises(ValueError):
        dws_conv1d(x, t64(np.ones((2, 3))), t64(np.eye(3)))


def test_dws_conv_replicate_padding_folds_gradient():
    # width 5 pads [1,2,3] to [1,1,1,2,3,3,3]; the padded rows are covered by
    # 1,2,3,3,3,2,1 windows, and the copies fold back onto the edge rows
    x = t64(np.array([[1.0], [2.0], [3.0]]))
    out = dws_conv1d(x, t64(np.ones((1, 5))), t64(np.array([[1.0]])))
    np.testing.assert_array_equal(out.data[:, 0], [8.0, 10.0, 12.0])
    out.sum().backward()
    np.testing.assert_array_equal(x.grad[:, 0], [6.0, 3.0, 6.0])
    rng = np.random.default_rng(16)
    xb = t64(rng.normal(size=(2, 4, 3)))
    dk = t64(rng.normal(size=(3, 3)))
    w = Tensor(rng.normal(size=(2, 4, 3)))
    check(lambda: (dws_conv1d(xb, dk, t64(np.eye(3), False)) * w).sum(),
          [("x", xb), ("dk", dk)])


def test_dws_conv_batch_equals_each_video():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 6, 4))
    dk = Tensor(rng.normal(size=(4, 3)))
    pk = Tensor(rng.normal(size=(4, 2)))
    batched = dws_conv1d(Tensor(x), dk, pk).data
    for b in range(3):
        np.testing.assert_array_equal(batched[b], dws_conv1d(Tensor(x[b]), dk, pk).data)


def test_dws_conv_fd():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        x = t64(rng.normal(size=(6, 3)))
        dk = t64(rng.normal(size=(3, 3)))
        pk = t64(rng.normal(size=(3, 2)))
        def loss(x=x, dk=dk, pk=pk):
            out = dws_conv1d(x, dk, pk)
            return (out * out).sum()
        check(loss, [("x", x), ("dk", dk), ("pk", pk)])


# ---------------------------------------------------------------------
# attention


def _mhsa_params(rng, d):
    def lin():
        return (t64(rng.normal(size=(d, d)) * 0.3), t64(rng.normal(size=d) * 0.1))
    wq, bq = lin()
    wk, bk = lin()
    wv, bv = lin()
    wo, bo = lin()
    return wq, bq, wk, bk, wv, bv, wo, bo


def test_mhsa_attention_rows_sum_to_one():
    """The per-head attention matrices, built as the attention op builds
    them, are row-stochastic."""
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=(5, 8)))
    wq, bq, wk, bk, *_ = _mhsa_params(rng, 8)
    q = (x @ wq + bq).reshape(5, 2, 4).transpose(1, 0, 2)
    k = (x @ wk + bk).reshape(5, 2, 4).transpose(1, 2, 0)
    weights = softmax((q @ k) * (1.0 / math.sqrt(4)), axis=-1)
    assert weights.shape == (2, 5, 5)
    np.testing.assert_allclose(weights.data.sum(axis=-1), np.ones((2, 5)), atol=1e-10)


def test_mhsa_heads_match_per_head_loop():
    """Heads as a reshape equal the textbook loop over column blocks."""
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 8))
    params = _mhsa_params(rng, 8)
    wq, bq, wk, bk, wv, bv, wo, bo = (p.data for p in params)
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    heads = []
    for h in range(2):
        cols = slice(4 * h, 4 * h + 4)
        z = q[:, cols] @ k[:, cols].T / 2.0
        e = np.exp(z - z.max(axis=1, keepdims=True))
        heads.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
    want = np.hstack(heads) @ wo + bo
    got = multi_head_self_attention(Tensor(x), *params, heads=2).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_mhsa_batch_equals_each_video():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 5, 8))
    params = _mhsa_params(rng, 8)
    batched = multi_head_self_attention(Tensor(x), *params, heads=2).data
    for b in range(3):
        single = multi_head_self_attention(Tensor(x[b]), *params, heads=2).data
        np.testing.assert_allclose(batched[b], single, rtol=0, atol=1e-12)


def test_mhsa_single_token_passthrough():
    """With one token, attention is a no-op and the block reduces to wo(v)+bo."""
    rng = np.random.default_rng(8)
    x = t64(rng.normal(size=(1, 4)))
    wq, bq, wk, bk, wv, bv, wo, bo = _mhsa_params(rng, 4)
    out = multi_head_self_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads=2)
    expected = (x.data @ wv.data + bv.data) @ wo.data + bo.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_mhsa_identical_rows_stay_identical():
    rng = np.random.default_rng(9)
    row = rng.normal(size=4)
    x = t64(np.tile(row, (6, 1)))
    params = _mhsa_params(rng, 4)
    out = multi_head_self_attention(x, *params, heads=2)
    np.testing.assert_allclose(out.data, np.tile(out.data[0], (6, 1)), atol=1e-12)


def test_mhsa_rejects_indivisible_heads():
    x = t64(np.ones((2, 6)))
    rng = np.random.default_rng(1)
    params = _mhsa_params(rng, 6)
    with pytest.raises(ConfigError):
        multi_head_self_attention(x, *params, heads=4)


def test_mhsa_batched_fd():
    rng = np.random.default_rng(405)
    x = t64(rng.normal(size=(2, 3, 4)))
    wq, bq, wk, bk, wv, bv, wo, bo = _mhsa_params(rng, 4)
    params = [("x", x), ("wq", wq), ("bq", bq), ("wk", wk), ("bk", bk),
              ("wv", wv), ("bv", bv), ("wo", wo), ("bo", bo)]
    check(lambda: (multi_head_self_attention(
        x, wq, bq, wk, bk, wv, bv, wo, bo, heads=2).tanh()).sum(), params)


def test_mhsa_fd():
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        x = t64(rng.normal(size=(4, 4)))
        wq, bq, wk, bk, wv, bv, wo, bo = _mhsa_params(rng, 4)
        params = [("x", x), ("wq", wq), ("bq", bq), ("wk", wk), ("bk", bk),
                  ("wv", wv), ("bv", bv), ("wo", wo), ("bo", bo)]
        check(lambda: (multi_head_self_attention(
            x, wq, bq, wk, bk, wv, bv, wo, bo, heads=2).tanh()).sum(), params)


# ---------------------------------------------------------------------
# layer norm, gelu, l2 normalize, dropout


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(12)
    x = t64(rng.normal(loc=3.0, scale=2.0, size=(4, 16)))
    g = t64(np.ones(16))
    b = t64(np.zeros(16))
    out = layer_norm(x, g, b).data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(4), atol=1e-10)
    np.testing.assert_allclose(out.var(axis=1), np.ones(4), atol=1e-3)


def test_layer_norm_fd():
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        x = t64(rng.normal(size=(3, 6)))
        g = t64(rng.normal(size=6))
        b = t64(rng.normal(size=6))
        check(lambda: (layer_norm(x, g, b).tanh()).sum(),
              [("x", x), ("g", g), ("b", b)])


def test_gelu_reference_points():
    x = Tensor(np.array([0.0, 10.0, -10.0, 1.0]))
    out = gelu(x).data
    assert out[0] == pytest.approx(0.0)
    assert out[1] == pytest.approx(10.0, abs=1e-6)
    assert out[2] == pytest.approx(0.0, abs=1e-6)
    assert out[3] == pytest.approx(0.8411919906, abs=1e-6)


def test_gelu_fd():
    rng = np.random.default_rng(600)
    x = t64(rng.normal(size=8))
    check(lambda: gelu(x).sum(), [("x", x)])


def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(13)
    x = t64(rng.normal(size=(5, 7)) * 4.0)
    out = l2_normalize(x).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(5), atol=1e-9)


def test_l2_normalize_fd():
    rng = np.random.default_rng(601)
    x = t64(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(3, 4)))
    check(lambda: (l2_normalize(x) * w).sum(), [("x", x)])


# the fused ops against their composed forms (tests/oracles.py)


def info_nce(anchors, positives, negatives, temperature):
    """The closed-form InfoNCE that ``loss_contrastive`` runs per
    direction, as one node."""
    value, grads = _info_nce(anchors.data, positives.data, negatives.data, 1.0 / temperature)
    return node(value, (anchors, positives, negatives), grads)


def _fused_cases(rng, dtype):
    """name -> (arrays, fused op, composed op). The affine and token-conv
    cases take every width at d_model: 32 (the reference), 36 (no multiple
    of the BLAS column tile), B = 1 and a single 2-D video."""
    x = rng.normal(size=(32, 33, 32)).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, size=32).astype(dtype)
    beta = rng.normal(size=32).astype(dtype)
    depth = rng.normal(size=(32, 3)).astype(dtype)
    point = rng.normal(size=(32, 32)).astype(dtype) / 6.0
    rows = [r / np.linalg.norm(r, axis=1, keepdims=True)
            for r in (rng.normal(size=(n, 32)).astype(dtype) for n in (40, 20, 48))]
    proj, wide = ([a.astype(dtype) for _ in range(4)
                   for a in (rng.normal(size=(d, d)) / 6.0, rng.normal(size=d) * 0.1)]
                  for d in (32, 36))

    def arrays(*shapes):
        return [(rng.normal(size=s) / 4.0).astype(dtype) for s in shapes]

    def token_conv(d, lead):
        return (arrays((*lead, 33, d), (d, 3), (d, d), (d,)),
                lambda *a: dws_conv1d(*a, skip=1), lambda *a: oracles.dws_conv1d(*a, skip=1))

    def attention(a, heads):
        return (a, lambda *t: multi_head_self_attention(*t, heads=heads),
                lambda *t: oracles.multi_head_self_attention(*t, heads=heads))

    return {
        "attention": attention((x, *proj), 4),
        "attention_2d": attention((x[3], *proj), 4),
        # a width that is no multiple of the BLAS kernel's column tile, where
        # one product with [wq|wk|wv] would round Q, K and V differently
        "attention_d36": attention((rng.normal(size=(5, 17, 36)).astype(dtype), *wide), 4),
        "attention_heads_1": attention(arrays((4, 9, 8), *[(8, 8), (8,)] * 4), 1),
        "attention_heads_d": attention(arrays((4, 9, 8), *[(8, 8), (8,)] * 4), 8),
        "layer_norm": ((x, gamma, beta), layer_norm, oracles.layer_norm),
        "gelu": ((x,), gelu, oracles.gelu),
        "l2_normalize": ((x,), l2_normalize, oracles.l2_normalize),
        "dws_conv1d": ((x, depth, point), dws_conv1d, oracles.dws_conv1d),
        "info_nce": (tuple(rows), lambda a, p, n: info_nce(a, p, n, 0.07),
                     lambda a, p, n: oracles.info_nce(a, p, n, 0.07)),
        "linear": (arrays((32, 33, 32), (32, 64), (64,)), linear, oracles.linear),
        "linear_d36": (arrays((32, 33, 36), (36, 36), (36,)), linear, oracles.linear),
        "linear_b1": (arrays((1, 33, 32), (32, 32), (32,)), linear, oracles.linear),
        "linear_video": (arrays((33, 32), (32, 64), (64,)), linear, oracles.linear),
        "linear_head": (arrays((32, 32, 32), (32,), ()), linear, oracles.linear),
        "token_conv": token_conv(32, (32,)),
        "token_conv_d36": token_conv(36, (32,)),
        "token_conv_b1": token_conv(32, (1,)),
        "token_conv_video": token_conv(32, ()),
    }


FUSED_OPS = list(_fused_cases(np.random.default_rng(0), np.float32))


@pytest.mark.parametrize("name", FUSED_OPS)
def test_fused_forward_is_bitwise_the_composed_form(name):
    args, fused, composed = _fused_cases(np.random.default_rng(90), np.float32)[name]
    want = composed(*(Tensor(a) for a in args)).data
    got = fused(*(Tensor(a) for a in args)).data
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _leaf_grads(op, args):
    leaves = [t64(a) for a in args]
    out = op(*leaves)
    (out * Tensor(np.random.default_rng(92).normal(size=out.data.shape))).sum().backward()
    return [leaf.grad for leaf in leaves]


def _assert_same_grads(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name", FUSED_OPS)
def test_fused_gradient_matches_the_composed_form(name):
    args, fused, composed = _fused_cases(np.random.default_rng(91), np.float64)[name]
    _assert_same_grads(_leaf_grads(fused, args), _leaf_grads(composed, args))


def _gradcheck_shape_cases(rng):
    """name -> (arrays, fused op, composed op) at the shapes the gradient
    suite's objective runs them: float64, B 2, T 4 snippets after the cls
    token, d_model 4, 2 heads, one row in each mined set."""
    def arrays(*shapes):
        return [rng.normal(size=s) / 2.0 for s in shapes]

    return {
        "attention": (arrays((2, 5, 4), *[(4, 4), (4,)] * 4),
                      lambda *t: multi_head_self_attention(*t, heads=2),
                      lambda *t: oracles.multi_head_self_attention(*t, heads=2)),
        "layer_norm": (arrays((2, 5, 4), (4,), (4,)), layer_norm, oracles.layer_norm),
        "gelu": (arrays((2, 5, 8)), gelu, oracles.gelu),
        "linear_up": (arrays((2, 5, 4), (4, 8), (8,)), linear, oracles.linear),
        "linear_down": (arrays((2, 5, 8), (8, 4), (4,)), linear, oracles.linear),
        "token_conv": (arrays((2, 5, 4), (4, 3), (4, 4), (4,)),
                       lambda *a: dws_conv1d(*a, skip=1),
                       lambda *a: oracles.dws_conv1d(*a, skip=1)),
        "info_nce": (arrays((1, 4), (1, 4), (1, 4)), lambda a, p, n: info_nce(a, p, n, 0.07),
                     lambda a, p, n: oracles.info_nce(a, p, n, 0.07)),
    }


@pytest.mark.parametrize("name", list(_gradcheck_shape_cases(np.random.default_rng(0))))
def test_fused_ops_are_the_composed_forms_at_gradcheck_shapes(name):
    args, fused, composed = _gradcheck_shape_cases(np.random.default_rng(98))[name]
    want = composed(*(Tensor(a) for a in args)).data
    got = fused(*(Tensor(a) for a in args)).data
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    _assert_same_grads(_leaf_grads(fused, args), _leaf_grads(composed, args))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_array_mean_is_numpys_mean_bit_for_bit(dtype):
    """Rows short and long (numpy sums 8 lanes at a time from 8 values on),
    every axis form, with and without keepdims, down to a 0-d result."""
    rng = np.random.default_rng(99)
    for shape in ((5,), (2, 5, 4), (3, 9), (4, 130), (2, 3, 200)):
        x = (rng.normal(size=shape) * 10.0).astype(dtype)
        for axis in (None, 0, -1, tuple(range(x.ndim))):
            for keepdims in (False, True):
                got = array_mean(x, axis, keepdims)
                want = x.mean(axis=axis, keepdims=keepdims)
                assert type(got) is type(want) and got.dtype == want.dtype == dtype
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_the_two_sided_expression_bit_for_bit(dtype):
    rng = np.random.default_rng(100)
    for x in (np.asarray(-3.5, dtype=dtype), (rng.normal(size=(2, 5)) * 30.0).astype(dtype),
              np.array([-800.0, -0.0, 0.0, 800.0], dtype=dtype)):
        e = np.exp(-np.abs(x))
        one = e.dtype.type(1)
        want = np.where(x >= 0, one, e) / (one + e)
        got = stable_sigmoid(x)
        assert got.dtype == want.dtype and np.asarray(got).tobytes() == np.asarray(want).tobytes()


# the rewritten backward rules against the rules they replaced


def _rule_cases(rng):
    """name -> (arrays, rewritten op, op with the replaced backward rule)."""
    def arrays(*shapes):
        return [rng.normal(size=s) / 4.0 for s in shapes]

    def conv(width, t_len, skip):
        return (arrays((3, t_len + skip, 4), (4, width), (4, 4), (4,)),
                lambda *a: dws_conv1d(*a, skip=skip),
                lambda *a: oracles.dws_conv1d_rule(*a, skip=skip))

    def attention(shape, heads):
        d = shape[-1]
        return (arrays(shape, *[(d, d), (d,)] * 4),
                lambda *a: multi_head_self_attention(*a, heads=heads),
                lambda *a: oracles.attention_rule(*a, heads=heads))

    return {
        "attention": attention((32, 33, 32), 4),
        "attention_video": attention((33, 32), 4),
        "attention_heads_1": attention((3, 7, 8), 1),
        "attention_heads_d": attention((3, 7, 8), 8),
        "layer_norm": (arrays((32, 33, 32), (32,), (32,)), layer_norm, oracles.layer_norm_rule),
        "layer_norm_video": (arrays((33, 32), (32,), (32,)), layer_norm,
                             oracles.layer_norm_rule),
        "token_conv": (arrays((32, 33, 32), (32, 3), (32, 32), (32,)),
                       lambda *a: dws_conv1d(*a, skip=1),
                       lambda *a: oracles.dws_conv1d_rule(*a, skip=1)),
        "conv_width_1": conv(1, 5, 0),
        "conv_width_1_skip": conv(1, 5, 1),
        "conv_width_5_t2": conv(5, 2, 0),
        "conv_width_5_t2_skip": conv(5, 2, 1),
        "conv_width_5_t6": conv(5, 6, 0),
        "conv_width_5_t6_skip": conv(5, 6, 1),
        "conv_width_3_t1": conv(3, 1, 0),
        "conv_width_7_t2_skip": conv(7, 2, 1),
        "conv_without_bias": (arrays((2, 6, 4), (4, 3), (4, 5)), dws_conv1d,
                              oracles.dws_conv1d_rule),
    }


@pytest.mark.parametrize("name", list(_rule_cases(np.random.default_rng(0))))
def test_rewritten_backward_rule_matches_the_replaced_rule(name):
    args, new, old = _rule_cases(np.random.default_rng(96))[name]
    _assert_same_grads(_leaf_grads(new, args), _leaf_grads(old, args))


@pytest.mark.parametrize("width,t_len", [(1, 4), (5, 2), (5, 1), (3, 1)])
def test_conv_kernel_gradient_at_narrow_and_short_shapes(width, t_len):
    """The kernel gradient's sliding window covers the padded rows when the
    kernel is wider than the sequence, and a width-1 kernel has no
    padding at all; each is checked against finite differences."""
    rng = np.random.default_rng(97 + width + t_len)
    x = t64(rng.normal(size=(2, t_len + 1, 3)))
    dk = t64(rng.normal(size=(3, width)))
    pk = t64(rng.normal(size=(3, 3)))
    bias = t64(rng.normal(size=3))
    w = Tensor(rng.normal(size=(2, t_len + 1, 3)))
    check(lambda: (dws_conv1d(x, dk, pk, bias, skip=1) * w).sum(),
          [("x", x), ("dk", dk), ("pk", pk), ("bias", bias)])


def test_token_conv_passes_the_skipped_rows_through():
    rng = np.random.default_rng(98)
    x = t64(rng.normal(size=(2, 5, 3)))
    out = dws_conv1d(x, t64(rng.normal(size=(3, 3))), t64(rng.normal(size=(3, 3))),
                     t64(rng.normal(size=3)), skip=2)
    assert out.data[:, :2].tobytes() == x.data[:, :2].tobytes()
    w = rng.normal(size=out.data.shape)
    (out * Tensor(w)).sum().backward()
    np.testing.assert_array_equal(x.grad[:, :2], w[:, :2])


def test_token_conv_rejects_bad_skips():
    x = t64(np.ones((2, 4, 3)))
    dk = t64(np.ones((3, 3)))
    with pytest.raises(ValueError):
        dws_conv1d(x, dk, t64(np.ones((3, 2))), skip=1)   # rows would change width
    with pytest.raises(ValueError):
        dws_conv1d(x, dk, t64(np.eye(3)), skip=4)          # nothing left to convolve
    with pytest.raises(ValueError):
        dws_conv1d(x, dk, t64(np.eye(3)), skip=-1)


def test_linear_rejects_mismatched_bias():
    with pytest.raises(ValueError):
        linear(t64(np.ones((2, 3))), t64(np.ones((3, 4))), t64(np.ones(3)))
    with pytest.raises(ValueError):
        linear(t64(np.ones((2, 3))), t64(np.ones((3, 2, 2))), t64(np.ones(4)))


@pytest.mark.parametrize("shape", [(4, 5, 3), (2, 3, 5, 3), (5, 3)])
def test_matmul_stack_gradient_is_each_videos_product(shape):
    """N-D @ 2-D takes its input gradient as one GEMM over all rows; it
    must equal each leading index's own product."""
    rng = np.random.default_rng(99)
    x, w = t64(rng.normal(size=shape)), t64(rng.normal(size=(3, 4)))
    g = rng.normal(size=(*shape[:-1], 4))
    ((x @ w) * Tensor(g)).sum().backward()
    rows = g.reshape(-1, 4)
    want = np.stack([row @ w.data.T for row in rows]).reshape(shape)
    np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.reshape(-1, 3).T @ rows, rtol=1e-12)


def test_info_nce_fd():
    rng = np.random.default_rng(93)
    a, p, n = (t64(rng.normal(size=(k, 4))) for k in (3, 2, 4))
    check(lambda: info_nce(a, p, n, 0.5), [("a", a), ("p", p), ("n", n)])


def test_dropout_zero_rate_is_identity():
    x = t64([1.0, 2.0, 3.0])
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_scales_survivors():
    x = Tensor(np.ones(10000))
    out = dropout(x, 0.5, np.random.default_rng(42)).data
    kept = out[out != 0]
    np.testing.assert_allclose(kept, np.full(kept.shape, 2.0))
    assert abs(out.mean() - 1.0) < 0.05


def test_dropout_rejects_bad_rate():
    with pytest.raises(ConfigError):
        dropout(t64([1.0]), 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------
# grad_check harness itself


def test_grad_check_square_at_three():
    x = t64(3.0)
    report = grad_check(lambda: x * x, [("x", x)])
    assert report.passed
    assert [row.name for row in report.rows] == ["x"]
    assert x.grad == pytest.approx(6.0)   # the tape gradient stays on the leaf
    # |analytic - numeric| = 6 * max_rel_err, so the difference matches 6 too
    assert 6.0 * report.rows[0].max_rel_err < 1e-6


def test_grad_check_rejects_float32_params():
    x = Tensor(np.float32(1.0), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: x * x, [("x", x)])


def test_grad_check_catches_wrong_gradient():
    """Negative control: an op with a deliberately broken backward must fail."""
    x = t64(2.0)

    def bad_square(t):
        # wrong: claims d(x^2)/dx = 3x
        return node(t.data * t.data, (t,), lambda g: (g * 3.0 * t.data,))

    report = grad_check(lambda: bad_square(x), [("x", x)])
    assert not report.passed
    assert not report.rows[0].passed
    assert report.rows[0].note == "x[0]"


def test_grad_check_reports_nonfinite_objective():
    x = t64(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        report = grad_check(lambda: x.log(), [("x", x)])
    assert not report.passed
    assert report.rows[0].max_rel_err == float("inf")
    assert report.rows[0].note == "non-finite objective at x[0]"


def test_grad_check_unused_param_has_zero_grad():
    x = t64(1.5)
    unused = t64(4.0)
    report = grad_check(lambda: x * x, [("x", x), ("unused", unused)])
    assert report.passed
    # f does not read it, so the differences are exactly 0, and so is the
    # tape gradient it is checked against
    assert report.rows[1].name == "unused"
    assert report.rows[1].max_rel_err == 0.0
