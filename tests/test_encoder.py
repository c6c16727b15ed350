"""Encoder forward-pass, head, and checkpoint tests.

The micro-model oracle below re-derives one full block in straight-line
numpy, independent of the Tensor graph, so agreement is a real cross-check
rather than the same code run twice.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from wvad.encoder import (
    CHECKPOINT_VERSION,
    EncodedVideo,
    EncoderConfig,
    LinearModel,
    TransformerModel,
    _embed,
    encode,
    init_params,
    linear_param_table,
    load_checkpoint,
    param_table,
    save_checkpoint,
    snippet_scores,
    video_score,
)
from wvad.errors import ConfigError, FormatError
from wvad.tensor import Tensor
from wvad.verification import grad_check


def make_model(seed=0, dtype=np.float32, **kw):
    config = EncoderConfig(**{"num_snippets": 8, "d_in": 4, "d_model": 8,
                              "heads": 2, "depth": 2, **kw})
    return TransformerModel.init(config, seed, dtype=dtype)


# ---------------------------------------------------------------------
# config and init


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(d_model=10, heads=4)
    with pytest.raises(ConfigError):
        EncoderConfig(depth=0)
    with pytest.raises(ConfigError):
        EncoderConfig(conv_width=4)
    with pytest.raises(ConfigError):
        EncoderConfig(num_snippets=0)


def test_init_same_seed_bitwise_identical():
    a = make_model(seed=3)
    b = make_model(seed=3)
    for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert pa.data.tobytes() == pb.data.tobytes()


def test_init_different_seeds_differ():
    a = make_model(seed=3)
    b = make_model(seed=4)
    diffs = [not np.array_equal(pa.data, pb.data)
             for (_, pa), (_, pb) in zip(a.named_params(), b.named_params())]
    assert any(diffs)


def test_init_biases_zero_and_gains_one():
    m = make_model(seed=5)
    p = m.params
    assert np.all(p.b_in.data == 0)
    assert np.all(p.score_b.data == 0)
    for blk in p.blocks:
        assert np.all(blk.conv_bias.data == 0)
        assert np.all(blk.ln_gamma.data == 1)
        assert np.all(blk.ln_beta.data == 0)


def _param_bits(named):
    return [(name, p.data.dtype, p.data.shape, p.data.tobytes(), p.requires_grad)
            for name, p in named]


# conv_width 1 is a fan-in of 1, which must draw, not read as a gain of ones
@pytest.mark.parametrize("kw", [{}, {"depth": 3, "conv_width": 5}, {"conv_width": 1}],
                         ids=["default", "depth3-width5", "width1"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_is_the_explicit_init_bit_for_bit(kw, dtype):
    config = EncoderConfig(**kw)
    for seed in (0, 1, 7):
        assert _param_bits(init_params(config, seed, dtype).named()) == \
            _param_bits(oracles.init_params(config, seed, dtype).named())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d_in", [1, 5, 32])
def test_linear_init_is_the_explicit_init_bit_for_bit(d_in, dtype):
    for seed in (0, 1, 7):
        w, b = oracles.init_linear(d_in, seed, dtype)
        assert _param_bits(LinearModel.init(d_in, seed, dtype).named_params()) == \
            _param_bits([("w", w), ("b", b)])


def test_initial_scores_inside_unit_interval():
    for seed in range(5):
        m = make_model(seed=seed)
        rng = np.random.default_rng(seed)
        out = m.forward(rng.normal(size=(8, 4)).astype(np.float32))
        assert np.all((out.scores.data > 0) & (out.scores.data < 1))
        assert 0 < out.video_scores.data < 1


# ---------------------------------------------------------------------
# encode invariants


def test_zero_weights_nonzero_cls_all_snippet_tokens_equal():
    m = make_model(seed=1)
    for name, p in m.named_params():
        if name != "cls_token":
            p.data = np.zeros_like(p.data)
    m.params.cls_token.data = np.full_like(m.params.cls_token.data, 0.7)
    enc = encode(np.zeros((8, 4), dtype=np.float32), m.params, m.config)
    sn = enc.snippet_features.data
    assert np.all(sn == sn[0])


def test_identical_input_rows_give_identical_snippet_tokens():
    m = make_model(seed=2)
    row = np.random.default_rng(0).normal(size=4).astype(np.float32)
    enc = encode(np.tile(row, (8, 1)), m.params, m.config)
    sn = enc.snippet_features.data
    np.testing.assert_allclose(sn, np.tile(sn[0], (8, 1)), atol=1e-6)


def test_swapping_distant_snippets_is_not_row_swap_equivariant():
    """The temporal conv makes outputs depend on neighbours, so swapping two
    far-apart input rows must not merely swap the two output rows."""
    m = make_model(seed=6)
    rng = np.random.default_rng(6)
    f = rng.normal(size=(8, 4)).astype(np.float32)
    base = encode(f, m.params, m.config).snippet_features.data
    f2 = f.copy()
    f2[[1, 6]] = f2[[6, 1]]
    swapped = encode(f2, m.params, m.config).snippet_features.data
    predicted = base.copy()
    predicted[[1, 6]] = predicted[[6, 1]]
    assert not np.allclose(swapped, predicted, atol=1e-5)


def test_encode_rejects_wrong_shape():
    m = make_model()
    with pytest.raises(ConfigError):
        encode(np.zeros((7, 4), dtype=np.float32), m.params, m.config)
    with pytest.raises(ConfigError):
        encode(np.zeros((8, 5), dtype=np.float32), m.params, m.config)


def test_forward_bitwise_deterministic_without_dropout():
    m = make_model(seed=9)
    f = np.random.default_rng(9).normal(size=(8, 4)).astype(np.float32)
    a = m.forward(f)
    b = m.forward(f)
    assert a.scores.data.tobytes() == b.scores.data.tobytes()
    assert a.video_scores.data.tobytes() == b.video_scores.data.tobytes()


# ---------------------------------------------------------------------
# micro-model oracle


def _oracle_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def _oracle_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _oracle_softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _oracle_forward(f, m):
    """Single block, single head, straight-line numpy reimplementation.

    ``f`` is one video (T, D_in) or a batch (B, T, D_in); every step works on
    the trailing two axes, so a batch runs each video independently.
    """
    p, cfg = m.params, m.config
    x = f @ p.w_in.data + p.b_in.data
    lead = x.shape[:-2]
    cls = np.broadcast_to(p.cls_token.data, lead + (1, cfg.d_model))
    tokens = np.concatenate([cls, x], axis=-2)
    blk = p.blocks[0]
    t_len = cfg.num_snippets
    half = cfg.conv_width // 2
    sn = tokens[..., 1:, :]
    padded = np.concatenate([np.repeat(sn[..., :1, :], half, axis=-2), sn,
                             np.repeat(sn[..., -1:, :], half, axis=-2)], axis=-2)
    conv = np.zeros_like(sn)
    for j in range(cfg.conv_width):
        conv += padded[..., j:j + t_len, :] * blk.conv_depth.data[:, j]
    conv = conv @ blk.conv_point.data + blk.conv_bias.data
    a = np.concatenate([tokens[..., :1, :], conv], axis=-2)
    q = a @ blk.wq.data + blk.bq.data
    k = a @ blk.wk.data + blk.bk.data
    v = a @ blk.wv.data + blk.bv.data
    z = q @ np.swapaxes(k, -1, -2) / np.sqrt(cfg.d_model)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    attn = (e / e.sum(axis=-1, keepdims=True)) @ v
    attn = attn @ blk.wo.data + blk.bo.data
    s = a + attn
    mu = s.mean(axis=-1, keepdims=True)
    var = ((s - mu) ** 2).mean(axis=-1, keepdims=True)
    b = (s - mu) / np.sqrt(var + 1e-5) * blk.ln_gamma.data + blk.ln_beta.data
    out = b + _oracle_gelu(b @ blk.ff_w1.data + blk.ff_b1.data) @ blk.ff_w2.data + blk.ff_b2.data
    scores = _oracle_sigmoid(out[..., 1:, :] @ p.score_w.data + float(p.score_b.data))
    video = _oracle_sigmoid(out[..., 0, :] @ p.video_w.data + float(p.video_b.data))
    return scores, video


def test_micro_model_matches_straightline_oracle():
    config = EncoderConfig(num_snippets=5, d_in=3, d_model=2, heads=1, depth=1)
    m = TransformerModel.init(config, seed=21, dtype=np.float64)
    f = np.random.default_rng(21).normal(size=(5, 3))
    got = m.forward(f)
    want_scores, want_video = _oracle_forward(f, m)
    np.testing.assert_allclose(got.scores.data, want_scores, atol=1e-10)
    np.testing.assert_allclose(float(got.video_scores.data), want_video, atol=1e-10)


def test_micro_model_batch_matches_straightline_oracle():
    config = EncoderConfig(num_snippets=5, d_in=3, d_model=4, heads=1, depth=1,
                           conv_width=5)
    m = TransformerModel.init(config, seed=22, dtype=np.float64)
    f = np.random.default_rng(22).normal(size=(4, 5, 3))
    got = m.forward(f)
    want_scores, want_video = _oracle_forward(f, m)
    assert got.scores.shape == (4, 5) and got.video_scores.shape == (4,)
    assert got.features.shape == (4, 5, 4)
    np.testing.assert_allclose(got.scores.data, want_scores, atol=1e-10)
    np.testing.assert_allclose(got.video_scores.data, want_video, atol=1e-10)


@pytest.mark.parametrize("kw", [{}, {"depth": 3, "conv_width": 5}])
def test_batched_forward_equals_each_video(kw):
    """A video's scores, video score and features do not depend on the batch
    it is run in: the stacked forward equals each video's B=1 forward bit
    for bit."""
    m = make_model(seed=23, **kw)
    f = np.random.default_rng(23).normal(size=(5, 8, 4)).astype(np.float32)
    batched = m.forward(f)
    for b in range(5):
        single = m.forward(f[b])
        assert single.scores.data.tobytes() == batched.scores.data[b].tobytes()
        assert single.video_scores.data.tobytes() == batched.video_scores.data[b].tobytes()
        assert single.features.data.tobytes() == batched.features.data[b].tobytes()


def test_encode_single_video_returns_its_tokens():
    m = make_model(seed=24)
    f = np.random.default_rng(24).normal(size=(8, 4)).astype(np.float32)
    single = encode(f, m.params, m.config).tokens
    batched = encode(f[None], m.params, m.config).tokens
    assert single.shape == (9, 8) and batched.shape == (1, 9, 8)
    assert single.data.tobytes() == batched.data[0].tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_encode_reaches_each_layer_through_the_module(monkeypatch, depth):
    """The benchmark times the conv, attention, layer norm and GELU by
    wrapping these ``wvad.encoder`` attributes, so a taped ``encode`` must
    call each of them through the module, once per block."""
    import wvad.encoder as encoder_mod
    names = ("dws_conv1d", "multi_head_self_attention", "layer_norm", "gelu")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(encoder_mod, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(encoder_mod, name, counted)
    m = make_model(seed=25, depth=depth)
    params = [p for _, p in m.named_params()]
    f = np.random.default_rng(25).normal(size=(3, 8, 4)).astype(np.float32)
    tokens = encode(f, m.params, m.config).tokens
    assert tokens.requires_grad and all(p.requires_grad for p in params)
    assert calls == dict.fromkeys(names, depth)


def test_forward_result_is_the_scored_batch_the_losses_read():
    """``forward`` returns the losses' ``ScoredBatch``, which holds no
    labels: the trainer passes them to ``loss_total`` beside it."""
    from wvad.losses import ScoredBatch as LossBatch
    m = make_model(seed=26)
    f = np.random.default_rng(26).normal(size=(2, 8, 4)).astype(np.float32)
    for out in (m.forward(f), LinearModel.init(4, 26).forward(f)):
        assert isinstance(out, LossBatch) and not hasattr(out, "labels")
        assert out.scores.shape == (2, 8) and out.video_scores.shape == (2,)


def test_snippet_features_are_one_slice_of_the_tokens():
    """The snippet head and the contrastive features read one slice node."""
    m = make_model(seed=27)
    f = np.random.default_rng(27).normal(size=(2, 8, 4)).astype(np.float32)
    out = m.forward(f)
    assert out.scores._parents[0] is out.features


# ---------------------------------------------------------------------
# heads


def test_snippet_scores_zero_head_is_exactly_half():
    m = make_model(seed=4)
    m.params.score_w.data = np.zeros_like(m.params.score_w.data)
    m.params.score_b.data = np.zeros_like(m.params.score_b.data)
    f = np.random.default_rng(4).normal(size=(8, 4)).astype(np.float32)
    out = m.forward(f)
    np.testing.assert_array_equal(out.scores.data, np.full(8, 0.5, dtype=np.float32))


def test_snippet_scores_length_matches_config():
    m = make_model()
    f = np.zeros((8, 4), dtype=np.float32)
    assert m.forward(f).scores.shape == (8,)


def test_raising_score_bias_raises_every_score():
    m = make_model(seed=7)
    f = np.random.default_rng(7).normal(size=(8, 4)).astype(np.float32)
    before = m.forward(f).scores.data.copy()
    m.params.score_b.data = m.params.score_b.data + np.float32(0.5)
    after = m.forward(f).scores.data
    assert np.all(after > before)


def test_video_score_zero_head_is_half_and_in_range():
    m = make_model(seed=8)
    m.params.video_w.data = np.zeros_like(m.params.video_w.data)
    f = np.random.default_rng(8).normal(size=(8, 4)).astype(np.float32)
    assert float(m.forward(f).video_scores.data) == 0.5


def test_video_score_gradient_reaches_cls_token():
    config = EncoderConfig(num_snippets=4, d_in=3, d_model=4, heads=2, depth=1)
    m = TransformerModel.init(config, seed=10, dtype=np.float64)
    f = np.random.default_rng(10).normal(size=(4, 3))
    out = m.forward(f)
    out.video_scores.backward()
    assert m.params.cls_token.grad is not None
    assert np.any(m.params.cls_token.grad != 0)


# ---------------------------------------------------------------------
# the heads and the input projection, one node each, against their
# composed forms (tests/oracles.py)


def _node_cases(rng, dtype):
    """name -> (arrays, fused op, composed op). Heads read (B, T+1, D)
    tokens, or one video's (T+1, D); the linear model's heads read the
    (B, T, D_in) features."""
    def arrays(*shapes):
        return [(rng.normal(size=s) / 4.0).astype(dtype) for s in shapes]

    def snippet(tokens, w, b):
        return snippet_scores(EncodedVideo(tokens), SimpleNamespace(score_w=w, score_b=b))

    def video(tokens, w, b):
        return video_score(EncodedVideo(tokens), SimpleNamespace(video_w=w, video_b=b))

    def linear_model(part):
        return lambda f, w, b: getattr(LinearModel(f.data.shape[-1], w, b).forward(f), part)

    cases = {}
    for suffix, lead in (("", (32,)), ("_b2", (2,)), ("_video", ())):
        heads = arrays((*lead, 33, 32), (32,), ())
        cases["snippet_head" + suffix] = (heads, snippet, oracles.snippet_scores)
        cases["video_head" + suffix] = (heads, video, oracles.video_score)
    for suffix, shape in (("", (32, 32, 32, 32)), ("_b2", (2, 32, 32, 32)),
                          ("_d36", (4, 32, 20, 36))):
        batch, t_len, d_in, d = shape
        cases["input_projection" + suffix] = (
            arrays((batch, t_len, d_in), (d_in, d), (d,), (d,)), _embed, oracles.embed)
    # the gradient suite's objective: B 2, T 4 snippets after the cls token, d_model 4
    heads = arrays((2, 5, 4), (4,), ())
    cases["snippet_head_gradcheck"] = (heads, snippet, oracles.snippet_scores)
    cases["video_head_gradcheck"] = (heads, video, oracles.video_score)
    cases["input_projection_gradcheck"] = (arrays((2, 4, 3), (3, 4), (4,), (4,)), _embed,
                                           oracles.embed)
    features = arrays((32, 32, 32), (32,), ())
    cases["linear_model_scores"] = (
        features, linear_model("scores"), lambda f, w, b: oracles.linear(f, w, b).sigmoid())
    cases["linear_model_video"] = (
        features, linear_model("video_scores"),
        lambda f, w, b: oracles.video_score(f.mean(axis=-2, keepdims=True), w, b))
    return cases


NODE_CASES = list(_node_cases(np.random.default_rng(0), np.float32))


@pytest.mark.parametrize("name", NODE_CASES)
def test_fused_head_and_projection_are_bitwise_the_composed_forms(name):
    args, fused, composed = _node_cases(np.random.default_rng(60), np.float32)[name]
    want = composed(*(Tensor(a) for a in args)).data
    got = fused(*(Tensor(a) for a in args)).data
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [n for n in NODE_CASES if n.endswith("_gradcheck")])
def test_fused_head_and_projection_are_the_composed_forms_in_float64(name):
    args, fused, composed = _node_cases(np.random.default_rng(63), np.float64)[name]
    want = composed(*(Tensor(a) for a in args)).data
    got = fused(*(Tensor(a) for a in args)).data
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _leaf_grads(op, args):
    leaves = [Tensor(a, requires_grad=True) for a in args]
    out = op(*leaves)
    (out * Tensor(np.random.default_rng(61).normal(size=out.data.shape))).sum().backward()
    return [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("name", NODE_CASES)
def test_fused_head_and_projection_gradients_match_the_composed_forms(name):
    args, fused, composed = _node_cases(np.random.default_rng(62), np.float64)[name]
    for g, w in zip(_leaf_grads(fused, args), _leaf_grads(composed, args)):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------
# end-to-end gradient check (generic scalar objective; the full training
# objective is exercised in the verification suite)


def test_micro_end_to_end_gradcheck():
    config = EncoderConfig(num_snippets=4, d_in=3, d_model=4, heads=2, depth=2)
    m = TransformerModel.init(config, seed=13, dtype=np.float64)
    f = np.random.default_rng(13).normal(size=(4, 3))

    def objective():
        out = m.forward(f)
        return out.scores.sum() + out.video_scores

    report = grad_check(objective, m.named_params())
    assert report.passed, report.summary_lines()


# ---------------------------------------------------------------------
# linear baseline


def test_linear_model_matches_numpy_affine():
    m = LinearModel.init(d_in=6, seed=3)
    f = np.random.default_rng(3).normal(size=(10, 6)).astype(np.float32)
    out = m.forward(f)
    want = _oracle_sigmoid(f @ m.w.data + float(m.b.data))
    np.testing.assert_allclose(out.scores.data, want, atol=1e-6)
    assert out.features.data is not None
    assert 0 < float(out.video_scores.data) < 1


def test_linear_model_batch_equals_each_video():
    m = LinearModel.init(d_in=6, seed=4)
    f = np.random.default_rng(4).normal(size=(3, 10, 6)).astype(np.float32)
    batched = m.forward(f)
    assert batched.scores.shape == (3, 10) and batched.video_scores.shape == (3,)
    for b in range(3):
        single = m.forward(f[b])
        assert batched.scores.data[b].tobytes() == single.scores.data.tobytes()
        assert batched.video_scores.data[b].tobytes() == single.video_scores.data.tobytes()


def test_linear_model_rejects_wrong_width():
    m = LinearModel.init(d_in=6, seed=3)
    with pytest.raises(ConfigError):
        m.forward(np.zeros((4, 5), dtype=np.float32))


# ---------------------------------------------------------------------
# checkpoints


def _params_bytes(model):
    return [p.data.tobytes() for _, p in model.named_params()]


def test_checkpoint_round_trip_bitwise(tmp_path):
    m = make_model(seed=17, depth=3, conv_width=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    loaded, extra = load_checkpoint(path)
    assert extra == b""
    assert isinstance(loaded, TransformerModel)
    assert loaded.config == m.config
    assert _params_bytes(loaded) == _params_bytes(m)


def test_checkpoint_round_trip_linear(tmp_path):
    m = LinearModel.init(d_in=5, seed=2)
    path = tmp_path / "linear.ckpt"
    save_checkpoint(path, m)
    loaded, _ = load_checkpoint(path)
    assert isinstance(loaded, LinearModel)
    assert loaded.d_in == 5
    assert _params_bytes(loaded) == _params_bytes(m)


def test_checkpoint_preserves_trailing_bytes(tmp_path):
    m = make_model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, extra=b"OPTSTATE\x01\x02")
    _, extra = load_checkpoint(path)
    assert extra == b"OPTSTATE\x01\x02"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    m = make_model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    m = make_model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 40])
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("cfg", [
    {"model": "transformer", "encoder": {"d_model": 8.0, "heads": 2}},
    {"model": "transformer", "encoder": {"depth": "2"}},
    {"model": "linear", "d_in": 4.0},
    ["transformer"],
    # complete, and small enough for the payload: read as an int, `true`
    # would load it as a depth-1 model
    {"model": "transformer", "encoder": {"num_snippets": 4, "d_in": 3, "d_model": 4,
                                         "heads": 2, "depth": True, "conv_width": 3}},
])
def test_checkpoint_rejects_header_config_of_wrong_types(tmp_path, cfg):
    import json
    import struct
    blob = json.dumps(cfg).encode()
    path = tmp_path / "typed.ckpt"
    path.write_bytes(b"WVCK" + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob
                     + b"\x00" * 4096)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_header_error_names_the_key(tmp_path):
    m = make_model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    raw = path.read_bytes()
    good = b'"depth": 2, '
    assert good in raw
    path.write_bytes(raw.replace(good, b'"depth":"2",'))   # same length
    with pytest.raises(FormatError, match=r"model\.ckpt: header: encoder\.depth: "
                                          r"expected int, got '2'"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_model_kind(tmp_path):
    import json
    import struct
    blob = json.dumps({"model": "mystery"}).encode()
    path = tmp_path / "weird.ckpt"
    path.write_bytes(b"WVCK" + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob)
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("make", [
    lambda: make_model(),
    lambda: make_model(depth=3, conv_width=5),
    lambda: LinearModel.init(d_in=5, seed=0),
], ids=["transformer", "transformer-depth3-width5", "linear"])
def test_param_shapes_are_the_declared_parameters(make, tmp_path):
    """The table names every parameter with its shape, in checkpoint order,
    and a checkpoint's parameter block holds exactly those float32 values."""
    import json
    import math
    import struct
    m = make()
    table = list(linear_param_table(m.d_in) if isinstance(m, LinearModel)
                 else param_table(m.config))
    assert [(name, shape) for name, shape, _ in table] == [(name, p.data.shape)
                                                           for name, p in m.named_params()]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    raw = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    assert json.loads(raw[12:12 + blob_len]) == m.config_dict()
    assert len(raw) - 12 - blob_len == 4 * sum(math.prod(shape) for _, shape, _ in table)


def test_checkpoint_payload_size_is_checked_before_allocation(tmp_path):
    """A file of under 200 bytes whose header asks for a four-million-wide
    input projection is refused from the header alone."""
    import json
    import struct
    import tracemalloc
    cfg = {"model": "transformer",
           "encoder": {"num_snippets": 32, "d_in": 4_000_000, "d_model": 32, "heads": 4,
                       "depth": 2, "conv_width": 3}}
    blob = json.dumps(cfg, separators=(",", ":")).encode()
    path = tmp_path / "huge.ckpt"
    path.write_bytes(b"WVCK" + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob)
    assert path.stat().st_size < 200
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak
