"""Snippet encoder and scoring heads.

A video arrives as a T x D_in matrix of snippet features, and a batch as a
B x T x D_in stack of them; every op below runs on the whole stack at once,
so one training step is one taped graph. The transformer
model projects each row to D_model, prepends a learned cls token, and runs a
stack of blocks, each of which re-embeds the snippet tokens with a
depthwise-separable temporal convolution (the cls token skips the conv, it
has no temporal position), applies multi-head self-attention over all T+1
tokens, layer-norms the residual sum, and adds a small feedforward residual.
Two affine heads read the result: a per-snippet anomaly score from each
snippet token and a video-level score from the cls token, both squashed by a
sigmoid.

A memoryless linear baseline (one affine map on the raw features) lives here
too so training and evaluation can swap models behind one interface.

Each model kind declares its parameters once, in a table (``param_table``,
``linear_param_table``) that gives every parameter's name, shape and init in
checkpoint order. Checkpoint layout (binary, little-endian): magic ``WVCK``,
u32 version, u32 JSON length, JSON config block, then every parameter tensor
in table order as raw float32. Callers may append opaque trailing bytes; the
loader returns them untouched.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, FormatError
from .schema import from_json
from .tensor import (
    Tensor,
    affine_grads,
    dws_conv1d,
    gelu,
    layer_norm,
    linear,
    multi_head_self_attention,
    node,
    stable_sigmoid,
)

CHECKPOINT_MAGIC = b"WVCK"
CHECKPOINT_VERSION = 2


@dataclass
class EncoderConfig:
    """Shape and depth of the transformer model.

    Defaults are desk scale: small enough that gradient checks and full
    training runs finish in seconds on a CPU.
    """

    num_snippets: int = 32
    d_in: int = 32
    d_model: int = 32
    heads: int = 4
    depth: int = 2
    conv_width: int = 3

    def __post_init__(self):
        if self.num_snippets < 1:
            raise ConfigError(f"num_snippets must be >= 1, got {self.num_snippets}")
        if self.d_in < 1 or self.d_model < 1:
            raise ConfigError("feature dims must be >= 1")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by heads ({self.heads})")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.conv_width < 1 or self.conv_width % 2 == 0:
            raise ConfigError(f"conv_width must be odd, got {self.conv_width}")


@dataclass
class BlockParams:
    conv_depth: Tensor
    conv_point: Tensor
    conv_bias: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln_gamma: Tensor
    ln_beta: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor


@dataclass
class ModelParams:
    """All trainable tensors, in fixed declaration order (checkpoint order)."""

    w_in: Tensor
    b_in: Tensor
    cls_token: Tensor
    blocks: list[BlockParams]
    score_w: Tensor
    score_b: Tensor
    video_w: Tensor
    video_b: Tensor

    def named(self) -> Iterator[tuple[str, Tensor]]:
        """Every tensor, named as in ``param_table``, in field order."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "blocks":
                for i, blk in enumerate(value):
                    for b in fields(blk):
                        yield f"block{i}.{b.name}", getattr(blk, b.name)
            else:
                yield f.name, value


@dataclass
class EncodedVideo:
    """Output tokens of the encoder, (T+1, D) or a batch (B, T+1, D): row 0
    of each video is the cls token, rows 1..T the snippets."""

    tokens: Tensor
    # rows 1..T, one slice shared by the snippet head and the features
    snippet_features: Tensor = field(init=False)

    def __post_init__(self):
        self.snippet_features = self.tokens[..., 1:, :]


@dataclass
class ScoredBatch:
    """A batch's forward results, stacked along B, as the losses and mining
    read them; the weak labels are passed beside it. A single (T, D_in)
    video's forward drops the B axis from each."""

    scores: Tensor          # (B, T), each in (0,1)
    video_scores: Tensor    # (B,), each in (0,1)
    features: Tensor        # (B, T, D) rows of the contrastive objective


def param_table(config: EncoderConfig) -> Iterator[tuple[str, tuple[int, ...], int | str]]:
    """Every parameter of the transformer in checkpoint order, lazily: its
    name, its shape and its init, "zeros", "ones" or the fan-in of a
    symmetric uniform draw."""
    d, w = config.d_model, config.conv_width
    yield "w_in", (config.d_in, d), config.d_in
    yield "b_in", (d,), "zeros"
    yield "cls_token", (d,), d
    block = (("conv_depth", (d, w), w), ("conv_point", (d, d), d), ("conv_bias", (d,), "zeros"),
             ("wq", (d, d), d), ("bq", (d,), "zeros"), ("wk", (d, d), d), ("bk", (d,), "zeros"),
             ("wv", (d, d), d), ("bv", (d,), "zeros"), ("wo", (d, d), d), ("bo", (d,), "zeros"),
             ("ln_gamma", (d,), "ones"), ("ln_beta", (d,), "zeros"),
             ("ff_w1", (d, 2 * d), d), ("ff_b1", (2 * d,), "zeros"),
             ("ff_w2", (2 * d, d), 2 * d), ("ff_b2", (d,), "zeros"))
    for i in range(config.depth):
        for name, shape, init in block:
            yield f"block{i}.{name}", shape, init
    yield "score_w", (d,), d
    yield "score_b", (), "zeros"
    yield "video_w", (d,), d
    yield "video_b", (), "zeros"


def linear_param_table(d_in: int) -> list[tuple[str, tuple[int, ...], int | str]]:
    """The linear model's parameters, as ``param_table`` gives the transformer's."""
    return [("w", (d_in,), d_in), ("b", (), "zeros")]


def init_tensors(table, seed: int, dtype=np.float32) -> list[Tensor]:
    """A table's parameters in table order, deterministic for a seed.

    The uniform draws are made for every block's entries first and then for
    the others, each in table order. That is the order the first checkpoints
    were drawn in; it keeps every seed's parameters, and so every
    checkpoint and log, bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    table = list(table)
    made = {}
    for name, shape, init in sorted(table, key=lambda entry: not entry[0].startswith("block")):
        if init in ("zeros", "ones"):
            data = (np.zeros if init == "zeros" else np.ones)(shape, dtype=dtype)
        else:
            bound = 1.0 / math.sqrt(init)
            data = rng.uniform(-bound, bound, size=shape).astype(dtype)
        made[name] = Tensor(data, requires_grad=True)
    return [made[name] for name, _, _ in table]


def params_from_tensors(config: EncoderConfig, tensors: Iterable[Tensor]) -> ModelParams:
    """Assemble ``ModelParams`` from tensors in ``param_table`` order."""
    named = dict(zip((name for name, _, _ in param_table(config)), tensors))
    blocks = [BlockParams(**{f.name: named.pop(f"block{i}.{f.name}") for f in fields(BlockParams)})
              for i in range(config.depth)]
    return ModelParams(blocks=blocks, **named)


def init_params(config: EncoderConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Fan-in-scaled symmetric init; biases zero; deterministic for a seed."""
    return params_from_tensors(config, init_tensors(param_table(config), seed, dtype))


def encode(features, params: ModelParams, config: EncoderConfig) -> EncodedVideo:
    """Run the block stack over a batch of videos' snippet features.

    ``features`` is (B, T, D_in); a single (T, D_in) video is run as B=1
    and its tokens come back as (T+1, D).
    """
    f = features if isinstance(features, Tensor) else Tensor(features)
    single = f.data.ndim == 2
    if single:
        f = f.reshape(1, *f.data.shape)
    expected = (config.num_snippets, config.d_in)
    if f.data.ndim != 3 or f.data.shape[1:] != expected:
        raise ConfigError(f"feature array is {f.data.shape}, config expects (B, *{expected})")
    tokens = _embed(f, params.w_in, params.b_in, params.cls_token)
    for blk in params.blocks:
        # the cls row (0) skips the conv: it has no temporal position
        a = dws_conv1d(tokens, blk.conv_depth, blk.conv_point, blk.conv_bias, skip=1)
        attn = multi_head_self_attention(
            a, blk.wq, blk.bq, blk.wk, blk.bk, blk.wv, blk.bv, blk.wo, blk.bo,
            heads=config.heads)
        b = layer_norm(a + attn, blk.ln_gamma, blk.ln_beta)
        ff = linear(gelu(linear(b, blk.ff_w1, blk.ff_b1)), blk.ff_w2, blk.ff_b2)
        tokens = b + ff
    return EncodedVideo(tokens=tokens[0] if single else tokens)


def _embed(f: Tensor, w: Tensor, b: Tensor, cls_token: Tensor) -> Tensor:
    """The input projection ``f @ w + b`` of (B, T, D_in) features with the
    (D,) cls token in front of each video's rows: (B, T+1, D), one node.

    The forward is the composed form's (the projection, then the cls token
    broadcast over the batch and concatenated), so it is bitwise that form.
    """
    x = f.data @ w.data + b.data
    batch, n, d = x.shape
    tokens = np.empty((batch, n + 1, d), dtype=np.promote_types(x.dtype, cls_token.data.dtype))
    tokens[:, 0] = cls_token.data
    tokens[:, 1:] = x

    def backward(g):
        g_cls = g[:, 0].sum(axis=0) if cls_token.requires_grad else None
        return (*affine_grads(f.data, w, b, g[:, 1:], f.requires_grad), g_cls)

    return node(tokens, (f, w, b, cls_token), backward)


def _sigmoid_head(x: Tensor, w: Tensor, b: Tensor, row: int | None = None) -> Tensor:
    """``sigmoid(x @ w + b)`` over the rows of ``x`` (..., k) with a (k,)
    weight and a scalar bias, one node. With ``row``, only that row of the
    second-to-last axis is read (the cls token) and the axis is dropped.

    The forward is the composed form's (a slice, ``linear``, an index and
    ``sigmoid``), so it is bitwise that form; so is the backward.
    """
    xd = x.data if row is None else x.data[..., row:row + 1, :]
    z = xd @ w.data + b.data
    val = stable_sigmoid(z if row is None else z[..., 0])

    def backward(g):
        gz = g * val * (1.0 - val)
        gx, gw, gb = affine_grads(xd, w, b, gz if row is None else gz[..., None],
                                  x.requires_grad)
        if gx is not None and row is not None:
            full = np.zeros_like(x.data)
            full[..., row:row + 1, :] = gx
            gx = full
        return gx, gw, gb

    return node(val, (x, w, b), backward)


def snippet_scores(enc: EncodedVideo, params: ModelParams) -> Tensor:
    """Per-snippet anomaly scores, (T,) or (B, T), each strictly inside (0,1)."""
    return _sigmoid_head(enc.snippet_features, params.score_w, params.score_b)


def video_score(enc: EncodedVideo, params: ModelParams) -> Tensor:
    """Video-level anomaly score read off the cls token output: a scalar, or (B,).

    The cls row keeps its row axis so that each video is its own (1, D)
    product: a video's score does not depend on the batch it is in.
    """
    return _sigmoid_head(enc.tokens, params.video_w, params.video_b, row=0)


class TransformerModel:
    """Config + params bundle with a batched forward pass."""

    kind = "transformer"

    def __init__(self, config: EncoderConfig, params: ModelParams):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: EncoderConfig, seed: int, dtype=np.float32) -> "TransformerModel":
        return cls(config, init_params(config, seed, dtype))

    def forward(self, features) -> ScoredBatch:
        """Scores of a (B, T, D_in) batch, or of one (T, D_in) video."""
        enc = encode(features, self.params, self.config)
        return ScoredBatch(
            scores=snippet_scores(enc, self.params),
            video_scores=video_score(enc, self.params),
            features=enc.snippet_features,
        )

    def named_params(self) -> list[tuple[str, Tensor]]:
        return list(self.params.named())

    def config_dict(self) -> dict:
        return {"model": self.kind, "encoder": asdict(self.config)}


class LinearModel:
    """Memoryless baseline: one affine map scores each snippet independently.

    The video-level score applies the same map to the mean feature row, and
    the raw input rows stand in as contrastive features.
    """

    kind = "linear"

    def __init__(self, d_in: int, w: Tensor, b: Tensor):
        self.d_in = d_in
        self.w = w
        self.b = b

    @classmethod
    def init(cls, d_in: int, seed: int, dtype=np.float32) -> "LinearModel":
        return cls(d_in, *init_tensors(linear_param_table(d_in), seed, dtype))

    def forward(self, features) -> ScoredBatch:
        """Same shapes as ``TransformerModel.forward``: (T, D_in) or (B, T, D_in)."""
        f = features if isinstance(features, Tensor) else Tensor(features)
        if f.data.ndim not in (2, 3) or f.data.shape[-1] != self.d_in:
            raise ConfigError(
                f"feature array is {f.data.shape}, model expects (..., T, {self.d_in})")
        return ScoredBatch(
            scores=_sigmoid_head(f, self.w, self.b),
            video_scores=_sigmoid_head(f.mean(axis=-2, keepdims=True), self.w, self.b, row=0),
            features=f,
        )

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [("w", self.w), ("b", self.b)]

    def config_dict(self) -> dict:
        return {"model": self.kind, "d_in": self.d_in}


Model = TransformerModel | LinearModel


# ---------------------------------------------------------------------
# checkpoint I/O


def save_checkpoint(path, model: Model, extra: bytes = b""):
    """Write the model to ``path``; ``extra`` is appended verbatim.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one step: a write that fails or is interrupted
    leaves the previous checkpoint as it was.
    """
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    blob = json.dumps(model.config_dict(), sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    for _, p in model.named_params():
        parts.append(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    parts.append(extra)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[Model, bytes]:
    """Read a model back; returns it plus any trailing bytes after the params.

    The header's config alone fixes every parameter's shape, so a file too
    short for them is refused before anything is allocated; the parameters
    are then views of one float32 copy of the payload. A NaN or infinite
    value is refused, naming its parameter, before any model is built.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {buf[:4]!r}")
    if len(buf) < 12:
        raise FormatError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}; re-run `wvad train`")
    (blob_len,) = struct.unpack_from("<I", buf, 8)
    blob_end = 12 + blob_len
    if len(buf) < blob_end:
        raise FormatError(f"{path}: truncated config block")
    try:
        cfg = json.loads(buf[12:blob_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: bad config block: {e}") from e
    table, build = _layout_from_config(cfg, path)
    # every parameter holds at least one value, so this walk ends within
    # len(buf) / 4 parameters however large a model the header declares
    layout, end = [], blob_end
    for name, shape, _ in table:
        size = math.prod(shape)
        if end + 4 * size > len(buf):
            raise FormatError(f"{path}: truncated at parameter {name}")
        layout.append((name, (end - blob_end) // 4, size, shape))
        end += 4 * size
    flat = np.frombuffer(buf, dtype="<f4", count=(end - blob_end) // 4, offset=blob_end) \
        .astype(np.float32)
    finite = np.isfinite(flat)
    if not finite.all():
        at = int(np.argmin(finite))
        name = next(name for name, start, size, _ in layout if at < start + size)
        raise FormatError(f"{path}: non-finite value {flat[at]} in parameter {name}")
    return build([Tensor(flat[start:start + size].reshape(shape), requires_grad=True)
                  for _, start, size, shape in layout]), buf[end:]


@dataclass
class _Header:
    """A checkpoint's JSON config block, as ``config_dict`` writes it."""

    model: str
    encoder: EncoderConfig | None = None   # transformer
    d_in: int | None = None                # linear


def _layout_from_config(cfg, path):
    """The parameter table of the model a checkpoint header's config
    declares, and the function that builds that model from its tensors."""
    header = from_json(_Header, cfg, f"{path}: header", FormatError)
    config, d_in = header.encoder, header.d_in
    if header.model == "transformer" and config is not None:
        return param_table(config), \
            lambda tensors: TransformerModel(config, params_from_tensors(config, tensors))
    if header.model == "linear" and d_in is not None and d_in >= 1:
        return linear_param_table(d_in), lambda tensors: LinearModel(d_in, *tensors)
    raise FormatError(f"{path}: header of model kind {header.model!r} is neither a "
                      "transformer with an encoder config nor a linear model with d_in >= 1")
