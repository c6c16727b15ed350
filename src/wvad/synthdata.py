"""Synthetic weak-label feature datasets and the on-disk format.

Each video is a T x D matrix of snippet features drawn from N(0, I). An
abnormal video carries exactly one contiguous abnormal region whose snippets
are shifted by delta along the first D/4 coordinates; a per-video coin
downgrades the shift to delta/4 ("subtle" regions). When edge blending is
on, the first and last snippet of a region only receive a U(0.3, 0.7)
fraction of the shift, standing in for transitional content. Normal videos
may contain a distractor burst: the same delta applied to coordinates
D/2 .. D/2+D/4, a disjoint subspace, so a scorer keyed to the anomaly
direction is not fooled trivially while one keyed to overall energy is.

Frame labels mark every frame of every region snippet (edges included) as
anomalous; normal videos have all-zero frames and are only written for the
test split.

Feature file format (little-endian): magic ``WVFD``, u32 version=1, u32 T,
u32 D, then T*D float32 row-major. The dataset directory holds
``manifest.json``, ``features/<id>.wvfd`` and, for test videos,
``labels/<id>.bin`` with one 0x00/0x01 byte per frame.

Generation is deterministic: per-video generators come from spawning the
config seed, so any video can be regenerated in isolation.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .schema import from_json

FEATURE_MAGIC = b"WVFD"
FEATURE_VERSION = 1
_MAX_DIM = 1 << 24   # refuse absurd header dims before allocating

MANIFEST_NAME = "manifest.json"


@dataclass
class SynthConfig:
    n_normal_train: int = 40
    n_abnormal_train: int = 40
    n_normal_test: int = 15
    n_abnormal_test: int = 15
    num_snippets: int = 32
    frames_per_snippet: int = 16
    d_in: int = 32
    anomaly_shift: float = 4.0
    subtle_fraction: float = 0.3
    edge_blend: bool = True
    distractor_prob: float = 0.5
    region_len_range: tuple[int, int] = (3, 8)
    random_rotation: bool = False
    seed: int = 7

    def __post_init__(self):
        for name in ("n_normal_train", "n_abnormal_train", "n_normal_test", "n_abnormal_test"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.num_snippets < 2:
            raise ConfigError(f"num_snippets must be >= 2, got {self.num_snippets}")
        if self.frames_per_snippet < 1:
            raise ConfigError("frames_per_snippet must be >= 1")
        if self.d_in < 4:
            raise ConfigError(f"d_in must be >= 4 for the coordinate blocks, got {self.d_in}")
        if self.anomaly_shift < 0:
            raise ConfigError("anomaly_shift must be >= 0")
        if not 0.0 <= self.subtle_fraction <= 1.0:
            raise ConfigError("subtle_fraction must be in [0,1]")
        if not 0.0 <= self.distractor_prob <= 1.0:
            raise ConfigError("distractor_prob must be in [0,1]")
        lo, hi = self.region_len_range
        if not 1 <= lo <= hi <= self.num_snippets:
            raise ConfigError(f"region_len_range {self.region_len_range} invalid "
                              f"for {self.num_snippets} snippets")

    @property
    def num_frames(self) -> int:
        return self.num_snippets * self.frames_per_snippet


@dataclass
class VideoRecord:
    id: str
    split: str                    # "train" | "test"
    video_label: int
    num_frames: int
    feature_file: str
    frame_label_file: str | None  # test split only

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise FormatError(f"split must be train or test, got {self.split!r}")
        if self.video_label not in (0, 1):
            raise FormatError(f"video_label must be 0 or 1, got {self.video_label!r}")
        if self.num_frames < 1:
            raise FormatError(f"num_frames must be >= 1, got {self.num_frames}")


@dataclass
class Manifest:
    """A dataset's ``manifest.json``: the generating config and the videos."""

    format_version: int
    config: SynthConfig | None = None
    videos: list[VideoRecord] = field(default_factory=list)

    def __post_init__(self):
        if self.format_version != 1:
            raise FormatError(f"unsupported format_version {self.format_version}")


@dataclass
class LoadedVideo:
    record: VideoRecord
    features: np.ndarray               # (T, D) float32
    frame_labels: np.ndarray | None    # (num_frames,) uint8, test split only


# ---------------------------------------------------------------------
# feature file format


def write_features(features: np.ndarray, path):
    """Write one video's T x D float32 feature matrix."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features must be finite")
    t, d = features.shape
    header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, t, d)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(features, dtype="<f4").tobytes())


def _read_bytes(path) -> bytes:
    """A file the manifest names; a missing one, or a directory, is a
    malformed dataset. Read whole and unbuffered: no buffer object to build."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read()
    except (FileNotFoundError, IsADirectoryError) as e:
        raise FormatError(f"{path}: {e.strerror.lower()}") from None


def _read_features(path) -> tuple[bytes, int, int]:
    """A feature file's bytes, T and D, after every check but the values'."""
    buf = _read_bytes(path)
    if len(buf) < 16:
        raise FormatError(f"{path}: truncated header ({len(buf)} bytes, need 16)")
    if buf[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {buf[:4]!r} at offset 0")
    version, t, d = struct.unpack_from("<III", buf, 4)
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    if not (1 <= t <= _MAX_DIM and 1 <= d <= _MAX_DIM):
        raise FormatError(f"{path}: implausible shape {t}x{d} at offset 8")
    expected = 16 + t * d * 4
    if len(buf) != expected:
        raise FormatError(
            f"{path}: payload is {len(buf) - 16} bytes at offset 16, expected {t * d * 4}")
    return buf, t, d


def _check_finite(flat: np.ndarray, path):
    """Refuse a non-finite value, which ``write_features`` never writes."""
    finite = np.isfinite(flat)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FormatError(f"{path}: non-finite value {flat[bad]} at offset {16 + 4 * bad}")


def _read_labels(path, num_frames: int) -> bytes:
    raw = _read_bytes(path)
    if len(raw) != num_frames:
        raise FormatError(f"{path}: {len(raw)} label bytes, expected {num_frames}")
    return raw


def _check_labels(labels: np.ndarray, path):
    if labels.max(initial=0) > 1:
        raise FormatError(f"{path}: labels must be 0x00/0x01")


def load_features(path) -> np.ndarray:
    """Read a feature file back as float32, validating the header and
    refusing non-finite values."""
    buf, t, d = _read_features(path)
    flat = np.frombuffer(buf, dtype="<f4", count=t * d, offset=16)
    _check_finite(flat, path)
    return flat.reshape(t, d).astype(np.float32)


def load_frame_labels(path, num_frames: int) -> np.ndarray:
    labels = np.frombuffer(_read_labels(path, num_frames), dtype=np.uint8)
    _check_labels(labels, path)
    return labels.copy()


# ---------------------------------------------------------------------
# generation


def _make_video(rng: np.random.Generator, label: int, config: SynthConfig,
                rotation: np.ndarray | None):
    """One video's features and snippet labels; rng call order is fixed."""
    t, d = config.num_snippets, config.d_in
    block = d // 4
    features = rng.normal(size=(t, d))
    snippet_labels = np.zeros(t, dtype=np.uint8)
    if label == 1:
        lo, hi = config.region_len_range
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, t - length + 1))
        subtle = rng.random() < config.subtle_fraction
        shift = config.anomaly_shift / 4.0 if subtle else config.anomaly_shift
        snippet_labels[start:start + length] = 1
        scale = np.full(length, shift)
        if config.edge_blend and length >= 2:
            scale[0] *= rng.uniform(0.3, 0.7)
            scale[-1] *= rng.uniform(0.3, 0.7)
        features[start:start + length, :block] += scale[:, None]
    else:
        if rng.random() < config.distractor_prob:
            lo, hi = config.region_len_range
            length = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(0, t - length + 1))
            features[start:start + length, 2 * block:3 * block] += config.anomaly_shift
    if rotation is not None:
        features = features @ rotation
    return features.astype(np.float32), snippet_labels


def _video_plan(config: SynthConfig):
    plan = []
    for split, label, count in (("train", 0, config.n_normal_train),
                                ("train", 1, config.n_abnormal_train),
                                ("test", 0, config.n_normal_test),
                                ("test", 1, config.n_abnormal_test)):
        kind = "abn" if label else "nrm"
        plan.extend((f"{split}-{kind}-{i:03d}", split, label) for i in range(count))
    return plan


def generate_dataset(config: SynthConfig, out_dir) -> dict:
    """Write a full dataset directory; returns the manifest dict."""
    root = Path(out_dir)
    (root / "features").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(exist_ok=True)
    plan = _video_plan(config)
    seeds = np.random.SeedSequence(config.seed).spawn(len(plan) + 1)
    rotation = None
    if config.random_rotation:
        q, _ = np.linalg.qr(
            np.random.Generator(np.random.PCG64(seeds[-1])).normal(
                size=(config.d_in, config.d_in)))
        rotation = q
    records = []
    for (video_id, split, label), seed in zip(plan, seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        features, snippet_labels = _make_video(rng, label, config, rotation)
        feature_file = f"features/{video_id}.wvfd"
        write_features(features, root / feature_file)
        frame_label_file = None
        if split == "test":
            frame_labels = np.repeat(snippet_labels, config.frames_per_snippet)
            frame_label_file = f"labels/{video_id}.bin"
            (root / frame_label_file).write_bytes(frame_labels.tobytes())
        records.append(VideoRecord(
            id=video_id, split=split, video_label=label,
            num_frames=config.num_frames, feature_file=feature_file,
            frame_label_file=frame_label_file))
    manifest = {
        "format_version": 1,
        "config": asdict(config),
        "videos": [asdict(r) for r in records],
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------
# loading


def load_manifest(root) -> Manifest:
    path = Path(root) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FormatError(f"{path}: no manifest found") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8: byte 0x{e.object[e.start]:02x} "
                          f"at offset {e.start}") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from e
    return from_json(Manifest, manifest, str(path), FormatError)


def _joiner(root: Path):
    """``name -> str(root / name)``, a plain concatenation for a name that
    pathlib would not normalise."""
    prefix = str(root / "x")[:-1]

    def join(name: str) -> str:
        parts = name.split("/")
        if name.startswith("/") or "" in parts or "." in parts:
            return str(root / name)
        return prefix + name
    return join


def load_split(root, split: str, *, frame_labels: bool = True,
               manifest: Manifest | None = None) -> list[LoadedVideo]:
    """Load every video of one split: its features and, unless
    ``frame_labels`` is false, the frame labels of the videos that have them.
    ``manifest`` is the root's manifest if the caller has read it already.

    Each file is opened and read once, and its values are copied into one
    float32 block for the split's features and one uint8 block for its
    labels, whose videos hold views of them. Finiteness and the 0/1 labels
    are checked once over the blocks. A malformed split raises the error of
    its first malformed video, each video checked in manifest order:
    features, frame count, then labels.
    """
    if split not in ("train", "test"):
        raise ValueError(f"split must be train or test, got {split!r}")
    root = Path(root)
    join = _joiner(root)
    if manifest is None:
        manifest = load_manifest(root)
    records = [rec for rec in manifest.videos if rec.split == split]
    with_labels = [frame_labels and rec.frame_label_file is not None for rec in records]
    features = np.empty(0, dtype=np.float32)
    labels = np.empty(sum(rec.num_frames for rec, has in zip(records, with_labels) if has),
                      dtype=np.uint8)
    copied = []         # (record, feature path, block offset, (T, D)) of each video read
    label_spans = {}    # video index -> (label path, block offset, frames)
    used = used_labels = 0
    try:
        for i, rec in enumerate(records):
            path = join(rec.feature_file)
            buf, t, d = _read_features(path)
            end = used + t * d
            if end > features.size:   # the first video, or one larger than it
                grown = np.empty(max(end, 2 * features.size, len(records) * t * d),
                                 dtype=np.float32)
                grown[:used] = features[:used]
                features = grown
            features[used:end] = np.frombuffer(buf, dtype="<f4", count=t * d, offset=16)
            copied.append((rec, path, used, (t, d)))
            used = end
            if rec.num_frames < t:
                raise FormatError(
                    f"{root / MANIFEST_NAME}: video {rec.id} has {rec.num_frames} frames, "
                    f"fewer than its {t} snippets")
            if with_labels[i]:
                path = join(rec.frame_label_file)
                n = rec.num_frames
                labels[used_labels:used_labels + n] = np.frombuffer(
                    _read_labels(path, n), dtype=np.uint8)
                label_spans[i] = (path, used_labels, n)
                used_labels += n
    except (FormatError, OSError, ValueError):   # reading or checking a video's files
        # an earlier video's values fail before this video's file does
        _check_values(features[:used], labels[:used_labels], copied, label_spans)
        raise
    _check_values(features[:used], labels, copied, label_spans)
    out = []
    for i, (rec, _, start, (t, d)) in enumerate(copied):
        video_labels = None
        if i in label_spans:
            _, begin, n = label_spans[i]
            video_labels = labels[begin:begin + n]
        out.append(LoadedVideo(record=rec, features=features[start:start + t * d].reshape(t, d),
                               frame_labels=video_labels))
    return out


def _check_values(features, labels, copied, label_spans):
    """Check the copied features' finiteness and labels' values at once;
    on a fault, raise the error of the first video that has one."""
    # min and max carry any NaN or infinity, with no temporary of the block's size
    if np.isfinite([features.min(initial=0), features.max(initial=0)]).all() \
            and labels.max(initial=0) <= 1:
        return
    for i, (_, path, start, (t, d)) in enumerate(copied):
        _check_finite(features[start:start + t * d], path)
        if i in label_spans:
            path, start, n = label_spans[i]
            _check_labels(labels[start:start + n], path)
