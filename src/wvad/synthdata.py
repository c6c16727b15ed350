"""Synthetic weak-label feature datasets and the on-disk format.

Each video is a T x D matrix of snippet features drawn from N(0, I). An
abnormal video carries exactly one contiguous abnormal region whose snippets
are shifted by delta along the first D/4 coordinates; a per-video coin
downgrades the shift to delta/4 ("subtle" regions). The first and last
snippet of a region of two or more only receive a U(0.3, 0.7) fraction of
the shift, standing in for transitional content. Normal videos
may contain a distractor burst: the same delta applied to coordinates
D/2 .. D/2+D/4, a disjoint subspace, so a scorer keyed to the anomaly
direction is not fooled trivially while one keyed to overall energy is.
Frame labels, kept for test videos only, mark every frame of every region
snippet (edges included) as anomalous. Generation is deterministic:
per-video generators come from spawning the config seed, so any video can
be regenerated in isolation.

Feature matrix format (little-endian): magic ``WVFD``, u32 version=1, u32
rows, u32 D, then rows*D float32 row-major. A dataset (format 3) is
``manifest.json``, one ``<split>.wvfd`` per non-empty split holding its
videos' rows one after another in manifest order, and ``test.labels``
holding the test videos' frames in the same order, one 0x00/0x01 byte each.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .schema import from_json

FEATURE_MAGIC = b"WVFD"
FEATURE_VERSION = 1
FORMAT_VERSION = 3
_MAX_DIM = 1 << 24   # refuse absurd header dims before allocating

MANIFEST_NAME = "manifest.json"
LABELS_NAME = "test.labels"
SPLITS = ("train", "test")


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
    distractor_prob: float = 0.5
    region_len_range: tuple[int, int] = (3, 8)
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
    split: str                    # "train" | "test"; a test video has frame labels
    video_label: int
    num_frames: int
    num_snippets: int             # its rows in the split's feature file

    def __post_init__(self):
        if self.split not in SPLITS:
            raise FormatError(f"split must be train or test, got {self.split!r}")
        if self.video_label not in (0, 1):
            raise FormatError(f"video_label must be 0 or 1, got {self.video_label!r}")
        if self.num_snippets < 1:
            raise FormatError(f"num_snippets must be >= 1, got {self.num_snippets}")
        if self.num_frames < self.num_snippets:
            raise FormatError(f"num_frames must be >= num_snippets: video {self.id} has "
                              f"{self.num_frames} frames for {self.num_snippets} snippets")


@dataclass
class Manifest:
    """A dataset's ``manifest.json``: the generating config and the videos."""

    format_version: int
    config: SynthConfig | None = None
    videos: list[VideoRecord] = field(default_factory=list)


@dataclass
class LoadedVideo:
    record: VideoRecord
    features: np.ndarray               # (T, D) float32
    frame_labels: np.ndarray | None    # (num_frames,) uint8, test split only


# ---------------------------------------------------------------------
# file formats


def write_features(features: np.ndarray, path):
    """Write a rows x D float32 feature matrix."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features must be finite")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, *features.shape))
        fh.write(np.ascontiguousarray(features, dtype="<f4"))


def _open(path):
    """A dataset file; a missing one, or a directory, is a malformed dataset."""
    try:
        return open(path, "rb")
    except (FileNotFoundError, IsADirectoryError) as e:
        raise FormatError(f"{path}: {e.strerror.lower()}") from None


def _where(videos, unit: int) -> str:
    """`` in video <id>`` holding row or frame ``unit``, or `` after video <id>``."""
    i = int(np.searchsorted(np.cumsum([n for _, n in videos]), unit, side="right"))
    return f" in video {videos[i][0]}" if i < len(videos) else f" after video {videos[-1][0]}"


def _read_rows(fh, path, shape, dtype, unit: int, videos, what: str) -> np.ndarray:
    """The rest of ``fh`` as an array of ``shape``, a row or frame of ``unit``
    bytes each; allocated only once the file is known to hold exactly that."""
    offset, nbytes = fh.tell(), shape[0] * unit
    size = os.fstat(fh.fileno()).st_size - offset
    if size == nbytes:
        out = np.empty(shape, dtype)
        size = fh.readinto(out)
    if size != nbytes:
        end = offset + min(size, nbytes)
        raise FormatError(
            f"{path}: {what} of {size} bytes at offset {offset}, expected {nbytes}; "
            f"the first {'missing' if size < nbytes else 'extra'} byte is at offset "
            f"{end}{_where(videos, (end - offset) // unit)}")
    return out


def load_features(path, videos) -> np.ndarray:
    """Read the (rows, D) float32 feature rows of the (id, rows) ``videos``,
    one after another, refusing a malformed header, a row count other than
    their total, a payload of the wrong size and non-finite values."""
    with _open(path) as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise FormatError(f"{path}: truncated header ({len(header)} bytes, need 16)")
        if header[:4] != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {header[:4]!r} at offset 0")
        version, t, d = struct.unpack_from("<III", header, 4)
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at offset 4")
        if not (1 <= t <= _MAX_DIM and 1 <= d <= _MAX_DIM):
            raise FormatError(f"{path}: implausible shape {t}x{d} at offset 8")
        total = sum(n for _, n in videos)
        if t != total:
            raise FormatError(
                f"{path}: {t} rows at offset 8, but the manifest's videos have {total}; "
                f"the first {'missing' if t < total else 'extra'} row is row "
                f"{min(t, total)}{_where(videos, min(t, total))}")
        features = _read_rows(fh, path, (t, d), "<f4", 4 * d, videos, "payload")
    # min and max carry any NaN or infinity, with no temporary of the block's size
    if not np.isfinite([features.min(), features.max()]).all():
        bad = int(np.argmin(np.isfinite(features.ravel())))
        raise FormatError(f"{path}: non-finite value {features.flat[bad]} at offset "
                          f"{16 + 4 * bad}{_where(videos, bad // d)}")
    return features


def load_frame_labels(path, videos) -> np.ndarray:
    """Read the 0/1 frame labels of the (id, frames) ``videos``, one after another."""
    with _open(path) as fh:
        labels = _read_rows(fh, path, (sum(n for _, n in videos),), np.uint8, 1, videos, "labels")
    if labels.max(initial=0) > 1:
        bad = int(np.argmax(labels > 1))
        raise FormatError(f"{path}: label byte 0x{labels[bad]:02x} at offset "
                          f"{bad}{_where(videos, bad)} is not 0x00/0x01")
    return labels


# ---------------------------------------------------------------------
# generation


def _make_video(rng: np.random.Generator, label: int, config: SynthConfig):
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
        if length >= 2:
            scale[0] *= rng.uniform(0.3, 0.7)
            scale[-1] *= rng.uniform(0.3, 0.7)
        features[start:start + length, :block] += scale[:, None]
    else:
        if rng.random() < config.distractor_prob:
            lo, hi = config.region_len_range
            length = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(0, t - length + 1))
            features[start:start + length, 2 * block:3 * block] += config.anomaly_shift
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
    root.mkdir(parents=True, exist_ok=True)
    plan = _video_plan(config)
    seeds = np.random.SeedSequence(config.seed).spawn(len(plan))
    # the plan puts every train video before every test video
    t = config.num_snippets
    features = np.empty((len(plan) * t, config.d_in), dtype=np.float32)
    labels = np.empty((len(plan), config.num_frames), dtype=np.uint8)
    for i, ((_, _, label), seed) in enumerate(zip(plan, seeds)):
        features[i * t:(i + 1) * t], snippet_labels = _make_video(
            np.random.Generator(np.random.PCG64(seed)), label, config)
        labels[i] = np.repeat(snippet_labels, config.frames_per_snippet)
    n_train = config.n_normal_train + config.n_abnormal_train
    for split, block in (("train", features[:n_train * t]), ("test", features[n_train * t:])):
        if len(block):
            write_features(block, root / f"{split}.wvfd")
    if len(plan) > n_train:
        (root / LABELS_NAME).write_bytes(labels[n_train:])
    manifest = {"format_version": FORMAT_VERSION, "config": asdict(config), "videos": [
        asdict(VideoRecord(id=video_id, split=split, video_label=label,
                           num_frames=config.num_frames, num_snippets=t))
        for video_id, split, label in plan]}
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
    version = manifest.get("format_version") if type(manifest) is dict else FORMAT_VERSION
    if version != FORMAT_VERSION:   # before the videos, whose keys differ by version
        raise FormatError(f"{path}: unsupported format_version {version!r}; re-run "
                          f"`wvad synth` to write this dataset as format {FORMAT_VERSION}")
    return from_json(Manifest, manifest, str(path), FormatError)


def load_split(root, split: str, *, frame_labels: bool = True,
               manifest: Manifest | None = None) -> list[LoadedVideo]:
    """Load every video of one split: its features and, for the test split
    unless ``frame_labels`` is false, its frame labels. ``manifest`` is the
    root's manifest if the caller has read it already.

    ``<split>.wvfd`` and ``test.labels`` are each opened once and read into
    one block, of which every video holds views; an empty split opens no
    file. A fault in the features is raised before one in the labels.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be train or test, got {split!r}")
    root = Path(root)
    if manifest is None:
        manifest = load_manifest(root)
    records = [rec for rec in manifest.videos if rec.split == split]
    if not records:
        return []
    rows = [(rec.id, rec.num_snippets) for rec in records]
    features = _views(load_features(root / f"{split}.wvfd", rows), rows)
    labels = [None] * len(records)
    if frame_labels and split == "test":
        frames = [(rec.id, rec.num_frames) for rec in records]
        labels = _views(load_frame_labels(root / LABELS_NAME, frames), frames)
    return [LoadedVideo(record=rec, features=video_features, frame_labels=video_labels)
            for rec, video_features, video_labels in zip(records, features, labels)]


def _views(block: np.ndarray, videos) -> list[np.ndarray]:
    """``block`` cut into the consecutive rows of the (id, rows) ``videos``."""
    ends = np.cumsum([n for _, n in videos]).tolist()
    return [block[a:b] for a, b in zip([0] + ends, ends)]
