"""Dataset generator and file-format tests.

The linear-probe test doubles as the learnability calibration for the
end-to-end acceptance run: if a one-direction mean probe separates snippets
at the easy shift setting, a trained model has signal to work with.
"""

import json
import struct

import numpy as np
import pytest

from wvad.errors import ConfigError, FormatError
from wvad.metrics import EvalRecord, evaluate
from wvad.synthdata import (
    FORMAT_VERSION,
    LABELS_NAME,
    MANIFEST_NAME,
    SynthConfig,
    VideoRecord,
    generate_dataset,
    load_features,
    load_frame_labels,
    load_manifest,
    load_split,
    write_features,
)


def small_config(**kw):
    base = dict(n_normal_train=4, n_abnormal_train=4, n_normal_test=3,
                n_abnormal_test=3, num_snippets=16, frames_per_snippet=4,
                d_in=16, seed=7)
    base.update(kw)
    return SynthConfig(**base)


# ---------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_normal_train=-1)
    with pytest.raises(ConfigError):
        SynthConfig(num_snippets=1)
    with pytest.raises(ConfigError):
        SynthConfig(d_in=3)
    with pytest.raises(ConfigError):
        SynthConfig(subtle_fraction=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(region_len_range=(5, 3))
    with pytest.raises(ConfigError):
        SynthConfig(region_len_range=(1, 99), num_snippets=32)


def test_num_frames_property():
    assert SynthConfig().num_frames == 32 * 16


# ---------------------------------------------------------------------
# feature file format


def test_feature_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    f = rng.normal(size=(32, 32)).astype(np.float32)
    path = tmp_path / "x.wvfd"
    write_features(f, path)
    back = load_features(path, [("x", 32)])
    assert back.dtype == np.float32
    assert back.tobytes() == f.tobytes()


def test_feature_round_trip_zero_and_minimal(tmp_path):
    for f in (np.zeros((4, 4), dtype=np.float32), np.array([[3.5]], dtype=np.float32)):
        path = tmp_path / "m.wvfd"
        write_features(f, path)
        np.testing.assert_array_equal(load_features(path, [("x", len(f))]), f)


def test_feature_rejects_nonfinite_and_bad_rank(tmp_path):
    with pytest.raises(ValueError):
        write_features(np.array([[np.inf]]), tmp_path / "x.wvfd")
    with pytest.raises(ValueError):
        write_features(np.ones(4), tmp_path / "x.wvfd")


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "bad.wvfd"
    path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        load_features(path, [("x", 1)])


def test_feature_truncated_payload(tmp_path):
    path = tmp_path / "short.wvfd"
    path.write_bytes(b"WVFD" + struct.pack("<III", 1, 32, 32) + b"\x00" * 100)
    with pytest.raises(FormatError, match="payload"):
        load_features(path, [("x", 32)])


def test_feature_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "long.wvfd"
    write_features(np.zeros((2, 2), dtype=np.float32), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_features(path, [("x", 2)])


def test_feature_bad_version(tmp_path):
    path = tmp_path / "v9.wvfd"
    path.write_bytes(b"WVFD" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        load_features(path, [("x", 1)])


def test_feature_implausible_shape_refused_before_allocation(tmp_path):
    path = tmp_path / "huge.wvfd"
    path.write_bytes(b"WVFD" + struct.pack("<III", 1, 1 << 30, 1 << 30))
    with pytest.raises(FormatError, match="shape"):
        load_features(path, [("x", 1)])


def test_frame_labels_validation(tmp_path):
    path = tmp_path / "l.bin"
    path.write_bytes(bytes([0, 1, 1, 0]))
    np.testing.assert_array_equal(load_frame_labels(path, [("a", 1), ("b", 3)]), [0, 1, 1, 0])
    with pytest.raises(FormatError, match="in video b$"):
        load_frame_labels(path, [("a", 1), ("b", 4)])
    path.write_bytes(bytes([0, 2, 1, 0]))
    with pytest.raises(FormatError, match="offset 1 in video b is not"):
        load_frame_labels(path, [("a", 1), ("b", 3)])


def test_feature_rows_must_be_the_videos_total(tmp_path):
    path = tmp_path / "x.wvfd"
    write_features(np.zeros((5, 2), dtype=np.float32), path)
    assert load_features(path, [("a", 2), ("b", 3)]).shape == (5, 2)
    with pytest.raises(FormatError, match="the first missing row is row 5 in video b$"):
        load_features(path, [("a", 2), ("b", 4)])


# ---------------------------------------------------------------------
# generation basics


def test_no_abnormal_train_videos_means_all_zero_labels(tmp_path):
    cfg = small_config(n_abnormal_train=0)
    manifest = generate_dataset(cfg, tmp_path)
    train = [v for v in manifest["videos"] if v["split"] == "train"]
    assert train
    assert all(v["video_label"] == 0 for v in train)


def test_same_seed_byte_identical_datasets(tmp_path):
    cfg = small_config()
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    generate_dataset(cfg, a_dir)
    generate_dataset(cfg, b_dir)
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel


@pytest.mark.parametrize("n", [1, 40])
def test_a_dataset_is_the_manifest_and_one_file_per_split(n, tmp_path):
    """Whatever the video count: the manifest, one feature file per
    non-empty split and the test labels; no directory."""
    generate_dataset(small_config(n_normal_train=n, n_abnormal_train=n, n_normal_test=n,
                                  n_abnormal_test=0), tmp_path / "both")
    generate_dataset(small_config(n_normal_train=0, n_abnormal_train=0, n_normal_test=n,
                                  n_abnormal_test=n), tmp_path / "test_only")
    generate_dataset(small_config(n_normal_train=n, n_normal_test=0, n_abnormal_test=0),
                     tmp_path / "train_only")
    for name, files in (("both", {"train.wvfd", "test.wvfd"}),
                        ("test_only", {"test.wvfd"}), ("train_only", {"train.wvfd"})):
        if "test.wvfd" in files:
            files.add(LABELS_NAME)
        assert {p.name for p in (tmp_path / name).iterdir()} == {MANIFEST_NAME, *files}


def test_different_seeds_differ(tmp_path):
    generate_dataset(small_config(seed=1), tmp_path / "a")
    generate_dataset(small_config(seed=2), tmp_path / "b")
    fa = load_split(tmp_path / "a", "train")[0].features
    fb = load_split(tmp_path / "b", "train")[0].features
    assert not np.array_equal(fa, fb)


def test_manifest_records_are_consistent(tmp_path):
    cfg = small_config()
    generate_dataset(cfg, tmp_path)
    records = load_manifest(tmp_path).videos
    assert len(records) == 4 + 4 + 3 + 3
    for rec in records:
        assert rec.num_frames == cfg.num_frames
        assert rec.num_snippets == cfg.num_snippets
    assert [rec.split for rec in records] == ["train"] * 8 + ["test"] * 6


def test_normal_test_videos_have_no_positive_frames(tmp_path):
    generate_dataset(small_config(), tmp_path)
    for video in load_split(tmp_path, "test"):
        if video.record.video_label == 0:
            assert np.all(video.frame_labels == 0)


def test_abnormal_test_videos_have_positive_frames_matching_label(tmp_path):
    generate_dataset(small_config(), tmp_path)
    for video in load_split(tmp_path, "test"):
        has_pos = bool(np.any(video.frame_labels == 1))
        assert has_pos == (video.record.video_label == 1)


def test_frame_labels_align_to_snippet_blocks(tmp_path):
    cfg = small_config()
    generate_dataset(cfg, tmp_path)
    for video in load_split(tmp_path, "test"):
        blocks = video.frame_labels.reshape(cfg.num_snippets, cfg.frames_per_snippet)
        # each snippet's frames are uniformly labelled
        assert np.all(blocks.min(axis=1) == blocks.max(axis=1))


def test_load_split_shapes_and_split_filter(tmp_path):
    cfg = small_config()
    generate_dataset(cfg, tmp_path)
    train = load_split(tmp_path, "train")
    test = load_split(tmp_path, "test")
    assert len(train) == 8 and len(test) == 6
    for v in train:
        assert v.features.shape == (16, 16)
        assert v.features.dtype == np.float32
        assert v.frame_labels is None
    with pytest.raises(ValueError):
        load_split(tmp_path, "validation")


# ---------------------------------------------------------------------
# manifest robustness


def test_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_manifest(tmp_path)


def test_malformed_manifest_json(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_manifest(tmp_path)


def test_manifest_bad_version(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"format_version": 4, "videos": []}))
    with pytest.raises(FormatError, match="unsupported format_version 4"):
        load_manifest(tmp_path)


def test_a_format_1_manifest_asks_for_a_new_synth(tmp_path):
    """A dataset with a file per video, as format 1 wrote it."""
    record = dict(id="v", split="test", video_label=1, num_frames=4,
                  feature_file="features/v.wvfd", frame_label_file="labels/v.bin")
    (tmp_path / "manifest.json").write_text(json.dumps({"format_version": 1,
                                                        "videos": [record]}))
    with pytest.raises(FormatError, match=r"format_version 1; re-run `wvad synth`"):
        load_manifest(tmp_path)


def test_manifest_bad_record(tmp_path):
    doc = {"format_version": FORMAT_VERSION, "videos": [{"id": "x", "unexpected": True}]}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_manifest(tmp_path)


GOOD_RECORD = dict(id="v", split="test", video_label=1, num_frames=4, num_snippets=2)


@pytest.mark.parametrize("key, value", [("split", "validation"), ("video_label", 2),
                                        ("video_label", -1), ("num_frames", 0),
                                        ("num_snippets", 0)])
def test_video_record_values_are_checked(key, value):
    with pytest.raises(FormatError, match=f"^{key} must be"):
        VideoRecord(**{**GOOD_RECORD, key: value})


def test_a_video_needs_a_frame_per_snippet():
    VideoRecord(**{**GOOD_RECORD, "num_frames": 2})
    with pytest.raises(FormatError, match="^num_frames must be >= num_snippets: "
                                          "video v has 1 frames for 2 snippets$"):
        VideoRecord(**{**GOOD_RECORD, "num_frames": 1})


def test_manifest_record_errors_name_the_record_and_key(tmp_path):
    doc = {"format_version": FORMAT_VERSION,
           "videos": [GOOD_RECORD, {**GOOD_RECORD, "num_frames": 32.0}]}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"manifest\.json: videos\[1\]\.num_frames: "
                                          r"expected int, got 32\.0$"):
        load_manifest(tmp_path)


def test_manifest_config_errors_are_format_errors(tmp_path):
    generate_dataset(small_config(), tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["config"]["region_len_range"] = [9, 3]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"manifest\.json: config: region_len_range"):
        load_manifest(tmp_path)


def test_manifest_without_config_still_loads(tmp_path):
    generate_dataset(small_config(), tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    del doc["config"]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert load_manifest(tmp_path).config is None
    assert len(load_split(tmp_path, "test")) == 6


# ---------------------------------------------------------------------
# statistical structure


def _region_snippets(video, cfg):
    blocks = video.frame_labels.reshape(cfg.num_snippets, cfg.frames_per_snippet)
    return np.nonzero(blocks.max(axis=1))[0]


def test_abnormal_snippet_fraction_tracks_region_lengths(tmp_path):
    cfg = SynthConfig(n_normal_train=0, n_abnormal_train=0, n_normal_test=0,
                      n_abnormal_test=60, seed=5)
    generate_dataset(cfg, tmp_path)
    videos = load_split(tmp_path, "test")
    fractions = [len(_region_snippets(v, cfg)) / cfg.num_snippets for v in videos]
    expected = np.mean(range(3, 9)) / 32.0   # mean region length / T
    assert abs(np.mean(fractions) - expected) < 0.03


def test_subtle_regions_shift_at_quarter_strength(tmp_path):
    cfg = SynthConfig(n_normal_train=0, n_abnormal_train=0, n_normal_test=0,
                      n_abnormal_test=80, anomaly_shift=8.0, subtle_fraction=0.5, seed=9)
    generate_dataset(cfg, tmp_path)
    block = cfg.d_in // 4
    shifts = []
    for v in load_split(tmp_path, "test"):
        region = _region_snippets(v, cfg)
        # the edge snippets are blended; a region has at least 3 snippets
        shifts.append(float(v.features[region[1:-1], :block].mean()))
    shifts = np.array(shifts)
    strong = shifts[shifts > 5.0]
    subtle = shifts[shifts <= 5.0]
    assert len(strong) > 10 and len(subtle) > 10
    assert subtle.mean() / strong.mean() == pytest.approx(0.25, abs=0.05)


def test_edge_snippets_are_weaker_than_interior(tmp_path):
    cfg = SynthConfig(n_normal_train=0, n_abnormal_train=0, n_normal_test=0,
                      n_abnormal_test=30, anomaly_shift=6.0, subtle_fraction=0.0, seed=11)
    generate_dataset(cfg, tmp_path)
    block = cfg.d_in // 4
    edge_means, interior_means = [], []
    for v in load_split(tmp_path, "test"):
        region = _region_snippets(v, cfg)
        if len(region) < 3:
            continue
        edge_means += [v.features[region[0], :block].mean(),
                       v.features[region[-1], :block].mean()]
        interior_means += v.features[region[1:-1], :block].mean(axis=1).tolist()
    assert np.mean(edge_means) < np.mean(interior_means) - 1.0


def test_distractor_bursts_live_in_disjoint_subspace(tmp_path):
    cfg = SynthConfig(n_normal_train=0, n_abnormal_train=0, n_normal_test=40,
                      n_abnormal_test=0, distractor_prob=1.0, anomaly_shift=6.0,
                      seed=13)
    generate_dataset(cfg, tmp_path)
    block = cfg.d_in // 4
    burst_hits = 0
    for v in load_split(tmp_path, "test"):
        distractor_block = v.features[:, 2 * block:3 * block].mean(axis=1)
        anomaly_block = v.features[:, :block].mean(axis=1)
        if distractor_block.max() > 3.0:
            burst_hits += 1
        # the anomaly direction stays quiet in normal videos
        assert anomaly_block.max() < 3.0
    assert burst_hits == 40


def test_linear_probe_separates_snippets_at_easy_shift(tmp_path):
    """Mean of the anomaly block must give AUC > 0.99 at shift 6, no subtlety.

    This is the learnability floor for the end-to-end training criterion.
    """
    cfg = SynthConfig(n_normal_train=0, n_abnormal_train=0, n_normal_test=15,
                      n_abnormal_test=15, anomaly_shift=6.0, subtle_fraction=0.0,
                      seed=7)
    generate_dataset(cfg, tmp_path)
    block = cfg.d_in // 4
    scores, labels = [], []
    for v in load_split(tmp_path, "test"):
        snippet_labels = v.frame_labels.reshape(
            cfg.num_snippets, cfg.frames_per_snippet).max(axis=1)
        scores += v.features[:, :block].mean(axis=1).tolist()
        labels += snippet_labels.tolist()
    auc, _ = evaluate(EvalRecord(scores, labels))
    assert auc > 0.99
