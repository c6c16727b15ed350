"""The split loader against the per-video generator in ``oracles`` and on
a table of malformed datasets, the score-CSV reader against its one-row
form in ``oracles``, and what ``export-scores`` and ``eval`` read from a
dataset.

A valid split must load bit for bit as the per-video generator made it. A
malformed one must raise the exact ``FormatError`` its fault calls for,
naming the file, the byte offset and the video that holds the fault. Each
score-CSV input must give the same values, or the same exception class and
message, from both forms, so a malformed file still names the row the row
loop named.
"""

import csv
import io
import json
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import generate_per_video, read_scores_csv_rows

from wvad import cli
from wvad.encoder import EncoderConfig, TransformerModel, save_checkpoint
from wvad.errors import ConfigError, FormatError
from wvad.synthdata import LABELS_NAME, MANIFEST_NAME, SPLITS, SynthConfig, generate_dataset, \
    load_split

SEED = 20261019
SYNTH = dict(n_normal_train=3, n_abnormal_train=3, n_normal_test=5, n_abnormal_test=5,
             num_snippets=8, frames_per_snippet=2, d_in=4, seed=3)
T, D, FRAMES = 8, 4, 16   # each video's rows and frames, the split files' columns
TEST_IDS = [f"test-{kind}-{i:03d}" for kind in ("nrm", "abn") for i in range(5)]


def outcome(read, *args, **kwargs):
    """What ``read`` returned, or the class and message of what it raised."""
    try:
        return "ok", read(*args, **kwargs)
    except Exception as e:   # compared, not hidden
        return type(e), str(e)


# ---------------------------------------------------------------------
# load_split


def assert_loads_as_generated(root, config):
    """Both splits of ``root`` hold the per-video generator's videos, bit
    for bit, in its order."""
    generated = generate_per_video(config)
    for split in SPLITS:
        videos = load_split(root, split)
        expected = [video for video in generated if video[1] == split]
        assert len(videos) == len(expected)
        for v, (video_id, _, label, features, frame_labels) in zip(videos, expected):
            assert (v.record.id, v.record.split, v.record.video_label) == \
                (video_id, split, label)
            assert (v.record.num_snippets, v.record.num_frames) == \
                (config.num_snippets, config.num_frames)
            assert v.features.dtype == np.float32 and v.features.shape == features.shape
            assert v.features.tobytes() == features.tobytes()
            if frame_labels is None:
                assert v.frame_labels is None
            else:
                assert v.frame_labels.dtype == np.uint8
                assert v.frame_labels.tobytes() == frame_labels.tobytes()


def random_config(rng) -> SynthConfig:
    t = int(rng.integers(2, 10))
    lo = int(rng.integers(1, t + 1))
    return SynthConfig(
        **{key: int(rng.integers(0, 4)) for key in ("n_normal_train", "n_abnormal_train",
                                                    "n_normal_test", "n_abnormal_test")},
        num_snippets=t, frames_per_snippet=int(rng.integers(1, 4)),
        d_in=int(rng.integers(4, 9)), subtle_fraction=float(rng.random()),
        edge_blend=bool(rng.random() < 0.5), distractor_prob=float(rng.random()),
        region_len_range=(lo, int(rng.integers(lo, t + 1))),
        random_rotation=bool(rng.random() < 0.3), seed=int(rng.integers(2 ** 31)))


@pytest.mark.parametrize("case", range(60))
def test_load_split_matches_the_per_video_loop(case, tmp_path):
    """Seeded configs, empty splits included: each video loads as the
    per-video generator made it, and an empty split has no file."""
    config = random_config(np.random.default_rng([SEED, case]))
    generate_dataset(config, tmp_path)
    assert_loads_as_generated(tmp_path, config)
    n_test = config.n_normal_test + config.n_abnormal_test
    assert (tmp_path / "test.wvfd").exists() == (tmp_path / LABELS_NAME).exists() == (n_test > 0)
    assert (tmp_path / "train.wvfd").exists() == (config.n_normal_train
                                                  + config.n_abnormal_train > 0)


def test_a_valid_split_loads_as_before(tmp_path):
    generate_dataset(SynthConfig(**SYNTH), tmp_path)
    assert_loads_as_generated(tmp_path, SynthConfig(**SYNTH))


@pytest.mark.parametrize("config", [
    SynthConfig(**SYNTH | dict(random_rotation=True)),
    SynthConfig(),   # the reference dataset
    SynthConfig(n_normal_train=0, n_abnormal_train=0, n_normal_test=300, n_abnormal_test=300,
                seed=1007),   # the benchmark's score test set
], ids=["small", "reference", "score_600"])
def test_every_video_keeps_the_per_video_generators_bits(config, tmp_path):
    generate_dataset(config, tmp_path)
    assert_loads_as_generated(tmp_path, config)


def _patch(path, at, data):
    raw = bytearray(path.read_bytes())
    raw[at:at + len(data)] = data
    path.write_bytes(bytes(raw))


def _value(value):
    return np.array([value], "<f4").tobytes()


def _cut(path, size):
    path.write_bytes(path.read_bytes()[:size])


def _set_video(index, key, value):
    def edit(root):
        path = root / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if index is None:
            manifest[key] = value
        else:
            manifest["videos"][index][key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
    return edit


def _into_directory(path):
    path.unlink()
    path.mkdir()


# (file broken, how, the message after the file's path); the test split's
# file holds 80 rows of 4 float32 (1280 payload bytes), test.labels 160
# bytes, and test video i holds rows 8i..8i+7 and label bytes 16i..16i+15
FEATURE_FAULTS = {
    "nan": ("test.wvfd", lambda p: _patch(p, 488, _value(np.nan)),
            "non-finite value nan at offset 488 in video test-nrm-003"),
    "-inf": ("train.wvfd", lambda p: _patch(p, 528, _value(-np.inf)),
             "non-finite value -inf at offset 528 in video train-abn-001"),
    "inf_first_value": ("test.wvfd", lambda p: _patch(p, 16, _value(np.inf)),
                        "non-finite value inf at offset 16 in video test-nrm-000"),
    "nan_last_of_a_video": ("test.wvfd", lambda p: _patch(p, 652, _value(np.nan)),
                            "non-finite value nan at offset 652 in video test-nrm-004"),
    "nan_first_of_a_video": ("test.wvfd", lambda p: _patch(p, 656, _value(np.nan)),
                             "non-finite value nan at offset 656 in video test-abn-000"),
    "nan_last_value": ("test.wvfd", lambda p: _patch(p, 1292, _value(np.nan)),
                       "non-finite value nan at offset 1292 in video test-abn-004"),
    "short_header": ("test.wvfd", lambda p: _cut(p, 10), "truncated header (10 bytes, need 16)"),
    "empty": ("test.wvfd", lambda p: _cut(p, 0), "truncated header (0 bytes, need 16)"),
    "magic": ("test.wvfd", lambda p: _patch(p, 0, b"WVFX"), "bad magic b'WVFX' at offset 0"),
    "version": ("test.wvfd", lambda p: _patch(p, 4, struct.pack("<I", 2)),
                "unsupported version 2 at offset 4"),
    "zero_rows": ("test.wvfd", lambda p: _patch(p, 8, struct.pack("<I", 0)),
                  "implausible shape 0x4 at offset 8"),
    "zero_columns": ("test.wvfd", lambda p: _patch(p, 12, struct.pack("<I", 0)),
                     "implausible shape 80x0 at offset 8"),
    "columns_past_the_file": (   # refused before a 5 GB block is allocated
        "test.wvfd", lambda p: _patch(p, 12, struct.pack("<I", 1 << 24)),
        "payload of 1280 bytes at offset 16, expected 5368709120; "
        "the first missing byte is at offset 1296 in video test-nrm-000"),
    "payload_one_value_short": (
        "test.wvfd", lambda p: _cut(p, 1292),
        "payload of 1276 bytes at offset 16, expected 1280; "
        "the first missing byte is at offset 1292 in video test-abn-004"),
    "payload_one_value_long": (
        "test.wvfd", lambda p: p.write_bytes(p.read_bytes() + _value(0.5)),
        "payload of 1284 bytes at offset 16, expected 1280; "
        "the first extra byte is at offset 1296 after video test-abn-004"),
    "payload_of_four_videos": (
        "test.wvfd", lambda p: _cut(p, 16 + 4 * D * T * 4),
        "payload of 512 bytes at offset 16, expected 1280; "
        "the first missing byte is at offset 528 in video test-nrm-004"),
    "fewer_rows": ("test.wvfd", lambda p: _patch(p, 8, struct.pack("<I", 79)),
                   "79 rows at offset 8, but the manifest's videos have 80; "
                   "the first missing row is row 79 in video test-abn-004"),
    "more_rows": ("test.wvfd", lambda p: _patch(p, 8, struct.pack("<I", 81)),
                  "81 rows at offset 8, but the manifest's videos have 80; "
                  "the first extra row is row 80 after video test-abn-004"),
    "a_video_with_more_snippets": (
        "test.wvfd", lambda p: _set_video(8, "num_snippets", 9)(p.parent),
        "80 rows at offset 8, but the manifest's videos have 81; "
        "the first missing row is row 80 in video test-abn-004"),
    "missing": ("test.wvfd", Path.unlink, "no such file or directory"),
    "a_directory": ("test.wvfd", _into_directory, "is a directory"),
}
MANIFEST_FAULTS = {
    "fewer_frames_than_snippets": (_set_video(13, "num_frames", 7),
                                   "videos[13]: num_frames must be >= num_snippets: "
                                   "video test-abn-002 has 7 frames for 8 snippets"),
    "no_snippets": (_set_video(2, "num_snippets", 0),
                    "videos[2]: num_snippets must be >= 1, got 0"),
    "version_1": (_set_video(None, "format_version", 1),
                  "unsupported format_version 1; "
                  "re-run `wvad synth` to write this dataset as format 2"),
}
LABEL_FAULTS = {
    "missing": (Path.unlink, "no such file or directory"),
    "a_directory": (_into_directory, "is a directory"),
    "one_byte_short": (lambda p: _cut(p, 159),
                       "labels of 159 bytes at offset 0, expected 160; "
                       "the first missing byte is at offset 159 in video test-abn-004"),
    "one_byte_long": (lambda p: p.write_bytes(p.read_bytes() + b"\x00"),
                      "labels of 161 bytes at offset 0, expected 160; "
                      "the first extra byte is at offset 160 after video test-abn-004"),
    "byte_0x02": (lambda p: _patch(p, 37, b"\x02"),
                  "label byte 0x02 at offset 37 in video test-nrm-002 is not 0x00/0x01"),
    "byte_0xff_first_of_a_video": (lambda p: _patch(p, 80, b"\xff"),
                                   "label byte 0xff at offset 80 in video test-abn-000 "
                                   "is not 0x00/0x01"),
}


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    root = tmp_path_factory.mktemp("intact")
    generate_dataset(SynthConfig(**SYNTH), root)
    return root


def fresh(root):
    generate_dataset(SynthConfig(**SYNTH), root)
    return root


@pytest.mark.parametrize("name", sorted(FEATURE_FAULTS))
def test_a_feature_file_fault_names_the_file_offset_and_video(name, tmp_path):
    file, apply, message = FEATURE_FAULTS[name]
    root = fresh(tmp_path)
    apply(root / file)
    split = file.removesuffix(".wvfd")
    expected = (FormatError, f"{root / file}: {message}")
    assert outcome(load_split, root, split) == expected
    assert outcome(load_split, root, split, frame_labels=False) == expected
    other = "train" if split == "test" else "test"   # the other split loads
    assert outcome(load_split, root, other)[0] == "ok"


@pytest.mark.parametrize("name", sorted(MANIFEST_FAULTS))
def test_a_manifest_fault_names_the_video(name, tmp_path):
    edit, message = MANIFEST_FAULTS[name]
    root = fresh(tmp_path)
    edit(root)
    for split in SPLITS:
        assert outcome(load_split, root, split) == \
            (FormatError, f"{root / MANIFEST_NAME}: {message}")


@pytest.mark.parametrize("name", sorted(LABEL_FAULTS))
def test_a_label_fault_names_the_offset_and_video_and_spares_features(name, intact,
                                                                      tmp_path):
    apply, message = LABEL_FAULTS[name]
    root = fresh(tmp_path)
    apply(root / LABELS_NAME)
    assert outcome(load_split, root, "test") == \
        (FormatError, f"{root / LABELS_NAME}: {message}")
    assert_same_features(load_split(root, "test", frame_labels=False),
                         load_split(intact, "test"))
    assert_same_features(load_split(root, "train"), load_split(intact, "train"))


def assert_same_features(got, expected):
    """The same videos and features; ``got`` has no frame labels."""
    assert [v.record for v in got] == [v.record for v in expected]
    for g, e in zip(got, expected):
        assert g.frame_labels is None and g.features.tobytes() == e.features.tobytes()


@pytest.mark.parametrize("case", range(20))
def test_a_features_only_load_ignores_every_label_fault(case, intact, tmp_path):
    """A seeded label fault: a cut or grown file or 1-3 bad bytes. A load
    with labels names the first fault; one without loads as the intact
    dataset does."""
    rng = np.random.default_rng([SEED, 100 + case])
    root = fresh(tmp_path)
    path = root / LABELS_NAME
    kind = ("cut", "grow", "bytes")[case % 3]
    if kind == "cut":
        size = int(rng.integers(0, 160))
        _cut(path, size)
        message = (f"labels of {size} bytes at offset 0, expected 160; the first missing "
                   f"byte is at offset {size} in video {TEST_IDS[size // FRAMES]}")
    elif kind == "grow":
        extra = int(rng.integers(1, 40))
        path.write_bytes(path.read_bytes() + bytes(extra))
        message = (f"labels of {160 + extra} bytes at offset 0, expected 160; the first "
                   "extra byte is at offset 160 after video test-abn-004")
    else:
        offsets = rng.choice(160, size=int(rng.integers(1, 4)), replace=False)
        values = rng.integers(2, 256, size=len(offsets))
        for at, value in zip(offsets, values):
            _patch(path, int(at), bytes([int(value)]))
        first = int(np.argmin(offsets))
        at = int(offsets[first])
        message = (f"label byte 0x{int(values[first]):02x} at offset {at} in video "
                   f"{TEST_IDS[at // FRAMES]} is not 0x00/0x01")
    assert outcome(load_split, root, "test") == (FormatError, f"{path}: {message}")
    assert_same_features(load_split(root, "test", frame_labels=False),
                         load_split(intact, "test"))


def test_several_faults_name_the_first_video(tmp_path):
    """Faults in one file name the one at the lowest offset; a feature
    fault comes before any label fault."""
    cases = [  # (feature file patches, label patches, the file and message)
        ([(488, np.nan), (1100, -np.inf)], [],
         ("test.wvfd", "non-finite value nan at offset 488 in video test-nrm-003")),
        ([(1100, np.nan), (488, np.inf)], [],
         ("test.wvfd", "non-finite value inf at offset 488 in video test-nrm-003")),
        ([(1100, np.nan)], [(37, 2)],
         ("test.wvfd", "non-finite value nan at offset 1100 in video test-abn-003")),
        ([], [(150, 3), (37, 2)],
         (LABELS_NAME, "label byte 0x02 at offset 37 in video test-nrm-002 is not 0x00/0x01")),
    ]
    for i, (values, labels, (file, message)) in enumerate(cases):
        root = fresh(tmp_path / str(i))
        for at, value in values:
            _patch(root / "test.wvfd", at, _value(value))
        for at, value in labels:
            _patch(root / LABELS_NAME, at, bytes([value]))
        assert outcome(load_split, root, "test") == (FormatError, f"{root / file}: {message}")


def test_unnormalised_paths_are_named_as_pathlib_names_them(tmp_path, monkeypatch):
    """However the dataset root is spelled, a fault names its file as
    ``Path(root) / name`` does."""
    root = fresh(tmp_path / "d")
    (root / "test.wvfd").unlink()
    monkeypatch.chdir(root)
    for spelling in (root, f"{root}/", f"{root}/.", ".", "./", "../d"):
        assert outcome(load_split, spelling, "test") == \
            (FormatError, f"{Path(spelling) / 'test.wvfd'}: no such file or directory")


# ---------------------------------------------------------------------
# the score CSV reader


def score_rows(rng):
    """A valid score CSV's header and rows, videos in order."""
    rows = []
    for v in range(int(rng.integers(1, 6))):
        label = int(rng.integers(0, 2))
        for t in range(int(rng.integers(1, 6))):
            rows.append([f"v{v}", str(t), repr(float(rng.random())), str(label)])
    return list(cli.SCORE_COLUMNS), rows


def csv_fault(name, header, rows, rng):
    """Change ``header`` and ``rows`` in place in the way ``name`` says; rows
    still have the four columns in order until a structural fault."""
    r = int(rng.integers(len(rows)))
    if name == "shuffle":
        rng.shuffle(rows)
    elif name == "quoted_id":
        vid = rows[r][0]
        for row in rows:
            if row[0] == vid:
                row[0] = 'a,"b"'
    elif name == "repeated_column":
        c = int(rng.integers(4))
        header.append(header[c])
        for row in rows:
            row.append(row[c] if rng.random() < 0.9 else "0")
    elif name == "reorder":
        order = rng.permutation(len(header))
        header[:] = [header[i] for i in order]
        for row in rows:
            row[:] = [row[i] for i in order]
    elif name == "short_row":
        del rows[r][int(rng.integers(1, len(rows[r]))):]
    elif name == "long_row":
        rows[r].append("extra")
    elif name == "blank":
        rows.insert(r, [])
    elif name in ("nan", "inf", "-inf"):
        rows[r][2] = name
    elif name == "duplicate_t":
        rows.insert(int(rng.integers(len(rows) + 1)), list(rows[r]))
    elif name == "conflicting_label":
        rows[r][3] = "1" if rows[r][3] == "0" else "0"
    elif name == "drop_row":
        del rows[r]
    else:   # a field replaced by text int() or float() may or may not take
        text = {"bad_t": ("x", "1.5", " 2", "+1", "١", "-1", str(10 ** 30), "2_0"),
                "bad_score": ("x", " 0.5 ", "1e999", "", "1_0.5"),
                "bad_label": ("2", "-0", "x", " 1", "")}[name]
        rows[r]["bad_t bad_score bad_label".split().index(name) + 1] = \
            text[int(rng.integers(len(text)))]


# value faults first: a run of faults is applied in this order
CSV_FAULTS = ("quoted_id", "nan", "inf", "-inf", "duplicate_t", "conflicting_label",
              "drop_row", "bad_t", "bad_score", "bad_label", "shuffle", "repeated_column",
              "reorder", "short_row", "long_row", "blank")


def write_csv(path, header, rows, quoting=csv.QUOTE_MINIMAL):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
    writer.writerow(header)
    for row in rows:
        buf.write("\n") if not row else writer.writerow(row)
    path.write_text(buf.getvalue(), encoding="utf-8")
    return path


def assert_same_scores(path):
    got, expected = outcome(cli._read_scores_csv, path), outcome(read_scores_csv_rows, path)
    if expected[0] == "ok" and got[0] == "ok":
        assert [(vid, label) for vid, label, _ in got[1]] == \
            [(vid, label) for vid, label, _ in expected[1]]
        for (_, label, g), (_, _, e) in zip(got[1], expected[1]):
            assert type(label) is int and g.dtype == e.dtype == np.float64
            np.testing.assert_array_equal(g, e)
    else:
        assert got == expected
    return expected


# some exporters quote every field; a reader that split lines on commas
# would pass most minimally quoted files, and no file quoted throughout
@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL],
                         ids=["quote_minimal", "quote_all"])
@pytest.mark.parametrize("case", range(200))
def test_score_csv_reader_matches_the_row_loop(case, quoting, tmp_path):
    rng = np.random.default_rng([SEED, 1, case])
    header, rows = score_rows(rng)
    for fault in sorted(rng.integers(len(CSV_FAULTS), size=int(rng.integers(0, 4)))):
        if rows:
            csv_fault(CSV_FAULTS[fault], header, rows, rng)
    assert_same_scores(write_csv(tmp_path / "scores.csv", header, rows, quoting))


VALID = [["v0", "0", "0.5", "0"], ["v0", "1", "0.25", "0"],
         ["w", "0", "0.75", "1"], ["w", "1", "1.0", "1"]]


@pytest.mark.parametrize("name, header, rows, expected", [
    ("out_of_order", cli.SCORE_COLUMNS, [VALID[3], VALID[0], VALID[2], VALID[1]], "ok"),
    ("quoted_id", cli.SCORE_COLUMNS, [['a,"b"', "1", "0.5", "0"], ['a,"b"', "0", "0.1", "0"]],
     "ok"),
    ("repeated_column", (*cli.SCORE_COLUMNS, "t"), [r + ["0"] for r in VALID],
     ":3: duplicate snippet index 0 for v0"),
    ("short_rows", cli.SCORE_COLUMNS, [VALID[0], VALID[1][:3], VALID[2][:1]],
     ":3: malformed row: int() argument"),
    ("blank_lines", cli.SCORE_COLUMNS, [[], VALID[0], [], VALID[1], [], []], "ok"),
    ("nan", cli.SCORE_COLUMNS, [VALID[0], VALID[1][:2] + ["nan", "0"]],
     ":3: non-finite score 'nan'"),
    ("inf_then_bad_t", cli.SCORE_COLUMNS, [VALID[0], ["v0", "1", "-inf", "0"],
                                           ["v0", "x", "0.5", "0"]],
     ":3: non-finite score '-inf'"),
    ("duplicate_t", cli.SCORE_COLUMNS, [VALID[0], VALID[1], VALID[0]],
     ":4: duplicate snippet index 0 for v0"),
    ("conflicting_labels", cli.SCORE_COLUMNS, [VALID[0], ["v0", "1", "0.5", "1"]],
     ":3: conflicting labels for video v0"),
    ("bad_label_before_conflict", cli.SCORE_COLUMNS,
     [VALID[0], ["v0", "1", "0.5", "2"], ["v0", "2", "0.5", "1"]],
     ":3: bad video id or label"),
    ("gap", cli.SCORE_COLUMNS, [VALID[0], VALID[2], VALID[3], ["v0", "2", "0.5", "0"]],
     ": video v0 snippet indices are not 0..T-1"),
    ("huge_t", cli.SCORE_COLUMNS, [VALID[2], ["w", str(10 ** 30), "0.5", "1"], VALID[0]],
     ": video w snippet indices are not 0..T-1"),
])
def test_score_csv_cases(name, header, rows, expected, tmp_path):
    kind, result = assert_same_scores(write_csv(tmp_path / f"{name}.csv", header, rows))
    if expected == "ok":
        assert kind == "ok"
    else:
        assert kind is ConfigError and f"{tmp_path / name}.csv{expected}" in result


def test_an_unreadable_row_fails_after_the_rows_before_it(tmp_path):
    """csv's field limit ends the reading; a malformed row before it is
    reported first, and without one the unreadable row is, as a malformed
    row with its number."""
    huge = ["v0", "1", "0." + "1" * 140_000, "0"]
    kind, message = assert_same_scores(write_csv(
        tmp_path / "a.csv", cli.SCORE_COLUMNS, [VALID[0], ["v0", "x", "0.5", "0"], huge]))
    assert kind is ConfigError and message.startswith(f"{tmp_path / 'a.csv'}:3: malformed row")
    kind, message = assert_same_scores(write_csv(tmp_path / "b.csv", cli.SCORE_COLUMNS,
                                                 [VALID[0], huge]))
    assert kind is ConfigError
    assert message == (f"{tmp_path / 'b.csv'}:3: unreadable row: "
                       "field larger than field limit (131072)")


def test_reading_a_600_video_score_csv_peaks_under_3_5_mb(tmp_path):
    """The reader holds the file's lines and each video's scores, not a
    column of every row: one read of 600 videos x 32 rows peaked at 3.29 MB
    of traced memory on Python 3.11.7 with numpy 2.4.6 (3.93 MB when rows
    were turned into columns 512 at a time)."""
    scores = np.random.default_rng(SEED).random((600, 32), dtype=np.float32).tolist()
    rows = [[f"test-{'abn' if i % 2 else 'nrm'}-{i // 2:03d}", str(t), repr(s), str(i % 2)]
            for i, row in enumerate(scores) for t, s in enumerate(row)]
    path = write_csv(tmp_path / "scores.csv", cli.SCORE_COLUMNS, rows)
    tracemalloc.start()
    try:
        videos = cli._read_scores_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(videos) == 600
    assert peak < 3.5e6, f"peak {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------
# what export-scores and eval read


ENCODER = EncoderConfig(num_snippets=SYNTH["num_snippets"], d_in=SYNTH["d_in"], d_model=8,
                        heads=2, depth=1)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.wvck"
    save_checkpoint(path, TransformerModel.init(ENCODER, 0))
    return path


OPENED = None   # the paths opened while a test records them
HOOKED = []     # an audit hook cannot be removed, so it is added once


def _record_open(event, args):
    if event == "open" and OPENED is not None:
        OPENED.append(str(args[0]))


def opened_under(root, action):
    """How many files under ``root`` ``action`` opens."""
    global OPENED
    if not HOOKED:
        sys.addaudithook(_record_open)
        HOOKED.append(_record_open)
    OPENED = []
    try:
        action()
        return sum(path.startswith(f"{root}/") for path in OPENED)
    finally:
        OPENED = None


def test_export_scores_reads_no_frame_label(checkpoint, tmp_path, capsys):
    data = fresh(tmp_path / "d")
    score = ["export-scores", "--checkpoint", str(checkpoint), "--data", str(data)]
    assert cli.main([*score, "--out", str(tmp_path / "intact")]) == 0
    (data / LABELS_NAME).unlink()
    assert cli.main([*score, "--out", str(tmp_path / "no_labels")]) == 0
    assert ((tmp_path / "no_labels" / "scores.csv").read_bytes()
            == (tmp_path / "intact" / "scores.csv").read_bytes())
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 3
    assert f"{data / LABELS_NAME}: no such file" in capsys.readouterr().err


def test_each_file_is_opened_once(checkpoint, tmp_path):
    """The manifest, the split's feature file and, for eval, test.labels:
    three files or two, whatever the split's video count."""
    for n_test in (10, 70):
        data = tmp_path / f"d{n_test}"
        generate_dataset(SynthConfig(**SYNTH | dict(n_normal_test=n_test // 2,
                                                    n_abnormal_test=n_test - n_test // 2)), data)
        assert opened_under(data, lambda: load_split(data, "test")) == 3
        assert opened_under(data, lambda: load_split(data, "test", frame_labels=False)) == 2
        assert opened_under(data, lambda: load_split(data, "train")) == 2
        for command, expected in (("eval", 3), ("export-scores", 2)):
            argv = [command, "--checkpoint", str(checkpoint), "--data", str(data),
                    "--out", str(tmp_path / f"{command}{n_test}")]
            assert opened_under(data, lambda: cli.main(argv)) == expected
