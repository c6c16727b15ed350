"""The split loader and the score-CSV reader against their one-video and
one-row forms in ``oracles``, on seeded malformed inputs, and what
``export-scores`` and ``eval`` read from a dataset.

Each input must give the same values, or the same exception class and
message, from both forms, so a malformed dataset still names the file the
per-video loop named and a malformed score CSV the row the row loop named.
"""

import csv
import io
import json
import shutil
import struct
import sys

import numpy as np
import pytest
from oracles import load_split_per_video, read_scores_csv_rows

from wvad import cli
from wvad.encoder import EncoderConfig, TransformerModel, save_checkpoint
from wvad.errors import ConfigError
from wvad.synthdata import MANIFEST_NAME, SynthConfig, generate_dataset, load_split, \
    write_features

SEED = 20261019
SYNTH = dict(n_normal_train=3, n_abnormal_train=3, n_normal_test=5, n_abnormal_test=5,
             num_snippets=8, frames_per_snippet=2, d_in=4, seed=3)


def outcome(read, *args, **kwargs):
    """What ``read`` returned, or the class and message of what it raised."""
    try:
        return "ok", read(*args, **kwargs)
    except Exception as e:   # compared, not hidden
        return type(e), str(e)


# ---------------------------------------------------------------------
# load_split


def _edit_manifest(root, edit):
    path = root / MANIFEST_NAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _patch(path, at, data):
    raw = bytearray(path.read_bytes())
    raw[at:at + len(data)] = data
    path.write_bytes(bytes(raw))


def _set_frames(root, vid, frames):
    def edit(manifest):
        next(v for v in manifest["videos"] if v["id"] == vid)["num_frames"] = frames
    _edit_manifest(root, edit)


def dataset_fault(name, root, rec, rng):
    """Break one video's files (or its manifest record) in the way ``name`` says."""
    feats = root / rec["feature_file"]
    labels = root / rec["frame_label_file"] if rec["frame_label_file"] else None
    t, d = SYNTH["num_snippets"], SYNTH["d_in"]
    value_at = 16 + 4 * int(rng.integers(0, t * d))
    if name in ("nan", "inf"):
        _patch(feats, value_at, np.array([np.nan if name == "nan" else -np.inf], "<f4").tobytes())
    elif name == "short_header":
        feats.write_bytes(feats.read_bytes()[:int(rng.integers(0, 16))])
    elif name == "magic":
        _patch(feats, 0, b"WVFX")
    elif name == "version":
        _patch(feats, 4, struct.pack("<I", 2))
    elif name == "shape":
        _patch(feats, 8, struct.pack("<I", 0))
    elif name == "payload":
        raw = feats.read_bytes()
        feats.write_bytes(raw[:-4] if rng.random() < 0.5 else raw + b"\x00")
    elif name == "no_features":
        feats.unlink()
    elif name == "features_dir":
        feats.unlink()
        feats.mkdir()
    elif name == "longer":   # another shape: the block grows past its first size
        write_features(rng.normal(size=(t + 5, d)).astype(np.float32), feats)
        _set_frames(root, rec["id"], 2 * (t + 5))
    elif name == "few_frames":
        _set_frames(root, rec["id"], t // 2)
    elif labels is None:
        return
    elif name == "no_labels":
        labels.unlink()
    elif name == "label_count":
        labels.write_bytes(labels.read_bytes()[:-1])
    elif name == "label_byte":
        _patch(labels, int(rng.integers(0, rec["num_frames"])), b"\x02")


DATASET_FAULTS = ("nan", "inf", "short_header", "magic", "version", "shape", "payload",
                  "no_features", "features_dir", "longer", "few_frames", "no_labels",
                  "label_count", "label_byte")


def assert_same_videos(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.record == e.record
        assert g.features.dtype == e.features.dtype == np.float32
        np.testing.assert_array_equal(g.features, e.features)
        if e.frame_labels is None:
            assert g.frame_labels is None
        else:
            assert g.frame_labels.dtype == np.uint8
            np.testing.assert_array_equal(g.frame_labels, e.frame_labels)


def assert_same_split(root, split):
    got, expected = outcome(load_split, root, split), outcome(load_split_per_video, root, split)
    if expected[0] == "ok" and got[0] == "ok":
        assert_same_videos(got[1], expected[1])
    else:
        assert got == expected
    return expected


def broken_dataset(root, rng, faults):
    """A fresh dataset under ``root`` with ``faults`` (name, video index) applied."""
    generate_dataset(SynthConfig(**SYNTH), root)
    videos = json.loads((root / MANIFEST_NAME).read_text(encoding="utf-8"))["videos"]
    for name, index in faults:
        dataset_fault(name, root, videos[index], rng)
    return root


@pytest.mark.parametrize("case", range(60))
def test_load_split_matches_the_per_video_loop(case, tmp_path):
    rng = np.random.default_rng([SEED, case])
    n_videos = sum(SYNTH[k] for k in ("n_normal_train", "n_abnormal_train",
                                      "n_normal_test", "n_abnormal_test"))
    victims = rng.choice(n_videos, size=int(rng.integers(0, 4)), replace=False)
    faults = [(DATASET_FAULTS[int(rng.integers(len(DATASET_FAULTS)))], int(v)) for v in victims]
    root = broken_dataset(tmp_path / "d", rng, faults)
    for split in ("train", "test"):
        assert_same_split(root, split)


def test_several_faults_name_the_first_video(tmp_path):
    """NaN in test video 3 and a short header in test video 7: video 3's file
    is named, whichever fault the later video has."""
    rng = np.random.default_rng(SEED)
    first_test = SYNTH["n_normal_train"] + SYNTH["n_abnormal_train"]
    for early, late in (("nan", "short_header"), ("short_header", "nan"),
                        ("label_byte", "no_features"), ("few_frames", "label_byte")):
        root = broken_dataset(tmp_path / f"{early}-{late}", rng,
                              [(early, first_test + 3), (late, first_test + 7)])
        kind, message = assert_same_split(root, "test")
        assert kind is not None and "-003" in message


def test_a_valid_split_loads_as_before(tmp_path):
    root = broken_dataset(tmp_path / "d", np.random.default_rng(SEED), [])
    for split in ("train", "test"):
        assert assert_same_split(root, split)[0] == "ok"


@pytest.mark.parametrize("case", range(20))
def test_a_features_only_load_ignores_every_label_fault(case, tmp_path):
    """Without frame labels a split loads as the per-video loop loads it
    once the manifest names no label file."""
    rng = np.random.default_rng([SEED, 100 + case])
    victims = 6 + rng.choice(10, size=int(rng.integers(1, 4)), replace=False)
    faults = [(DATASET_FAULTS[int(rng.integers(len(DATASET_FAULTS)))], int(v)) for v in victims]
    root = broken_dataset(tmp_path / "d", rng, faults)
    got = outcome(load_split, root, "test", frame_labels=False)

    def drop_labels(manifest):
        for video in manifest["videos"]:
            video["frame_label_file"] = None
    _edit_manifest(root, drop_labels)
    expected = outcome(load_split_per_video, root, "test")
    if expected[0] == "ok" and got[0] == "ok":
        for g, e in zip(got[1], expected[1]):
            assert g.frame_labels is None and g.record.frame_label_file is not None
            g.record.frame_label_file = None
        assert_same_videos(got[1], expected[1])
    else:
        assert got == expected


def test_unnormalised_paths_are_named_as_pathlib_names_them(tmp_path, monkeypatch):
    """Names that pathlib normalises load as ``root / name`` loads them, and
    an error names the file as ``root / name`` does."""
    root = broken_dataset(tmp_path / "d", np.random.default_rng(SEED), [])
    spellings = ("./features/{}", "features/./{}", "features//{}", "features/{}x")   # last: missing

    def respell(manifest):
        for video, spelling in zip(manifest["videos"][6:], spellings):
            video["feature_file"] = spelling.format(f"{video['id']}.wvfd")
    _edit_manifest(root, respell)
    monkeypatch.chdir(root)
    for spelling in (root, f"{root}/", f"{root}/.", ".", "./", "../d"):
        assert "x: no such file" in assert_same_split(spelling, "test")[1]


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


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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


@pytest.mark.parametrize("chunk", [3, cli.SCORES_CSV_CHUNK])
@pytest.mark.parametrize("case", range(200))
def test_score_csv_reader_matches_the_row_loop(case, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SCORES_CSV_CHUNK", chunk)
    rng = np.random.default_rng([SEED, 1, case])
    header, rows = score_rows(rng)
    for fault in sorted(rng.integers(len(CSV_FAULTS), size=int(rng.integers(0, 4)))):
        if rows:
            csv_fault(CSV_FAULTS[fault], header, rows, rng)
    assert_same_scores(write_csv(tmp_path / "scores.csv", header, rows))


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
    data = broken_dataset(tmp_path / "d", np.random.default_rng(SEED), [])
    score = ["export-scores", "--checkpoint", str(checkpoint), "--data", str(data)]
    assert cli.main([*score, "--out", str(tmp_path / "intact")]) == 0
    shutil.rmtree(data / "labels")
    assert cli.main([*score, "--out", str(tmp_path / "no_labels")]) == 0
    assert ((tmp_path / "no_labels" / "scores.csv").read_bytes()
            == (tmp_path / "intact" / "scores.csv").read_bytes())
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 3
    assert "labels/" in capsys.readouterr().err


def test_each_file_is_opened_once(checkpoint, tmp_path):
    data = broken_dataset(tmp_path / "d", np.random.default_rng(SEED), [])
    n = SYNTH["n_normal_test"] + SYNTH["n_abnormal_test"]
    assert opened_under(data, lambda: load_split(data, "test")) == 1 + 2 * n
    assert opened_under(data, lambda: load_split(data, "test", frame_labels=False)) == 1 + n
    for command, expected in (("eval", 1 + 2 * n), ("export-scores", 1 + n)):
        argv = [command, "--checkpoint", str(checkpoint), "--data", str(data),
                "--out", str(tmp_path / command)]
        assert opened_under(data, lambda: cli.main(argv)) == expected
