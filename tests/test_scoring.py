"""Split scoring: fixed-chunk forwards and the column-built CSVs.

``wvad eval`` and ``wvad export-scores`` score a whole split in chunks of
``cli.SCORE_CHUNK`` videos and write their CSVs from columns. The oracle
here is the per-video path they replaced: one untaped ``forward`` per
video, then one ``csv.writer`` row and one ``repr`` per frame or snippet.
The files must match it byte for byte, including a video id that csv has
to quote, videos of different frame counts and labels that change inside a
snippet; the printed AUC/AP must be the per-metric sorts' values.
"""

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from wvad import cli
from wvad.encoder import EncoderConfig, LinearModel, TransformerModel, save_checkpoint
from wvad.errors import FormatError
from wvad.metrics import snippet_to_frame_scores
from wvad.mining import MiningConfig, mine_batch
from wvad.synthdata import LABELS_NAME, LoadedVideo, SynthConfig, VideoRecord, generate_dataset, \
    load_split
from wvad.tensor import no_grad

CHUNK = cli.SCORE_CHUNK
SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
QUOTED_ID = 'a,"b"'

SYNTH = dict(n_normal_train=0, n_abnormal_train=0, n_normal_test=3,
             n_abnormal_test=3, num_snippets=8, frames_per_snippet=5, d_in=6, seed=11)
ENCODER = dict(num_snippets=8, d_in=6, d_model=8, heads=2, depth=1)


def make_models():
    return {"transformer": TransformerModel.init(EncoderConfig(), seed=3),
            "linear": LinearModel.init(EncoderConfig().d_in, seed=3)}


def random_videos(n: int, seed: int = 0) -> list[LoadedVideo]:
    config = EncoderConfig()
    rng = np.random.default_rng(seed)
    return [LoadedVideo(
        record=VideoRecord(id=f"v{i}", split="test", video_label=i % 2,
                           num_frames=config.num_snippets,
                           num_snippets=config.num_snippets),
        features=rng.normal(size=(config.num_snippets, config.d_in)).astype(np.float32),
        frame_labels=None) for i in range(n)]


# ---------------------------------------------------------------------
# the per-video oracle


def per_video_scores(model, videos) -> list[np.ndarray]:
    out = []
    for v in videos:
        with no_grad():
            out.append(model.forward(v.features).scores.data)
    return out


def oracle_frame_scores_csv(model, videos) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.FRAME_COLUMNS)
    for v, scores in zip(videos, per_video_scores(model, videos)):
        frames = snippet_to_frame_scores(scores.astype(np.float64), v.record.num_frames)
        for f in range(v.record.num_frames):
            writer.writerow([v.record.id, f, repr(float(frames[f])), int(v.frame_labels[f])])
    return buf.getvalue()


def oracle_scores_csv(model, videos) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.SCORE_COLUMNS)
    for v, scores in zip(videos, per_video_scores(model, videos)):
        for t, s in enumerate(scores):
            writer.writerow([v.record.id, t, repr(float(s)), v.record.video_label])
    return buf.getvalue()


def oracle_mined_csv(model, videos) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["set", "video_id", "t"])
    triples = [(v.record.id, v.record.video_label, s.astype(np.float64))
               for v, s in zip(videos, per_video_scores(model, videos))]
    mined = mine_batch(triples, MiningConfig())
    for name, group in (("HA", mined.hard_abnormal), ("EA", mined.easy_abnormal),
                        ("HN", mined.hard_normal), ("EN", mined.easy_normal)):
        for vid, t in group:
            writer.writerow([name, vid, t])
    return buf.getvalue()


# ---------------------------------------------------------------------
# score_videos


@pytest.mark.parametrize("kind", ["transformer", "linear"])
@pytest.mark.parametrize("n", SIZES)
def test_score_videos_equals_per_video_forward(kind, n):
    model = make_models()[kind]
    videos = random_videos(n, seed=n)
    got = cli.score_videos(model, videos)
    assert got.shape == (n, EncoderConfig().num_snippets)
    assert got.dtype == np.float32
    for row, want in zip(got, per_video_scores(model, videos)):
        assert row.tobytes() == want.tobytes()


# ---------------------------------------------------------------------
# byte-identical CSVs through the CLI


@pytest.fixture(scope="module")
def quoted_dataset(tmp_path_factory):
    """A tiny test split in which one video id must be csv-quoted."""
    root = tmp_path_factory.mktemp("quoted")
    generate_dataset(SynthConfig(**SYNTH), root)
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["videos"][-1]["id"] = QUOTED_ID
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return root


@pytest.mark.parametrize("kind", ["transformer", "linear"])
def test_csvs_match_the_per_row_oracle(kind, quoted_dataset, tmp_path, capsys):
    model = (TransformerModel.init(EncoderConfig(**ENCODER), seed=5) if kind == "transformer"
             else LinearModel.init(ENCODER["d_in"], seed=5))
    ckpt = tmp_path / "model.wvck"
    save_checkpoint(ckpt, model)
    videos = load_split(quoted_dataset, "test")
    assert videos[-1].record.id == QUOTED_ID
    common = ["--checkpoint", str(ckpt), "--data", str(quoted_dataset)]
    assert cli.main(["eval", *common, "--out", str(tmp_path / "eval")]) == 0
    assert cli.main(["export-scores", *common, "--out", str(tmp_path / "scores")]) == 0
    scores_csv = tmp_path / "scores" / "scores.csv"
    assert cli.main(["mine", "--scores", str(scores_csv), "--out", str(tmp_path / "mined")]) == 0

    def read(name):
        return (tmp_path / name).read_bytes()

    assert read("eval/frame_scores.csv") == oracle_frame_scores_csv(model, videos).encode()
    assert read("scores/scores.csv") == oracle_scores_csv(model, videos).encode()
    assert read("mined/mined.csv") == oracle_mined_csv(model, videos).encode()
    assert b'"a,""b"""' in read("scores/scores.csv")


@pytest.fixture(scope="module")
def ragged_dataset(tmp_path_factory):
    """A test split whose videos differ in frame count (37 frames for 8
    snippets does not divide), whose frame labels change inside a snippet,
    and with one id that csv has to quote."""
    root = tmp_path_factory.mktemp("ragged")
    generate_dataset(SynthConfig(**SYNTH), root)
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    rng = np.random.default_rng(21)
    labels = []
    for video, frames in zip(manifest["videos"], [37, 8, 64, 40, 37, 13]):
        video["num_frames"] = frames
        labels.append((rng.random(frames) < 0.4).astype(np.uint8))
    (root / LABELS_NAME).write_bytes(np.concatenate(labels).tobytes())
    manifest["videos"][-1]["id"] = QUOTED_ID
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return root


def test_eval_of_a_ragged_split_matches_the_per_row_oracle(ragged_dataset, tmp_path, capsys):
    model = TransformerModel.init(EncoderConfig(**ENCODER), seed=6)
    ckpt = tmp_path / "model.wvck"
    save_checkpoint(ckpt, model)
    videos = load_split(ragged_dataset, "test")
    assert len({v.record.num_frames for v in videos}) == 5
    snippet = snippet_to_frame_scores(np.arange(8), 37)
    changes = np.diff(videos[0].frame_labels.astype(int)) != 0
    assert np.any(changes & (np.diff(snippet) == 0))   # a label flips inside a snippet
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(ragged_dataset),
                     "--out", str(tmp_path / "eval")]) == 0
    want = oracle_frame_scores_csv(model, videos)
    assert (tmp_path / "eval" / "frame_scores.csv").read_bytes() == want.encode()
    rows = list(csv.reader(io.StringIO(want)))[1:]
    scores = np.array([float(r[2]) for r in rows])
    labels = np.array([int(r[3]) for r in rows], dtype=np.uint8)
    auc, ap = oracles.roc_auc(scores, labels), oracles.average_precision(scores, labels)
    assert capsys.readouterr().out == f"AUC={auc:.6f} AP={ap:.6f}\n"
    assert cli.evaluate_model(model, videos)[:2] == (auc, ap)
    # the same split loaded without its frame labels cannot be evaluated
    with pytest.raises(FormatError, match=r"^video [^ ]+ has no frame labels; evaluation "
                                          r"needs the test split$"):
        cli.evaluate_model(model, load_split(ragged_dataset, "test", frame_labels=False))


# ---------------------------------------------------------------------
# deterministic gate: one forward per chunk, not per video


def test_eval_runs_one_forward_per_chunk(tmp_path, monkeypatch, capsys):
    n = 2 * CHUNK + 3
    data = tmp_path / "data"
    generate_dataset(SynthConfig(**(SYNTH | dict(n_normal_test=n // 2,
                                                 n_abnormal_test=n - n // 2))), data)
    ckpt = tmp_path / "model.wvck"
    save_checkpoint(ckpt, TransformerModel.init(EncoderConfig(**ENCODER), seed=1))
    calls = []
    forward = TransformerModel.forward

    def counted(self, features):
        calls.append(np.shape(features))
        return forward(self, features)

    monkeypatch.setattr(TransformerModel, "forward", counted)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    assert len(calls) == math.ceil(n / CHUNK)
    assert sum(shape[0] for shape in calls) == n


# ---------------------------------------------------------------------
# deterministic gates: eval builds no per-frame array


def test_eval_hands_the_metrics_at_most_two_entries_per_snippet(ragged_dataset, monkeypatch):
    """Each snippet enters the metrics as its positive and its negative
    frames, weighted by their counts, whatever the videos' frame counts."""
    model = TransformerModel.init(EncoderConfig(**ENCODER), seed=6)
    videos = load_split(ragged_dataset, "test")
    records = []
    evaluate = cli.evaluate
    monkeypatch.setattr(cli, "evaluate", lambda record: records.append(record) or evaluate(record))
    cli.evaluate_model(model, videos)
    (record,) = records
    assert record.frame_scores.size <= 2 * len(videos) * ENCODER["num_snippets"]
    assert record.frame_counts.sum() == sum(v.record.num_frames for v in videos)
    assert record.frame_counts @ record.frame_labels == sum(int(v.frame_labels.sum())
                                                            for v in videos)


def test_eval_of_600_videos_peaks_within_1_mb_of_the_forward(tmp_path):
    """The metrics add nothing to the forward's peak: at 600 videos of 512
    frames the per-frame arrays took it from 4.7 to 11.1 MB."""
    generate_dataset(SynthConfig(seed=1007, n_normal_train=0, n_abnormal_train=0,
                                 n_normal_test=300, n_abnormal_test=300), tmp_path)
    videos = load_split(tmp_path, "test")
    model = TransformerModel.init(EncoderConfig(), seed=0)
    cli.evaluate_model(model, videos)   # first-call allocations stay out of the peaks
    peaks = []
    for run in (cli.score_videos, cli.evaluate_model):
        tracemalloc.start()
        try:
            run(model, videos)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1e6, f"peaks {peaks[0] / 1e6:.2f}, {peaks[1] / 1e6:.2f} MB"
