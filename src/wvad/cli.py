"""Command-line entry point tying the modules into reproducible runs.

Subcommands: synth, train, eval, mine, gradcheck, ablate, export-scores.
Each takes ``--out`` and only the flags it reads: ``--config`` for synth,
train, mine and ablate, ``--seed`` for synth and train. Every run writes a
``run.json`` echoing the fully resolved configuration into its output
directory. Exit codes: 0 ok, 2 config/usage error, 3 I/O or file-format
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import verification
from .encoder import EncoderConfig, load_checkpoint
from .errors import ConfigError, FormatError, MetricError, TrainingError
from .losses import LossConfig, length_error as loss_length_error
from .metrics import EvalRecord, evaluate, snippet_to_frame_scores
from .mining import MiningConfig, length_error as mining_length_error, mine_batch
from .schema import from_json
from .synthdata import Manifest, SynthConfig, generate_dataset, load_manifest, load_split
from .tensor import no_grad
from .trainer import BalancedSampler, TrainConfig, keep_freed_heap, load_resume, train

# loss-term weights (w_contrast, w_snippet, w_video, w_reg) and model per
# ablation row: (a) ranking only on raw features, (b) + encoder,
# (c) + video head, (d) + contrastive mining = the full model
ABLATION_PRESETS = {
    "a": ("linear", dict(w_contrast=0.0, w_snippet=1.0, w_video=0.0, w_reg=1.0)),
    "b": ("transformer", dict(w_contrast=0.0, w_snippet=1.0, w_video=0.0, w_reg=1.0)),
    "c": ("transformer", dict(w_contrast=0.0, w_snippet=1.0, w_video=1.0, w_reg=1.0)),
    "d": ("transformer", dict(w_contrast=1.0, w_snippet=1.0, w_video=1.0, w_reg=1.0)),
}

SCORE_COLUMNS = ("video_id", "t", "score", "video_label")
FRAME_COLUMNS = ("video_id", "frame", "score", "label")

# videos per untaped forward when a split is scored: enough to spread each
# op's Python cost over many videos, few enough that a chunk's activations stay
# in cache (600 videos: 135 ms at 32, 169 ms at 64) and memory does not grow
# with the split
SCORE_CHUNK = 32


@dataclasses.dataclass
class ResolvedConfig:
    synth: SynthConfig
    train: TrainConfig
    ablate_seeds: list[int]

    def as_dict(self) -> dict:
        """The config file's sections, so that ``load_config`` reads it back."""
        train = dataclasses.asdict(self.train)
        sections = {key: train.pop(key) for key in ("encoder", "loss", "mining")}
        return {"synth": dataclasses.asdict(self.synth), "train": train, **sections,
                "ablate": {"seeds": list(self.ablate_seeds)}}


@dataclasses.dataclass
class AblateConfig:
    seeds: list[int] = dataclasses.field(default_factory=lambda: [0, 1, 2])

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list of integers")


@dataclasses.dataclass
class _ConfigFile:
    """The config file's sections; encoder, loss and mining go into train."""

    synth: SynthConfig = dataclasses.field(default_factory=SynthConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    encoder: EncoderConfig = dataclasses.field(default_factory=EncoderConfig)
    loss: LossConfig = dataclasses.field(default_factory=LossConfig)
    mining: MiningConfig = dataclasses.field(default_factory=MiningConfig)
    ablate: AblateConfig = dataclasses.field(default_factory=AblateConfig)


def load_config(path=None, seed_override=None) -> ResolvedConfig:
    """Parse the single JSON config schema; unknown keys anywhere are errors."""
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: config is not UTF-8: byte 0x{e.object[e.start]:02x} "
                              f"at offset {e.start}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: config is not valid JSON: {e}") from e
    train_section = data.get("train") if isinstance(data, dict) else None
    for key in ("encoder", "loss", "mining"):
        if isinstance(train_section, dict) and key in train_section:
            raise ConfigError(f"put {key!r} at the top level, not inside 'train'")
    sections = from_json(_ConfigFile, data, str(path), ConfigError)
    synth = sections.synth
    train_cfg = dataclasses.replace(sections.train, encoder=sections.encoder,
                                    loss=sections.loss, mining=sections.mining)
    if seed_override is not None:
        synth = dataclasses.replace(synth, seed=seed_override)
        train_cfg = dataclasses.replace(train_cfg, seed=seed_override)
    return ResolvedConfig(synth=synth, train=train_cfg, ablate_seeds=sections.ablate.seeds)


def _write_run_record(out_dir: Path, command: str, config: ResolvedConfig | None,
                      **extra):
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"command": command}
    if config is not None:
        record["config"] = config.as_dict()
    record.update(extra)
    (out_dir / "run.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check_dataset_compat(manifest: Manifest, config: ResolvedConfig, splits: tuple,
                          runs: list[TrainConfig]):
    """Refuse a video of ``splits`` whose snippet count is not the encoder's,
    and a train split that one of ``runs`` cannot train on: too few videos of
    a class for a batch, or a video too short for a loss term or for mining."""
    enc = config.train.encoder
    for v in manifest.videos:
        if v.split in splits and v.num_snippets != enc.num_snippets:
            raise ConfigError(f"video {v.id} has {v.num_snippets} snippets but the "
                              f"encoder expects T={enc.num_snippets}")
    train_videos = [v for v in manifest.videos if v.split == "train"]
    for run in runs:
        BalancedSampler([v.video_label for v in train_videos],
                        run.batch_normal, run.batch_abnormal)
        for v in train_videos:
            error = loss_length_error(v.id, v.num_snippets, run.loss)
            if error is not None:
                raise ConfigError(f"the loss config does not fit the dataset: {error}")
            if run.loss.w_contrast > 0:
                error = mining_length_error(v.id, v.num_snippets, v.video_label == 1,
                                            run.mining)
                if error is not None:
                    raise ConfigError(f"the mining config does not fit the dataset: {error}")


def _check_width(data_dir, split: str, features: list[np.ndarray], config: ResolvedConfig):
    """Refuse a loaded split whose feature rows are not the encoder's D wide."""
    d_in = config.train.encoder.d_in
    if features and features[0].shape[1] != d_in:
        raise ConfigError(f"{Path(data_dir) / f'{split}.wvfd'}: features are "
                          f"{features[0].shape[1]} wide but the encoder expects D={d_in}")


def _check_both_classes(data_dir, videos):
    """Refuse a loaded test split whose frame labels are all one class, which
    AUC cannot score."""
    n_pos = sum(int(np.count_nonzero(v.frame_labels)) for v in videos)
    n_neg = sum(v.frame_labels.size for v in videos) - n_pos
    if not (n_pos and n_neg):
        raise MetricError(f"{data_dir}: the test split's frame labels are all one class "
                          f"({n_pos} pos / {n_neg} neg), and AUC needs both")


def _train_triples(data_dir,
                   manifest: Manifest | None = None) -> list[tuple[str, int, np.ndarray]]:
    videos = load_split(data_dir, "train", manifest=manifest)
    return [(v.record.id, v.record.video_label, v.features) for v in videos]


def _load_test_split(data_dir, manifest: Manifest | None = None) -> list:
    videos = load_split(data_dir, "test", manifest=manifest)
    if not videos:
        raise FormatError(f"{data_dir}: the test split has no videos to evaluate")
    return videos


def score_videos(model, videos) -> np.ndarray:
    """(N, T) float32 snippet scores of loaded videos, without the tape.

    The features are stacked once and scored SCORE_CHUNK videos per
    forward; each row is bitwise the video's own single forward.
    """
    if not videos:
        return np.empty((0, 0), dtype=np.float32)
    try:
        features = np.stack([v.features for v in videos])
    except ValueError:
        shapes = sorted({v.features.shape for v in videos})
        raise FormatError(f"videos of one split must share a feature shape, "
                          f"got {shapes}") from None
    with no_grad():
        return np.concatenate([model.forward(features[i:i + SCORE_CHUNK]).scores.data
                               for i in range(0, len(features), SCORE_CHUNK)])


def _frame_maps(videos, t: int) -> dict[int, np.ndarray]:
    """Each frame's snippet index, once per distinct frame count."""
    return {n: snippet_to_frame_scores(np.arange(t), n)
            for n in {v.record.num_frames for v in videos}}


def evaluate_model(model, videos) -> tuple[float, float, np.ndarray]:
    """Frame-level AUC/AP of a model over loaded test videos, and the
    videos' (N, T) snippet scores.

    Every frame takes its snippet's score, so each snippet enters the
    metrics as at most two weighted entries, its positive and its negative
    frames, and no per-frame array is built.
    """
    for v in videos:
        if v.frame_labels is None:
            raise FormatError(f"video {v.record.id} has no frame labels; "
                              "evaluation needs the test split")
    scores = score_videos(model, videos)
    t = scores.shape[1]
    rows, positives, frames = [], [], []
    for n, frame_map in _frame_maps(videos, t).items():
        starts = np.searchsorted(frame_map, np.arange(t))   # each snippet's first frame
        picked = [i for i, v in enumerate(videos) if v.record.num_frames == n]
        labels = np.stack([videos[i].frame_labels for i in picked])
        rows.append(scores[picked])
        positives.append(np.add.reduceat(labels, starts, axis=1, dtype=np.int64))
        frames.append(np.broadcast_to(np.diff(starts, append=n), (len(picked), t)))
    snippet_scores = np.concatenate(rows).ravel()
    pos = np.concatenate(positives).ravel()
    counts = np.concatenate([pos, np.concatenate(frames).ravel() - pos])
    keep = counts > 0
    record = EvalRecord(
        frame_scores=np.concatenate([snippet_scores, snippet_scores])[keep],
        frame_labels=np.repeat(np.array([1, 0], dtype=np.uint8), pos.size)[keep],
        frame_counts=counts[keep])
    auc, ap = evaluate(record)
    return auc, ap, scores


def _csv_field(value) -> str:
    """``value`` as csv.writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _write_csv(path, columns, chunks):
    """Write a header row and then the preformatted text chunks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(chunks)


def _frame_lines(videos, scores):
    """frame_scores.csv text per video. The part of a line after the frame
    index is one of 2T strings: its snippet's score repr and a 0/1 label."""
    maps = _frame_maps(videos, scores.shape[1])
    heads = {n: np.array([f"{f}," for f in range(n)], dtype=object) for n in maps}
    for v, row in zip(videos, scores.tolist()):
        n = v.record.num_frames
        tails = np.array([f"{s},{label}\n" for s in map(repr, row) for label in (0, 1)],
                         dtype=object)
        lines = heads[n] + tails[2 * maps[n] + v.frame_labels]
        prefix = _csv_field(v.record.id) + ","
        yield prefix + prefix.join(lines.tolist())


def _score_lines(videos, scores):
    """scores.csv text per video."""
    for v, row in zip(videos, scores.tolist()):
        prefix, label = _csv_field(v.record.id), _csv_field(v.record.video_label)
        yield "".join(f"{prefix},{t},{s!r},{label}\n" for t, s in enumerate(row))


def ablation_train_config(base: TrainConfig, preset: str, seed: int) -> TrainConfig:
    model, weights = ABLATION_PRESETS[preset]
    loss = dataclasses.replace(base.loss, **weights)
    return dataclasses.replace(base, model=model, loss=loss, seed=seed)


# ---------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    config = load_config(args.config, args.seed)
    out = Path(args.out)
    generate_dataset(config.synth, out)
    _write_run_record(out, "synth", config)
    print(f"dataset written to {out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.seed)
    manifest = load_manifest(args.data)
    _check_dataset_compat(manifest, config, ("train",), [config.train])
    triples = _train_triples(args.data, manifest)
    _check_width(args.data, "train", [f for _, _, f in triples], config)
    resume = load_resume(args.resume, config.train) if args.resume else None
    out = Path(args.out)
    _write_run_record(out, "train", config, data=str(args.data),
                      resume=str(args.resume) if args.resume else None)
    result = train(triples, config.train, out_dir=out, resume=resume)
    print(f"trained {result.steps} steps; checkpoint at {result.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    videos = _load_test_split(args.data)
    auc, ap, scores = evaluate_model(model, videos)
    if args.out is not None:
        out = Path(args.out)
        _write_run_record(out, "eval", None,
                          checkpoint=str(args.checkpoint), data=str(args.data))
        _write_csv(out / "frame_scores.csv", FRAME_COLUMNS, _frame_lines(videos, scores))
    print(f"AUC={auc:.6f} AP={ap:.6f}")
    return 0


def cmd_export_scores(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    videos = load_split(args.data, args.split, frame_labels=False)
    scores = score_videos(model, videos)
    out = Path(args.out)
    _write_run_record(out, "export-scores", None,
                      checkpoint=str(args.checkpoint), data=str(args.data),
                      split=args.split)
    _write_csv(out / "scores.csv", SCORE_COLUMNS, _score_lines(videos, scores))
    print(f"wrote {out / 'scores.csv'}")
    return 0


def _read_scores_csv(path) -> list[tuple[str, int, np.ndarray]]:
    """A score CSV's videos in order of first appearance: id, label and the
    scores in snippet order.

    Rows that are not blank are numbered from 2 and checked as they are
    read, so the first bad row fails, with its first failure in this order:
    t, score and label convert, the score is finite, the id and label are
    valid, the label is the video's first, (video, t) is new. A row csv
    cannot read fails with the next number. Then each video's snippet
    indices must be 0..T-1.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8: byte 0x{e.object[e.start]:02x} "
                          f"at offset {e.start}") from None
    if not lines:
        return []
    reader = csv.reader(lines)
    header = next(reader)
    if set(header) != set(SCORE_COLUMNS):
        raise ConfigError(f"{path}: expected columns {','.join(SCORE_COLUMNS)}, "
                          f"got {header}")
    # found by name, read as csv.DictReader would: a repeated name reads its
    # last column, and a short row's missing fields read as None (malformed)
    column = {name: i for i, name in enumerate(header)}
    i_vid, i_t, i_score, i_label = (column[name] for name in SCORE_COLUMNS)
    width = len(header)
    videos: dict[str, tuple[int, dict[int, float]]] = {}   # id: label, {t: score}
    i = 1
    try:
        for i, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:
                row += [None] * (width - len(row))
            try:
                t, score, label = int(row[i_t]), float(row[i_score]), int(row[i_label])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{path}:{i}: malformed row: {e}") from e
            if not math.isfinite(score):
                raise ConfigError(f"{path}:{i}: non-finite score {row[i_score]!r}")
            vid = row[i_vid]
            if vid is None or label not in (0, 1):
                raise ConfigError(f"{path}:{i}: bad video id or label")
            first, scores = videos.setdefault(vid, (label, {}))
            if first != label:
                raise ConfigError(f"{path}:{i}: conflicting labels for video {vid}")
            if t in scores:
                raise ConfigError(f"{path}:{i}: duplicate snippet index {t} for {vid}")
            scores[t] = score
    except csv.Error as e:   # a row csv cannot read, such as an over-long field
        raise ConfigError(f"{path}:{i + 1}: unreadable row: {e}") from e
    for vid, (_, scores) in videos.items():
        if scores.keys() != set(range(len(scores))):
            raise ConfigError(f"{path}: video {vid} snippet indices are not 0..T-1")
    return [(vid, label, np.array([scores[t] for t in range(len(scores))], dtype=np.float64))
            for vid, (label, scores) in videos.items()]


def cmd_mine(args) -> int:
    config = load_config(args.config)
    videos = _read_scores_csv(args.scores)
    try:
        mined = mine_batch(videos, config.train.mining) if videos else None
    except ValueError as e:
        raise ConfigError(str(e)) from e
    out = Path(args.out)
    _write_run_record(out, "mine", config, scores=str(args.scores))
    with open(out / "mined.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["set", "video_id", "t"])
        if mined is not None:
            for name, group in (("HA", mined.hard_abnormal), ("EA", mined.easy_abnormal),
                                ("HN", mined.hard_normal), ("EN", mined.easy_normal)):
                for vid, t in group:
                    writer.writerow([name, vid, t])
    print(f"wrote {out / 'mined.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:   # no seed checks nothing, and would print PASS
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    report = verification.run_all(seeds=args.seeds)
    lines = report.summary_lines()
    print("\n".join(lines))
    if args.out is not None:
        out = Path(args.out)
        _write_run_record(out, "gradcheck", None, seeds=args.seeds,
                          passed=report.passed)
        (out / "gradcheck.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not report.passed:
        raise TrainingError("gradient verification failed")
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    manifest = load_manifest(args.data)
    _check_dataset_compat(manifest, config, ("train", "test"),
                          [ablation_train_config(config.train, preset, config.train.seed)
                           for preset in sorted(ABLATION_PRESETS)])
    triples = _train_triples(args.data, manifest)
    test_videos = _load_test_split(args.data, manifest)
    _check_width(args.data, "train", [f for _, _, f in triples], config)
    _check_width(args.data, "test", [v.features for v in test_videos], config)
    _check_both_classes(args.data, test_videos)
    out = Path(args.out)
    _write_run_record(out, "ablate", config, data=str(args.data))
    results = []
    for preset in sorted(ABLATION_PRESETS):
        for seed in config.ablate_seeds:
            run_cfg = ablation_train_config(config.train, preset, seed)
            run_dir = out / f"run_{preset}_seed{seed}"
            result = train(triples, run_cfg, out_dir=run_dir)
            auc, ap, _ = evaluate_model(result.model, test_videos)
            results.append((preset, seed, auc, ap))
            print(f"config {preset} seed {seed}: AUC={auc:.4f} AP={ap:.4f}")
    with open(out / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config", "seed", "auc", "ap"])
        for preset, seed, auc, ap in results:
            writer.writerow([preset, seed, repr(auc), repr(ap)])
    for preset in sorted(ABLATION_PRESETS):
        rows = [(auc, ap) for p, _, auc, ap in results if p == preset]
        mean_auc = sum(a for a, _ in rows) / len(rows)
        mean_ap = sum(p for _, p in rows) / len(rows)
        print(f"config {preset} mean: AUC={mean_auc:.4f} AP={mean_ap:.4f}")
    return 0


# ---------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvad",
        description="Weakly supervised video anomaly detection workflows")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, config=False, seed=False, out_required=True):
        # no prefix matching: gradcheck would read --seed as --seeds
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if config:
            p.add_argument("--config", default=None, help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", required=out_required, default=None,
                       help="output directory")
        p.set_defaults(func=func)
        return p

    command("synth", cmd_synth, "generate a synthetic dataset", config=True, seed=True)

    p = command("train", cmd_train, "train a model", config=True, seed=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = command("eval", cmd_eval, "evaluate a checkpoint on the test split",
                out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = command("export-scores", cmd_export_scores, "write per-snippet scores as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = command("mine", cmd_mine, "mine hard/easy snippet sets from a score CSV",
                config=True)
    p.add_argument("--scores", required=True, help="input score CSV")

    p = command("gradcheck", cmd_gradcheck, "run the gradient verification suite",
                out_required=False)
    p.add_argument("--seeds", type=int, default=10)

    p = command("ablate", cmd_ablate, "train and score the four loss ablations",
                config=True)
    p.add_argument("--data", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    keep_freed_heap()
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except (TrainingError, MetricError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
