"""Command-line entry point tying the modules into reproducible runs.

Subcommands: synth, train, eval, mine, gradcheck, ablate, export-scores.
Every run writes a ``run.json`` echoing the fully resolved configuration
into its output directory. Exit codes: 0 ok, 2 config/usage error,
3 I/O or file-format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import operator
import sys
from pathlib import Path

import numpy as np

from . import verification
from .encoder import EncoderConfig, load_checkpoint
from .errors import ConfigError, FormatError, MetricError, TrainingError
from .losses import LossConfig
from .metrics import EvalRecord, evaluate, snippet_to_frame_scores
from .mining import MiningConfig, mine_batch
from .schema import from_json
from .synthdata import Manifest, SynthConfig, generate_dataset, load_manifest, load_split
from .tensor import no_grad
from .trainer import TrainConfig, keep_freed_heap, train

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

# score-CSV rows turned into columns at a time: only one chunk's row lists
# and field strings are held, the rest as ints and float64 values
SCORES_CSV_CHUNK = 512


@dataclasses.dataclass
class ResolvedConfig:
    synth: SynthConfig
    train: TrainConfig
    ablate_seeds: list[int]

    def as_dict(self) -> dict:
        return {
            "synth": dataclasses.asdict(self.synth),
            "train": dataclasses.asdict(self.train),
            "ablate": {"seeds": list(self.ablate_seeds)},
        }


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


def _check_dataset_compat(manifest: Manifest, config: ResolvedConfig):
    ds = manifest.config
    t, d = (ds.num_snippets, ds.d_in) if ds is not None else (None, None)
    enc = config.train.encoder
    if (t, d) != (enc.num_snippets, enc.d_in):
        raise ConfigError(f"dataset is T={t}, D={d} but the encoder expects "
                          f"T={enc.num_snippets}, D={enc.d_in}; fix the config")


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
    videos' (N, T) snippet scores."""
    for v in videos:
        if v.frame_labels is None:
            raise FormatError(f"video {v.record.id} has no frame labels; "
                              "evaluation needs the test split")
    scores = score_videos(model, videos)
    maps = _frame_maps(videos, scores.shape[1])
    record = EvalRecord(
        frame_scores=np.concatenate([row[maps[v.record.num_frames]]
                                     for v, row in zip(videos, scores)]),
        frame_labels=np.concatenate([v.frame_labels for v in videos]))
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
    _check_dataset_compat(manifest, config)
    triples = _train_triples(args.data, manifest)
    out = Path(args.out)
    _write_run_record(out, "train", config, data=str(args.data),
                      resume=str(args.resume) if args.resume else None)
    result = train(triples, config.train, out_dir=out, resume=args.resume)
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
    out = Path(args.out)
    _write_run_record(out, "export-scores", None,
                      checkpoint=str(args.checkpoint), data=str(args.data),
                      split=args.split)
    _write_csv(out / "scores.csv", SCORE_COLUMNS,
               _score_lines(videos, score_videos(model, videos)))
    print(f"wrote {out / 'scores.csv'}")
    return 0


def _score_chunk(chunk, fields, width):
    """A chunk of score-CSV rows as columns: the ids, and the t, score and
    label values up to the chunk's first field that does not convert, with
    the raw score texts and that field's error."""
    columns = list(zip(*chunk))
    if len(columns) < width:   # a short row: its missing fields read as None
        columns = list(zip(*(row + [None] * (width - len(row)) for row in chunk)))
    vids, t_texts, score_texts, label_texts = fields(columns)
    m, misfit, converted = len(chunk), None, []
    for convert, texts in ((int, t_texts), (float, score_texts), (int, label_texts)):
        values = []
        try:
            values.extend(map(convert, texts))   # keeps the values before a misfit
        except (TypeError, ValueError) as e:
            if len(values) < m:
                m, misfit = len(values), f"malformed row: {e}"
        converted.append(values)
    ts, scores, labels = (values[:m] for values in converted)
    return vids[:m], ts, np.array(scores, dtype=np.float64), labels, score_texts, misfit


def _read_scores_csv(path) -> list[tuple[str, int, np.ndarray]]:
    """A score CSV's videos in order of first appearance: id, label and the
    scores in snippet order.

    Rows are converted to columns SCORES_CSV_CHUNK at a time, up to the
    first field that does not convert, and each check then runs once over
    its columns, on the rows before the first row an earlier check failed.
    So a malformed file reports its first malformed row (rows that are not
    blank are numbered from 2), and that row's first failure in this order:
    t, score and label convert, the score is finite, the id and label are
    valid, the label is the video's first, (video, t) is new. A row that
    csv cannot read at all ends the reading and fails after the rows before
    it. Then each video's snippet indices must be 0..T-1.
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
    fields = operator.itemgetter(*(column[name] for name in SCORE_COLUMNS))
    rows = filter(None, reader)
    run_ids, run_lengths, ts, labels, scores = [], [], [], [], []
    n, error, non_finite, unreadable = 0, None, None, None
    while error is None and unreadable is None:
        chunk = []
        try:
            chunk.extend(itertools.islice(rows, SCORES_CSV_CHUNK))   # keeps the rows read
        except csv.Error as e:
            unreadable = e
        if not chunk:
            break
        vids, t_values, score_values, label_values, score_texts, error = \
            _score_chunk(chunk, fields, len(header))
        finite = np.isfinite(score_values)
        if non_finite is None and not finite.all():
            k = int(np.argmin(finite))
            non_finite = (n + k, f"non-finite score {score_texts[k]!r}")
        if vids:   # ids by runs of equal ids
            changes = np.fromiter(map(operator.ne, vids, vids[1:]), bool, len(vids) - 1)
            starts = [0, *(np.flatnonzero(changes) + 1).tolist()]
            run_ids += [vids[i] for i in starts]
            run_lengths += np.diff(starts, append=len(vids)).tolist()
        ts += t_values
        labels += label_values
        scores.append(score_values)
        n += len(vids)
    bad = n   # the first failing row so far: a misfit's, or past the last
    if non_finite is not None:
        bad, error = non_finite
    code_of = {}   # the videos in order of first appearance
    run_codes = [code_of.setdefault(vid, len(code_of)) for vid in run_ids]
    codes = np.repeat(np.array(run_codes, dtype=np.intp), run_lengths)
    valid = codes[:bad] != code_of.get(None, -1)
    if not set(labels[:bad]) <= {0, 1}:
        valid &= np.fromiter(map((0, 1).__contains__, labels[:bad]), bool, bad)
    if not valid.all():
        bad, error = int(np.argmin(valid)), "bad video id or label"
    first_rows = np.cumsum([0] + run_lengths)[np.unique(run_codes, return_index=True)[1]]
    label_of = np.array(labels[:bad], dtype=np.int8)
    conflict = label_of != label_of[first_rows[codes[:bad]]]
    if conflict.any():
        bad = int(np.argmax(conflict))
        error = f"conflicting labels for video {list(code_of)[codes[bad]]}"
    # t's distinct values coded, so that any int compares exactly
    t_index = dict(zip(dict.fromkeys(ts), itertools.count()))
    t_codes = np.fromiter(map(t_index.__getitem__, ts), np.intp, len(ts))
    first_seen = np.unique(codes[:bad] * len(t_index) + t_codes[:bad], return_index=True)[1]
    repeated = np.ones(bad, dtype=bool)
    repeated[first_seen] = False
    if repeated.any():
        bad = int(np.argmax(repeated))
        error = f"duplicate snippet index {ts[bad]} for {list(code_of)[codes[bad]]}"
    if error is not None:
        raise ConfigError(f"{path}:{bad + 2}: {error}")
    if unreadable is not None:   # a row csv cannot read, such as an over-long field
        raise ConfigError(f"{path}:{n + 2}: unreadable row: {unreadable}") from unreadable
    if not n:
        return []
    # with no index repeated, 0..T-1 is every index in range; clipped to fit int64
    t = np.fromiter(map(max, map(min, t_index, itertools.repeat(n)), itertools.repeat(-1)),
                    np.intp, len(t_index))[t_codes]
    counts = np.bincount(codes)
    stray = (t < 0) | (t >= counts[codes])
    if stray.any():
        raise ConfigError(f"{path}: video {list(code_of)[codes[stray].min()]} "
                          "snippet indices are not 0..T-1")
    ends = np.cumsum(counts)
    ordered = np.empty(n, dtype=np.float64)
    ordered[ends[codes] - counts[codes] + t] = np.concatenate(scores)
    return list(zip(code_of, label_of[first_rows].tolist(), np.split(ordered, ends[:-1])))


def cmd_mine(args) -> int:
    config = load_config(args.config, args.seed)
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
    config = load_config(args.config, args.seed)
    manifest = load_manifest(args.data)
    _check_dataset_compat(manifest, config)
    triples = _train_triples(args.data, manifest)
    test_videos = _load_test_split(args.data, manifest)
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

    def common(p, out_required=True):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", required=out_required, default=None,
                       help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p, out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-scores", help="write per-snippet scores as CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_export_scores)

    p = sub.add_parser("mine", help="mine hard/easy snippet sets from a score CSV")
    common(p)
    p.add_argument("--scores", required=True, help="input score CSV")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("gradcheck", help="run the gradient verification suite")
    common(p, out_required=False)
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and score the four loss ablations")
    common(p)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_ablate)

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
