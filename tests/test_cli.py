"""CLI tests: config schema, exit codes, run records, and the subcommand
round trips (synth -> train -> eval/export -> mine/ablate/gradcheck)."""

import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from wvad import cli, synthdata, verification
from wvad.cli import ABLATION_PRESETS, load_config
from wvad.encoder import EncoderConfig, save_checkpoint
from wvad.errors import ConfigError
from wvad.mining import MiningConfig, mine_batch
from wvad.synthdata import SynthConfig, generate_dataset, load_manifest, load_split
from wvad.tensor import Tensor, node
from wvad.trainer import TrainConfig, _build_model

TINY_SYNTH = dict(
    n_normal_train=3, n_abnormal_train=3, n_normal_test=2, n_abnormal_test=2,
    num_snippets=8, frames_per_snippet=4, d_in=6, seed=5,
)
TINY_ENCODER = dict(num_snippets=8, d_in=6, d_model=8, heads=2, depth=1)
TINY_TRAIN = dict(epochs=2, batch_normal=2, batch_abnormal=2, seed=0)


def tiny_config_file(tmp_path, **overrides) -> str:
    data = {
        "synth": dict(TINY_SYNTH),
        "encoder": dict(TINY_ENCODER),
        "train": dict(TINY_TRAIN),
        "loss": {"k": 2},
        "mining": {"k_hard_normal": 2, "k_easy": 2},
    }
    for section, value in overrides.items():
        if value is None:
            data.pop(section, None)
        else:
            data.setdefault(section, {}).update(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    generate_dataset(SynthConfig(**TINY_SYNTH), root)
    return root


# ---------------------------------------------------------------------
# config loading


def test_load_config_defaults_without_file():
    resolved = load_config(None)
    assert resolved.synth == SynthConfig()
    assert resolved.train.epochs == TrainConfig().epochs
    assert resolved.ablate_seeds == [0, 1, 2]


def test_load_config_reads_sections(tmp_path):
    resolved = load_config(tiny_config_file(tmp_path))
    assert resolved.synth.d_in == 6
    assert resolved.train.encoder.d_model == 8
    assert resolved.train.loss.k == 2
    assert resolved.train.mining.k_easy == 2


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"optimizer": {"lr": 0.1}}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"c\.json: unknown keys \['optimizer'\]"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"learning_rate": 0.1}}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"train: unknown keys \['learning_rate'\]"):
        load_config(path)


def test_load_config_rejects_nested_encoder(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"encoder": {}}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_validates_ablate_seeds(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ablate": {"seeds": []}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="non-empty list"):
        load_config(path)
    path.write_text(json.dumps({"ablate": {"folds": 3}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="ablate"):
        load_config(path)


def test_seed_override_applies_to_synth_and_train(tmp_path):
    resolved = load_config(tiny_config_file(tmp_path), seed_override=42)
    assert resolved.synth.seed == 42
    assert resolved.train.seed == 42


@pytest.mark.parametrize("command, written", [("synth", "train.wvfd"),
                                              ("train", "checkpoint.wvck")])
def test_the_seed_flag_sets_what_synth_and_train_write(command, written, tmp_path,
                                                       tiny_dataset):
    """``--seed`` at the config's own seed (synth 5, train 0) writes the
    run without the flag; another seed writes other bytes."""
    cfg = tiny_config_file(tmp_path)
    data = [] if command == "synth" else ["--data", str(tiny_dataset)]
    own = TINY_SYNTH["seed"] if command == "synth" else TINY_TRAIN["seed"]
    outputs = {}
    for name, seed in (("none", []), ("own", ["--seed", str(own)]), ("other", ["--seed", "7"])):
        out = tmp_path / name
        assert cli.main([command, "--config", cfg, *data, *seed, "--out", str(out)]) == 0
        outputs[name] = (out / written).read_bytes()
    assert outputs["own"] == outputs["none"]
    assert outputs["other"] != outputs["none"]
    config = json.loads((tmp_path / "other" / "run.json").read_text(encoding="utf-8"))["config"]
    assert config["synth"]["seed"] == config["train"]["seed"] == 7


# each input used to end in a traceback, or exit 0 with a run that was not
# the one asked for: a null seed draws from OS entropy, a string is truthy,
# a float count is used as given
WRONG_TYPE_CONFIGS = {
    "epochs_str": ({"train": {"epochs": "5"}}, "train.epochs"),
    "lr_str": ({"train": {"lr": "0.1"}}, "train.lr"),
    "threshold_str": ({"mining": {"threshold": "0.5"}}, "mining.threshold"),
    "region_short": ({"synth": {"region_len_range": [3]}}, "synth.region_len_range"),
    "region_str": ({"synth": {"region_len_range": "ab"}}, "synth.region_len_range"),
    "train_list": ({"train": [1]}, "train"),
    "seed_null": ({"synth": {"seed": None}}, "synth.seed"),
    "edge_blend_str": ({"synth": {"edge_blend": "no"}}, "synth.edge_blend"),
    "positional_str": ({"encoder": {"use_positional": "false"}}, "encoder.use_positional"),
    "epochs_float": ({"train": {"epochs": 5.5}}, "train.epochs"),
    "heads_float": ({"encoder": {"heads": 2.0}}, "encoder.heads"),
    "k_float": ({"loss": {"k": 2.0}}, "loss.k"),
    "seed_bool": ({"ablate": {"seeds": [True]}}, "ablate.seeds[0]"),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_CONFIGS))
def test_config_value_of_wrong_type_exits_2(name, tmp_path, capsys):
    override, key = WRONG_TYPE_CONFIGS[name]
    data = {"synth": dict(TINY_SYNTH), "encoder": dict(TINY_ENCODER)}
    for section, value in override.items():
        data[section] = {**data.get(section, {}), **value} if isinstance(value, dict) else value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert f"{path}: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_an_int_for_a_float_is_kept_as_given(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"synth": dict(TINY_SYNTH, anomaly_shift=3,
                                              region_len_range=[2, 4]),
                                "train": {"lr": 1}, "loss": {"temperature": 1}}),
                    encoding="utf-8")
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "d")]) == 0
    record = (tmp_path / "d" / "run.json").read_text(encoding="utf-8")
    assert '"lr": 1,' in record and '"temperature": 1,' in record
    assert '"anomaly_shift": 3,' in record
    assert load_config(path).synth.region_len_range == (2, 4)


# ---------------------------------------------------------------------
# exit codes


def test_exit_code_2_on_config_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"nope": {}}), encoding="utf-8")
    rc = cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_3_on_missing_dataset(tmp_path, capsys):
    rc = cli.main(["train", "--config", tiny_config_file(tmp_path),
                   "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_exit_code_3_on_missing_scores(tmp_path, capsys):
    rc = cli.main(["mine", "--scores", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "o")])
    assert rc == 3


def test_exit_code_2_on_dataset_encoder_mismatch(tmp_path, tiny_dataset, capsys):
    cfg = tiny_config_file(tmp_path, encoder={"d_in": 12})
    rc = cli.main(["train", "--config", cfg, "--data", str(tiny_dataset),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "encoder expects" in capsys.readouterr().err


def uneven_dataset(tiny_dataset, root, split) -> Path:
    """A copy of the tiny dataset whose first two ``split`` videos have 4 and
    12 snippets instead of 8: the same feature rows, cut in other places."""
    shutil.copytree(tiny_dataset, root)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    first, second = [v for v in manifest["videos"] if v["split"] == split][:2]
    first["num_snippets"], second["num_snippets"] = 4, 12
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return root


def narrow_dataset(tiny_dataset, root, split) -> Path:
    """A copy of the tiny dataset whose ``split`` features are 5 wide, not 6."""
    shutil.copytree(tiny_dataset, root)
    path = root / f"{split}.wvfd"
    rows = [(v.id, v.num_snippets) for v in load_manifest(root).videos if v.split == split]
    synthdata.write_features(synthdata.load_features(path, rows)[:, :5], path)
    return root


# an encoder T or D the dataset does not have, or uneven snippet counts in a
# split the command feeds the model: train used to crash in np.stack after
# writing run.json and log.csv, and ablate to exit 3 after training arm a
@pytest.mark.parametrize("command, copy, split, encoder, message", [
    ("train", None, None, {"num_snippets": 4},
     "video train-nrm-000 has 8 snippets but the encoder expects T=4"),
    ("ablate", None, None, {"num_snippets": 4},
     "video train-nrm-000 has 8 snippets but the encoder expects T=4"),
    ("train", uneven_dataset, "train", {},
     "video train-nrm-000 has 4 snippets but the encoder expects T=8"),
    ("ablate", uneven_dataset, "train", {},
     "video train-nrm-000 has 4 snippets but the encoder expects T=8"),
    ("ablate", uneven_dataset, "test", {},
     "video test-nrm-000 has 4 snippets but the encoder expects T=8"),
    ("train", None, None, {"d_in": 5},
     "{data}/train.wvfd: features are 6 wide but the encoder expects D=5"),
    ("ablate", None, None, {"d_in": 5},
     "{data}/train.wvfd: features are 6 wide but the encoder expects D=5"),
    ("ablate", narrow_dataset, "test", {},
     "{data}/test.wvfd: features are 5 wide but the encoder expects D=6"),
], ids=["train", "ablate", "train-uneven_train", "ablate-uneven_train",
        "ablate-uneven_test", "train-width", "ablate-width", "ablate-narrow_test"])
def test_a_dataset_mismatch_fails_before_the_run_record(command, copy, split, encoder, message,
                                                        tmp_path, tiny_dataset, capsys):
    data = tiny_dataset if copy is None else copy(tiny_dataset, tmp_path / "data", split)
    cfg = tiny_config_file(tmp_path, encoder=encoder, ablate={"seeds": [0]})
    out = tmp_path / "o"
    rc = cli.main([command, "--config", cfg, "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message.format(data=data)}\n"
    assert not out.exists()


def test_a_dataset_without_its_generating_config_trains(tmp_path, tiny_dataset):
    """The manifest's config is optional; the videos and the feature files
    alone give T and D."""
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    manifest["config"] = None
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    cfg = tiny_config_file(tmp_path, train={"epochs": 1})
    assert cli.main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "checkpoint.wvck").exists()


def test_train_does_not_check_the_test_splits_snippet_counts(tmp_path, tiny_dataset):
    data = uneven_dataset(tiny_dataset, tmp_path / "data", "test")
    cfg = tiny_config_file(tmp_path, train={"epochs": 1})
    assert cli.main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 0


# the tiny dataset's videos have 8 snippets; ablate refuses even with no
# contrastive weight in the config, because its arm d mines
@pytest.mark.parametrize("command, mining, w_contrast, message", [
    ("train", {"region_window": 9}, 1.0, "video train-abn-000: window 9 longer than sequence 8"),
    ("train", {"k_easy": 9}, 1.0, "video train-nrm-000: k must be in [1, 8], got 9"),
    ("train", {"k_hard_normal": 9}, 1.0, "video train-nrm-000: k must be in [1, 8], got 9"),
    ("ablate", {"region_window": 9}, 0.0, "video train-abn-000: window 9 longer than sequence 8"),
], ids=["train-window", "train-k_easy", "train-k_hard_normal", "ablate-window"])
def test_a_mining_limit_longer_than_the_videos_fails_before_the_run_record(
        command, mining, w_contrast, message, tmp_path, tiny_dataset, capsys):
    cfg = tiny_config_file(tmp_path, mining=mining, loss={"w_contrast": w_contrast},
                           ablate={"seeds": [0]})
    out = tmp_path / "o"
    rc = cli.main([command, "--config", cfg, "--data", str(tiny_dataset), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: the mining config does not fit the dataset: {message}\n" == err
    assert not (out / "run.json").exists()


def test_train_without_the_contrastive_term_ignores_the_mining_limits(tmp_path, tiny_dataset):
    cfg = tiny_config_file(tmp_path, mining={"region_window": 9}, loss={"w_contrast": 0.0},
                           train={"epochs": 3, "mining_warmup_epochs": 0})
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg, "--data", str(tiny_dataset),
                     "--out", str(out)]) == 0
    assert (out / "checkpoint.wvck").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_train_and_ablate_read_the_manifest_once(command, tmp_path, tiny_dataset,
                                                 monkeypatch, capsys):
    calls = []

    def counting(root):
        calls.append(root)
        return load_manifest(root)

    monkeypatch.setattr(synthdata, "load_manifest", counting)
    monkeypatch.setattr(cli, "load_manifest", counting)
    cfg = tiny_config_file(tmp_path, train={"epochs": 1}, ablate={"seeds": [0]})
    rc = cli.main([command, "--config", cfg, "--data", str(tiny_dataset),
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert calls == [str(tiny_dataset)]


def test_mine_on_an_over_long_score_field_exits_2_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    rows = [cli.SCORE_COLUMNS, ["v0", "0", "0.5", "0"], ["v0", "1", "0." + "1" * 140_000, "0"]]
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    rc = cli.main(["mine", "--scores", str(path), "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}:3: unreadable row: field larger than field limit" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------
# synth


def test_synth_writes_dataset_and_run_record(tmp_path, capsys):
    out = tmp_path / "data"
    rc = cli.main(["synth", "--config", tiny_config_file(tmp_path),
                   "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert record["command"] == "synth"
    assert record["config"]["synth"]["d_in"] == 6
    assert record["config"]["train"]["epochs"] == 2
    assert "dataset written" in capsys.readouterr().out


def test_a_runs_echoed_config_loads_back_as_the_same_config(tmp_path):
    cfg = tiny_config_file(tmp_path, train={"lr": 1}, mining={"region_window": 4})
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    record = json.loads((tmp_path / "d" / "run.json").read_text(encoding="utf-8"))
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(record["config"]), encoding="utf-8")
    assert load_config(echoed) == load_config(cfg)
    assert cli.main(["synth", "--config", str(echoed), "--out", str(tmp_path / "e")]) == 0


def test_synth_is_deterministic(tmp_path):
    cfg = tiny_config_file(tmp_path)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["synth", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["synth", "--config", cfg, "--out", str(out2)]) == 0
    for v1, v2 in zip(load_split(out1, "train"), load_split(out2, "train")):
        assert v1.record.id == v2.record.id
        assert v1.features.tobytes() == v2.features.tobytes()


# ---------------------------------------------------------------------
# train / eval / export-scores round trip


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, tiny_dataset):
    tmp = tmp_path_factory.mktemp("run")
    cfg = tiny_config_file(tmp)
    out = tmp / "train"
    rc = cli.main(["train", "--config", cfg, "--data", str(tiny_dataset),
                   "--out", str(out)])
    assert rc == 0
    return out


def test_train_outputs(trained_run, capsys):
    assert (trained_run / "checkpoint.wvck").exists()
    assert (trained_run / "log.csv").exists()
    record = json.loads((trained_run / "run.json").read_text(encoding="utf-8"))
    assert record["command"] == "train"
    assert record["resume"] is None


def test_eval_prints_metrics_and_writes_frames(trained_run, tiny_dataset,
                                               tmp_path, capsys):
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(tiny_dataset), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert re.search(r"AUC=\d\.\d{6} AP=\d\.\d{6}", printed)
    with open(out / "frame_scores.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n_test = TINY_SYNTH["n_normal_test"] + TINY_SYNTH["n_abnormal_test"]
    frames = TINY_SYNTH["num_snippets"] * TINY_SYNTH["frames_per_snippet"]
    assert len(rows) == n_test * frames
    assert set(rows[0]) == set(cli.FRAME_COLUMNS)


def test_eval_without_out_writes_nothing(trained_run, tiny_dataset,
                                         tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(tiny_dataset)])
    assert rc == 0
    assert "AUC=" in capsys.readouterr().out


def test_export_scores_covers_split(trained_run, tiny_dataset, tmp_path, capsys):
    out = tmp_path / "exp"
    rc = cli.main(["export-scores", "--checkpoint",
                   str(trained_run / "checkpoint.wvck"),
                   "--data", str(tiny_dataset), "--split", "train",
                   "--out", str(out)])
    assert rc == 0
    with open(out / "scores.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n_train = TINY_SYNTH["n_normal_train"] + TINY_SYNTH["n_abnormal_train"]
    assert len(rows) == n_train * TINY_SYNTH["num_snippets"]
    per_video = {}
    for row in rows:
        per_video.setdefault(row["video_id"], []).append(int(row["t"]))
    for ts in per_video.values():
        assert sorted(ts) == list(range(TINY_SYNTH["num_snippets"]))


def test_untrained_model_scores_near_chance(tiny_dataset, capsys, tmp_path):
    """Init-only models should have no real ranking skill on average."""
    videos = load_split(tiny_dataset, "test")
    aucs = []
    for seed in range(5):
        cfg = TrainConfig(seed=seed, encoder=EncoderConfig(**TINY_ENCODER))
        model = _build_model(cfg)
        auc, _, _ = cli.evaluate_model(model, videos)
        aucs.append(auc)
    assert 0.3 <= float(np.mean(aucs)) <= 0.7


# ---------------------------------------------------------------------
# mine


def write_scores_csv(path: Path, videos) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cli.SCORE_COLUMNS)
        for vid, label, scores in videos:
            for t, s in enumerate(scores):
                writer.writerow([vid, t, repr(float(s)), label])


def test_mine_matches_module_output(tmp_path, capsys):
    rng = np.random.default_rng(0)
    videos = [
        ("n0", 0, rng.uniform(size=8)),
        ("n1", 0, rng.uniform(size=8)),
        ("a0", 1, np.array([0.1, 0.9, 0.95, 0.2, 0.85, 0.1, 0.1, 0.6])),
        ("a1", 1, rng.uniform(size=8)),
    ]
    scores_path = tmp_path / "scores.csv"
    write_scores_csv(scores_path, videos)
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "mine"
    rc = cli.main(["mine", "--config", cfg, "--scores", str(scores_path),
                   "--out", str(out)])
    assert rc == 0
    with open(out / "mined.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {}
    for row in rows:
        got.setdefault(row["set"], []).append((row["video_id"], int(row["t"])))
    expected = mine_batch(videos, MiningConfig(k_hard_normal=2, k_easy=2))
    assert got.get("HA", []) == list(expected.hard_abnormal)
    assert got.get("EA", []) == list(expected.easy_abnormal)
    assert got.get("HN", []) == list(expected.hard_normal)
    assert got.get("EN", []) == list(expected.easy_normal)


@pytest.mark.parametrize("command", ["eval", "export-scores", "mine"])
def test_every_command_keeps_the_freed_heap(command, trained_run, tiny_dataset, tmp_path,
                                           monkeypatch, capsys):
    """Each process sets the heap thresholds once, not only ``train``: a
    scoring pass frees and reallocates its chunk buffers too."""
    scores = tmp_path / "scores.csv"
    write_scores_csv(scores, [("n0", 0, np.linspace(0, 1, 8)), ("a0", 1, np.linspace(1, 0, 8))])
    calls = []
    monkeypatch.setattr(cli, "keep_freed_heap", lambda: calls.append(command))
    source = (["--scores", str(scores)] if command == "mine" else
              ["--checkpoint", str(trained_run / "checkpoint.wvck"), "--data", str(tiny_dataset)])
    assert cli.main([command, *source, "--out", str(tmp_path / "out")]) == 0
    assert calls == [command]


def test_mine_empty_input_gives_empty_output(tmp_path, capsys):
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("", encoding="utf-8")
    out = tmp_path / "mine"
    rc = cli.main(["mine", "--scores", str(scores_path), "--out", str(out)])
    assert rc == 0
    lines = (out / "mined.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["set,video_id,t"]


def test_mine_names_the_video_too_short_to_mine(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    write_scores_csv(scores, [("n0", 0, np.linspace(0, 1, 8)), ("a1", 1, np.array([0.2, 0.9]))])
    rc = cli.main(["mine", "--scores", str(scores), "--out", str(tmp_path / "m")])
    assert rc == 2
    assert capsys.readouterr().err == "config error: video a1: window 5 longer than sequence 2\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda rows: [["video_id", "t", "value", "video_label"]] + rows[1:],
     "expected columns"),
    (lambda rows: rows[:2] + [["v0", "x", "0.5", "0"]] + rows[3:],
     "malformed row"),
    (lambda rows: rows + [["a0", "0", "0.5", "0"]], "conflicting labels"),
    (lambda rows: rows + [[rows[-1][0], rows[-1][1], "0.5", rows[-1][3]]],
     "duplicate snippet"),
    (lambda rows: rows[:2] + rows[3:], "not 0..T-1"),
    (lambda rows: [["t", "video_id", "score", "video_label"]] + rows[1:],
     "malformed row: invalid literal for int()"),
])
def test_mine_rejects_malformed_csv(tmp_path, capsys, mutate, message):
    videos = [("n0", 0, np.linspace(0, 1, 4)), ("a0", 1, np.linspace(1, 0, 4))]
    scores_path = tmp_path / "scores.csv"
    write_scores_csv(scores_path, videos)
    rows = [line.split(",") for line in
            scores_path.read_text(encoding="utf-8").splitlines()]
    mutated = mutate(rows)
    scores_path.write_text(
        "\n".join(",".join(r) for r in mutated) + "\n", encoding="utf-8")
    rc = cli.main(["mine", "--scores", str(scores_path),
                   "--out", str(tmp_path / "m")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_mine_finds_columns_by_name(tmp_path, capsys):
    """A score CSV with its columns in another order mines the same sets."""
    videos = [("n0", 0, np.linspace(0, 1, 8)), ("n1", 0, np.linspace(1, 0, 8)),
              ("a0", 1, np.linspace(0.2, 0.9, 8)), ("a1", 1, np.linspace(0.9, 0.1, 8))]
    canonical = tmp_path / "scores.csv"
    write_scores_csv(canonical, videos)
    order = [3, 2, 0, 1]
    reordered = tmp_path / "reordered.csv"
    reordered.write_text("".join(
        ",".join(line.split(",")[i] for i in order) + "\n"
        for line in canonical.read_text(encoding="utf-8").splitlines()), encoding="utf-8")
    for name in ("scores", "reordered"):
        assert cli.main(["mine", "--scores", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / f"m_{name}")]) == 0
    assert ((tmp_path / "m_reordered" / "mined.csv").read_bytes()
            == (tmp_path / "m_scores" / "mined.csv").read_bytes())


# ---------------------------------------------------------------------
# empty test split, non-finite features


@pytest.fixture(scope="module")
def no_test_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("no_test")
    generate_dataset(SynthConfig(**(TINY_SYNTH | dict(n_normal_test=0,
                                                      n_abnormal_test=0))), root)
    return root


def test_resume_with_corrupt_generator_state_exits_3(trained_run, tiny_dataset, tmp_path,
                                                     capsys):
    raw = (trained_run / "checkpoint.wvck").read_bytes()
    bad = tmp_path / "bad.wvck"
    bad.write_bytes(raw.replace(b'"PCG64"', b'"PCG65"'))
    rc = cli.main(["train", "--config", tiny_config_file(tmp_path, train={"epochs": 3}),
                   "--data", str(tiny_dataset), "--out", str(tmp_path / "t"),
                   "--resume", str(bad)])
    assert rc == 3
    assert "generator state" in capsys.readouterr().err


def test_eval_on_empty_test_split_exits_3(trained_run, no_test_dataset, tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(no_test_dataset), "--out", str(tmp_path / "e")])
    assert rc == 3
    assert "test split" in capsys.readouterr().err


def test_ablate_on_empty_test_split_fails_before_training(no_test_dataset, tmp_path,
                                                          capsys):
    out = tmp_path / "ab"
    rc = cli.main(["ablate", "--config", tiny_config_file(tmp_path, ablate={"seeds": [0]}),
                   "--data", str(no_test_dataset), "--out", str(out)])
    assert rc == 3
    assert "test split" in capsys.readouterr().err
    assert not list(out.glob("run_*"))


def test_export_scores_on_empty_split_writes_header_only(trained_run, no_test_dataset,
                                                         tmp_path, capsys):
    out = tmp_path / "exp"
    rc = cli.main(["export-scores", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(no_test_dataset), "--out", str(out)])
    assert rc == 0
    assert (out / "scores.csv").read_text(encoding="utf-8") == (
        ",".join(cli.SCORE_COLUMNS) + "\n")


@pytest.mark.parametrize("dataset, code, message", [
    ("uneven", 3, "i/o error: videos of one split must share a feature shape, "
                  "got [(4, 6), (8, 6), (12, 6)]"),
    ("T4", 2, "config error: feature array is (4, 4, 6), config expects (B, *(8, 6))"),
], ids=["uneven", "T4"])
def test_export_scores_on_a_split_it_cannot_score_leaves_no_output(
        dataset, code, message, trained_run, tiny_dataset, tmp_path, capsys):
    if dataset == "uneven":
        data = uneven_dataset(tiny_dataset, tmp_path / "data", "test")
    else:
        data = tmp_path / "data"
        generate_dataset(SynthConfig(**(TINY_SYNTH | dict(num_snippets=4,
                                                          region_len_range=(1, 3)))), data)
    out = tmp_path / "exp"
    rc = cli.main(["export-scores", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(data), "--out", str(out)])
    assert rc == code
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_rejects_non_finite_features(trained_run, tmp_path, capsys, bad):
    data = tmp_path / "data"
    generate_dataset(SynthConfig(**TINY_SYNTH), data)
    victim = load_split(data, "test")[1].record.id
    at = 16 + 4 * (TINY_SYNTH["num_snippets"] * TINY_SYNTH["d_in"] + 5)   # its sixth value
    raw = bytearray((data / "test.wvfd").read_bytes())
    raw[at:at + 4] = np.array([bad], dtype="<f4").tobytes()
    (data / "test.wvfd").write_bytes(bytes(raw))
    rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(data)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{data / 'test.wvfd'}: non-finite value {bad} at offset {at} in video {victim}" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_mine_rejects_non_finite_scores(tmp_path, capsys, bad):
    videos = [("n0", 0, np.linspace(0, 1, 6)), ("a0", 1, np.linspace(1, 0, 6))]
    scores_path = tmp_path / "scores.csv"
    write_scores_csv(scores_path, videos)
    lines = scores_path.read_text(encoding="utf-8").splitlines()
    vid, t, _, label = lines[3].split(",")
    lines[3] = ",".join([vid, t, bad, label])
    scores_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main(["mine", "--scores", str(scores_path), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-finite score" in err and f"{scores_path}:4" in err
    assert not (tmp_path / "m" / "mined.csv").exists()


def _set_video(key, value, split, label=None):
    """An edit of the manifest's first ``split`` video (with ``label``)."""
    def edit(manifest):
        video = next(v for v in manifest["videos"]
                     if v["split"] == split and label in (None, v["video_label"]))
        video[key] = value
        return manifest
    return edit


# each manifest used to end in a traceback, or in exit 0 (a float frame
# count, an int id, a label that is not 0/1 on eval) or exit 2 with a
# misleading class count (such a label on train)
WRONG_MANIFESTS = {
    "root_list": ("eval", lambda m: [], "expected a JSON object"),
    "videos_int": ("eval", lambda m: {**m, "videos": 3}, "videos: "),
    "config_list": ("train", lambda m: {**m, "config": []}, "config: "),
    "feature_file_null": ("eval", _set_video("feature_file", None, "test"),
                          "]: unknown keys ['feature_file']"),
    "num_frames_float": ("eval", _set_video("num_frames", 32.0, "test", 1), "].num_frames: "),
    "id_int": ("eval", _set_video("id", 0, "test"), "].id: "),
    "label_str_eval": ("eval", _set_video("video_label", "1", "test", 0), "].video_label: "),
    "label_2_eval": ("eval", _set_video("video_label", 2, "test", 1), "video_label must be"),
    "label_str_train": ("train", _set_video("video_label", "1", "train", 1),
                        "].video_label: "),
    "label_2_train": ("train", _set_video("video_label", 2, "train", 0), "video_label must be"),
    "split_other": ("eval", _set_video("split", "val", "train"), "split must be"),
    "num_frames_0": ("eval", _set_video("num_frames", 0, "test"), "num_frames must be"),
}


@pytest.mark.parametrize("name", sorted(WRONG_MANIFESTS))
def test_manifest_value_of_wrong_type_or_range_exits_3(name, trained_run, tmp_path, capsys):
    command, edit, expected = WRONG_MANIFESTS[name]
    data = tmp_path / "data"
    generate_dataset(SynthConfig(**TINY_SYNTH), data)
    manifest = edit(json.loads((data / "manifest.json").read_text(encoding="utf-8")))
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if command == "eval":
        argv = ["eval", "--checkpoint", str(trained_run / "checkpoint.wvck")]
    else:
        argv = ["train", "--config", tiny_config_file(tmp_path), "--out", str(tmp_path / "r")]
    rc = cli.main([*argv, "--data", str(data)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{data / 'manifest.json'}: " in err and expected in err


def test_eval_rejects_fewer_frames_than_snippets(trained_run, tmp_path, capsys):
    data = tmp_path / "data"
    generate_dataset(SynthConfig(**TINY_SYNTH), data)
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    victim = next(v for v in manifest["videos"] if v["split"] == "test")
    victim["num_frames"] = TINY_SYNTH["num_snippets"] // 2
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(data)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"video {victim['id']} has 4 frames for 8 snippets" in err


def test_mine_rejects_a_non_utf8_score_csv(tmp_path, capsys):
    scores_path = tmp_path / "scores.csv"
    write_scores_csv(scores_path, [("n0", 0, np.linspace(0, 1, 6)),
                                   ("a0", 1, np.linspace(1, 0, 6))])
    raw = scores_path.read_bytes()
    at = raw.index(b"a0")
    scores_path.write_bytes(raw[:at] + b"\x97" + raw[at + 1:])
    rc = cli.main(["mine", "--scores", str(scores_path), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(scores_path) in err and f"offset {at}" in err and "0x97" in err
    assert not (tmp_path / "m" / "mined.csv").exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = Path(tiny_config_file(tmp_path))
    raw = path.read_bytes()
    path.write_bytes(raw[:5] + b"\xff" + raw[6:])
    rc = cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "offset 5" in err


def test_eval_rejects_a_non_utf8_manifest(trained_run, tmp_path, capsys):
    data = tmp_path / "data"
    generate_dataset(SynthConfig(**TINY_SYNTH), data)
    raw = (data / "manifest.json").read_bytes()
    at = raw.index(b'"id"') + 1
    (data / "manifest.json").write_bytes(raw[:at] + b"\xe9" + raw[at + 1:])
    rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.wvck"),
                   "--data", str(data)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(data / "manifest.json") in err and f"offset {at}" in err


# ---------------------------------------------------------------------
# gradcheck


def test_gradcheck_command_reports_every_op(tmp_path, capsys):
    out = tmp_path / "g"
    rc = cli.main(["gradcheck", "--seeds", "2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    for name, _ in verification.CASES:
        assert f"gradcheck {name}:" in printed
    assert "gradcheck full_objective:" in printed
    assert "FAIL" not in printed
    assert (out / "gradcheck.txt").exists()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_gradcheck_refuses_fewer_than_one_seed(seeds, tmp_path, capsys):
    rc = cli.main(["gradcheck", "--seeds", seeds, "--out", str(tmp_path / "g")])
    assert rc == 2
    assert f"--seeds must be >= 1, got {seeds}" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gradcheck_fails_on_a_nan_gradient(monkeypatch, capsys):
    def nan_clip(rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        return [("x", x)], \
            lambda: node(x.data.copy(), (x,), lambda g: (np.full(g.shape, np.nan),)).sum()

    monkeypatch.setattr(verification, "CASES",
                        [(name, nan_clip if name == "clip" else builder)
                         for name, builder in verification.CASES])
    rc = cli.main(["gradcheck", "--seeds", "1"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "gradcheck clip: max rel err nan over 1 seeds FAIL (seed 0, x[0])\n" in captured.out
    assert captured.out.count("FAIL") == 2   # the clip row and the total
    assert "gradcheck total: FAIL" in captured.out
    assert "gradient verification failed" in captured.err


# ---------------------------------------------------------------------
# ablate


@pytest.mark.parametrize("label", [0, 1], ids=["all_normal", "all_anomalous"])
def test_ablate_on_a_one_class_test_split_fails_before_writing(label, tiny_dataset, tmp_path,
                                                               capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    frames = len((data / synthdata.LABELS_NAME).read_bytes())
    (data / synthdata.LABELS_NAME).write_bytes(bytes([label]) * frames)
    out = tmp_path / "ab"
    rc = cli.main(["ablate", "--config", tiny_config_file(tmp_path, ablate={"seeds": [0]}),
                   "--data", str(data), "--out", str(out)])
    assert rc == 4
    n_pos = frames * label
    assert capsys.readouterr().err == (
        f"numerical failure: {data}: the test split's frame labels are all one class "
        f"({n_pos} pos / {frames - n_pos} neg), and AUC needs both\n")
    assert not out.exists()


def test_ablate_writes_table_and_runs(tmp_path, tiny_dataset, capsys):
    cfg = tiny_config_file(tmp_path, ablate={"seeds": [0]})
    out = tmp_path / "ab"
    rc = cli.main(["ablate", "--config", cfg, "--data", str(tiny_dataset),
                   "--out", str(out)])
    assert rc == 0
    with open(out / "ablation.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["config"] for row in rows] == sorted(ABLATION_PRESETS)
    for row in rows:
        assert 0.0 <= float(row["auc"]) <= 1.0
        assert 0.0 <= float(row["ap"]) <= 1.0
        assert (out / f"run_{row['config']}_seed0" / "checkpoint.wvck").exists()
    printed = capsys.readouterr().out
    for preset in ABLATION_PRESETS:
        assert f"config {preset} mean:" in printed


def test_ablate_arm_d_mines_once_its_warm_up_is_over(tmp_path, tiny_dataset, capsys):
    """With no warm-up, arm d mines from its first step, so its contrastive
    term moves it away from arm c, which differs from it in nothing else."""
    cfg = tiny_config_file(tmp_path, train={"mining_warmup_epochs": 0}, ablate={"seeds": [0]})
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--config", cfg, "--data", str(tiny_dataset),
                     "--out", str(out)]) == 0
    with open(out / "run_d_seed0" / "log.csv", encoding="utf-8") as fh:
        assert any(int(row["n_ea"]) > 0 for row in csv.DictReader(fh))
    with open(out / "ablation.csv", encoding="utf-8") as fh:
        rows = {row.pop("config"): row for row in csv.DictReader(fh)}
    assert rows["d"] != rows["c"]
