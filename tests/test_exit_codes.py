"""Every subcommand on broken path arguments ends in its documented exit
code, never in a traceback.

Each path argument of each subcommand is replaced in turn by each fault
that fits it: missing, a directory, an empty file, a file cut short, a text
file with a byte that is not UTF-8 (at a seeded offset), a score CSV with
an over-long field, and an ``--out`` that already exists as a file. A
dataset's faults hit the directory itself and each file the subcommand
reads (README, "What each subcommand reads"); ``export-scores`` reads no
frame label, so a broken ``test.labels`` leaves it at exit 0. A run that
fails leaves no output behind.

Each subcommand takes ``--out``, the path flags broken here and its own
flags, and no other: a flag it does not read is a usage error (exit 2).
"""

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wvad
from wvad import cli
from wvad.encoder import load_checkpoint
from wvad.synthdata import (SynthConfig, generate_dataset, load_features, load_manifest,
                            write_features)

SEED = 20261019
CONFIG = {
    "synth": dict(n_normal_train=3, n_abnormal_train=3, n_normal_test=2, n_abnormal_test=2,
                  num_snippets=8, frames_per_snippet=4, d_in=6, seed=5),
    "encoder": dict(num_snippets=8, d_in=6, d_model=8, heads=2, depth=1),
    "train": dict(epochs=1, batch_normal=2, batch_abnormal=2, seed=0),
    "loss": {"k": 2},
    "mining": {"k_hard_normal": 2, "k_easy": 2},
    "ablate": {"seeds": [0]},
}

# the exit code of each fault, by what the argument holds
JSON_CONFIG = {"missing": 3, "directory": 3, "empty": 2, "truncated": 2, "not_utf8": 2}
BINARY = {"missing": 3, "directory": 3, "empty": 3, "truncated": 3}
TEXT = BINARY | {"not_utf8": 3}   # a manifest, or a checkpoint's JSON header
SCORES = {"missing": 3, "directory": 3, "empty": 0, "truncated": 2, "not_utf8": 2,
          "long_field": 2}
ROOT = {"missing": 3, "empty": 3}
UNREAD = dict.fromkeys(BINARY, 0)

# subcommand -> path argument -> file under it (None: the argument itself) -> codes
READS = {
    "synth": {"--config": {None: JSON_CONFIG}},
    "train": {"--config": {None: JSON_CONFIG},
              "--data": {None: ROOT, "manifest.json": TEXT, "train.wvfd": BINARY},
              "--resume": {None: TEXT}},
    "eval": {"--checkpoint": {None: TEXT},
             "--data": {None: ROOT, "manifest.json": TEXT, "test.wvfd": BINARY,
                        "test.labels": BINARY}},
    "export-scores": {"--checkpoint": {None: TEXT},
                      "--data": {None: ROOT, "manifest.json": TEXT, "test.wvfd": BINARY,
                                 "test.labels": UNREAD}},
    "mine": {"--config": {None: JSON_CONFIG}, "--scores": {None: SCORES}},
    "ablate": {"--config": {None: JSON_CONFIG},
               "--data": {None: ROOT, "manifest.json": TEXT, "train.wvfd": BINARY,
                          "test.wvfd": BINARY, "test.labels": BINARY}},
    "gradcheck": {},
}
# each subcommand's flags that name no path
OWN_FLAGS = {"synth": {"--seed"}, "train": {"--seed"}, "gradcheck": {"--seeds"},
             "export-scores": {"--split"}}
CASES = [(command, flag, name, fault, code)
         for command, flags in READS.items() for flag, files in flags.items()
         for name, codes in files.items() for fault, code in codes.items()]
CASES += [(command, "--out", None, "exists", 3) for command in READS]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid config, dataset, checkpoint and score CSV."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    generate_dataset(SynthConfig(**CONFIG["synth"]), root / "data")
    common = ["--config", str(root / "config.json")]
    assert cli.main(["train", *common, "--data", str(root / "data"),
                     "--out", str(root / "run")]) == 0
    assert cli.main(["export-scores", "--checkpoint", str(root / "run" / "checkpoint.wvck"),
                     "--data", str(root / "data"), "--out", str(root / "scores")]) == 0
    return {"--config": root / "config.json", "--data": root / "data",
            "--checkpoint": root / "run" / "checkpoint.wvck",
            "--resume": root / "run" / "checkpoint.wvck",
            "--scores": root / "scores" / "scores.csv"}


def break_path(path, fault, rng):
    raw = path.read_bytes() if path.is_file() else b""
    if fault in ("missing", "directory", "empty"):
        shutil.rmtree(path) if path.is_dir() else path.unlink()
        if fault == "directory":
            path.mkdir()
        elif fault == "empty":
            path.write_bytes(b"")
        return
    # eval and export-scores skip a checkpoint's optimiser tail, so one is
    # cut inside its first parameter and gets its bad byte in its JSON header
    text = (12, 12 + struct.unpack_from("<I", raw, 8)[0]) if path.suffix == ".wvck" \
        else (0, len(raw))
    if fault == "truncated":
        path.write_bytes(raw[:text[1] + 2] if path.suffix == ".wvck" else raw[:-3])
    elif fault == "not_utf8":
        at = int(rng.integers(*text))
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    elif fault == "long_field":
        path.write_bytes(raw + b"n0,99,0." + b"1" * 140_000 + b",0\n")


@pytest.mark.parametrize("command, flag, name, fault, code", CASES,
                         ids=[f"{c}{f}-{n or 'itself'}-{x}" for c, f, n, x, _ in CASES])
def test_a_broken_path_exits_with_its_code_and_no_traceback(command, flag, name, fault, code,
                                                            inputs, tmp_path, capsys):
    paths = {}   # a copy of each input the command takes; --resume only when broken
    for key in READS[command]:
        if key != "--resume" or flag == "--resume":
            paths[key] = tmp_path / inputs[key].name
            copy = shutil.copytree if inputs[key].is_dir() else shutil.copyfile
            copy(inputs[key], paths[key])
    out = paths["--out"] = tmp_path / "out"
    if fault == "exists":
        out.write_bytes(b"x")
    else:
        rng = np.random.default_rng([SEED, CASES.index((command, flag, name, fault, code))])
        break_path(paths[flag] if name is None else paths[flag] / name, fault, rng)
    seeds = ["--seeds", "1"] if command == "gradcheck" else []
    assert cli.main([command, *seeds, *(str(a) for item in paths.items() for a in item)]) == code
    assert "Traceback" not in capsys.readouterr().err
    if fault == "exists":
        assert out.read_bytes() == b"x"
    elif code:
        left = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert left == []


def subcommand_options() -> dict[str, set[str]]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in p._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")} for name, p in sub.choices.items()}


def test_each_subcommand_takes_out_its_paths_and_its_own_flags():
    """A path flag is taken only where the broken-path cases above break it,
    so a flag that a subcommand accepts and ignores cannot come back."""
    options = subcommand_options()
    assert options == {command: {"--out", *READS[command], *OWN_FLAGS.get(command, ())}
                       for command in READS}
    assert sum(map(len, options.values())) == 23


# the flags that these subcommands used to accept and ignore
IGNORED = [("eval", "--config"), ("eval", "--seed"), ("export-scores", "--config"),
           ("export-scores", "--seed"), ("mine", "--seed"), ("gradcheck", "--config"),
           ("gradcheck", "--seed"), ("ablate", "--seed")]


@pytest.mark.parametrize("command, flag", IGNORED, ids=[f"{c}{f}" for c, f in IGNORED])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys):
    required = {"eval": ["--checkpoint", "c.wvck", "--data", "d"],
                "export-scores": ["--checkpoint", "c.wvck", "--data", "d"],
                "mine": ["--scores", "s.csv"], "ablate": ["--data", "d"]}
    value = str(tmp_path / "config.json") if flag == "--config" else "5"
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *required.get(command, []), flag, value,
                  "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def one_snippet_dataset(root):
    """The CONFIG dataset with each video cut to its first snippet: a
    manifest may give T=1, which ``synth`` never writes."""
    generate_dataset(SynthConfig(**CONFIG["synth"]), root)
    manifest = load_manifest(root)
    for split in ("train", "test"):
        rows = [(v.id, v.num_snippets) for v in manifest.videos if v.split == split]
        first_rows = load_features(root / f"{split}.wvfd", rows)[::CONFIG["synth"]["num_snippets"]]
        write_features(first_rows, root / f"{split}.wvfd")
    doc = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    doc["config"] = None
    for video in doc["videos"]:
        video["num_snippets"] = 1
    (root / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


def no_abnormal_train_dataset(root):
    generate_dataset(SynthConfig(**CONFIG["synth"] | {"n_abnormal_train": 0}), root)
    return root


# each of these used to fail inside training, after run.json (and for a
# loss term, log.csv) was written: a loss term's length as a ValueError
# traceback (exit 1), the sampler's class counts as exit 2
PREFLIGHT = {
    "k_longer_than_T": ({"loss": {"k": 9}}, None,
                        "the loss config does not fit the dataset: "
                        "video train-nrm-000: k must be in [1, 8], got 9"),
    "T1_with_regulariser": ({"encoder": {"num_snippets": 1}, "loss": {"k": 1, "w_contrast": 0.0}},
                            one_snippet_dataset,
                            "the loss config does not fit the dataset: "
                            "video train-nrm-000: need at least 2 snippets, got 1"),
    "batch_normal_over_the_split": ({"train": {"batch_normal": 50}}, None,
                                    "need 50 normal / 2 abnormal videos, dataset has 3 / 3"),
    "no_abnormal_train_video": ({}, no_abnormal_train_dataset,
                                "need 2 normal / 2 abnormal videos, dataset has 3 / 0"),
}


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("case", sorted(PREFLIGHT))
def test_a_config_the_dataset_cannot_train_exits_2_before_any_output(case, command, tmp_path,
                                                                     capsys):
    override, make, message = PREFLIGHT[case]
    config = {section: {**values, **override.get(section, {})}
              for section, values in CONFIG.items()}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    data = tmp_path / "data"
    if make is None:
        generate_dataset(SynthConfig(**CONFIG["synth"]), data)
    else:
        make(data)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(tmp_path / "config.json"), "--data", str(data),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_one_snippet_videos_train_without_the_regulariser(tmp_path):
    """The T >= 2 rule holds only while ``w_reg`` is on."""
    config = CONFIG | {"encoder": CONFIG["encoder"] | {"num_snippets": 1},
                       "loss": {"k": 1, "w_contrast": 0.0, "w_reg": 0.0}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["train", "--config", str(tmp_path / "config.json"),
                     "--data", str(one_snippet_dataset(tmp_path / "data")),
                     "--out", str(tmp_path / "out")]) == 0


# config keys that selected a code path no run took; the value each run used
# is now the only behaviour
REMOVED_KEYS = [("loss", "pair_mode", "matched"), ("encoder", "use_positional", False),
                ("encoder", "dropout_rate", 0.0), ("synth", "edge_blend", True),
                ("synth", "random_rotation", False)]


@pytest.mark.parametrize("section, key, value", REMOVED_KEYS,
                         ids=[key for _, key, _ in REMOVED_KEYS])
def test_a_config_naming_a_removed_key_exits_2(section, key, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {section}: unknown keys ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_a_version_1_checkpoint_exits_3(inputs, tmp_path, capsys):
    """A checkpoint as version 1 wrote it: its header names the encoder's
    dropout rate and positional flag."""
    raw = inputs["--checkpoint"].read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + blob_len])
    header["encoder"] |= {"dropout_rate": 0.0, "use_positional": False}
    blob = json.dumps(header, sort_keys=True).encode()
    old = tmp_path / "old.wvck"
    old.write_bytes(b"WVCK" + struct.pack("<II", 1, len(blob)) + blob + raw[12 + blob_len:])
    assert cli.main(["eval", "--checkpoint", str(old), "--data", str(inputs["--data"]),
                     "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"i/o error: {old}: unsupported checkpoint version 1; re-run `wvad train`\n")
    assert not (tmp_path / "out").exists()


def test_a_format_2_dataset_exits_3(inputs, tmp_path, capsys):
    """A dataset as format 2 wrote it: its config names edge blending and
    the rotation."""
    data = tmp_path / "data"
    shutil.copytree(inputs["--data"], data)
    doc = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    doc["format_version"] = 2
    doc["config"] |= {"edge_blend": True, "random_rotation": False}
    (data / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", "--config", str(inputs["--config"]), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"i/o error: {data / 'manifest.json'}: unsupported format_version 2; "
        "re-run `wvad synth` to write this dataset as format 3\n")
    assert not (tmp_path / "out").exists()


def test_resuming_a_checkpoint_of_another_model_exits_2_before_any_output(inputs, tmp_path,
                                                                         capsys):
    """``train --resume`` checks its checkpoint before it writes ``run.json``."""
    config = CONFIG | {"encoder": CONFIG["encoder"] | {"depth": 2}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(tmp_path / "config.json"),
                     "--data", str(inputs["--data"]), "--resume", str(inputs["--resume"]),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {inputs['--resume']}: checkpoint's model is ")
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["eval", "export-scores"])
def test_a_non_finite_checkpoint_parameter_exits_3_before_scoring(command, bad, inputs,
                                                                 tmp_path, capsys):
    """A checkpoint whose last head bias is not finite used to score: NaN
    rows in ``scores.csv`` at exit 0, or exit 4 from eval's metrics."""
    raw = bytearray(inputs["--checkpoint"].read_bytes())
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + blob_len])
    d = header["encoder"]["d_model"]
    at = len(raw) - len(load_checkpoint(inputs["--checkpoint"])[1]) - 4 * (d + 2)
    struct.pack_into("<f", raw, at, bad)   # score_b: score_w, score_b, video_w, video_b
    ckpt = tmp_path / "bad.wvck"
    ckpt.write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert cli.main([command, "--checkpoint", str(ckpt), "--data", str(inputs["--data"]),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"i/o error: {ckpt}: non-finite value {np.float32(bad)} in parameter score_b\n")
    assert not out.exists()


@pytest.mark.parametrize("moment", ["first", "second"])
def test_a_non_finite_checkpoint_moment_exits_3_before_any_output(moment, inputs, tmp_path,
                                                                  capsys):
    """``train --resume`` refuses an optimiser moment that is not finite, as
    it refuses such a parameter. An inf second moment used to load, and the
    element it belongs to never moved again. The first moment's fault sits
    in its last value, the second's in its first."""
    raw = bytearray(inputs["--resume"].read_bytes())
    named = load_checkpoint(inputs["--resume"])[0].named_params()
    size = sum(p.data.size for _, p in named)
    at = len(raw) - 4 * size - 4 if moment == "first" else len(raw) - 4 * size
    struct.pack_into("<f", raw, at, np.inf)
    ckpt = tmp_path / "bad.wvck"
    ckpt.write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(inputs["--config"]), "--data",
                     str(inputs["--data"]), "--resume", str(ckpt), "--out", str(out)]) == 3
    name = named[-1][0] if moment == "first" else named[0][0]
    assert capsys.readouterr().err == (
        f"i/o error: {ckpt}: non-finite {moment} moment of parameter {name}\n")
    assert not out.exists()


def test_a_diverging_run_prints_only_its_failure_line(inputs, tmp_path):
    """At an ``lr`` of 1e38 the second step's loss is NaN. Numpy's overflow
    and invalid-value warnings on the way there used to come first, eight of
    them with source lines; the run's own line is all that stderr holds."""
    config = CONFIG | {"train": CONFIG["train"] | {"epochs": 2, "lr": 1e38}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(wvad.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wvad.cli", "train", "--config",
                           str(tmp_path / "config.json"), "--data", str(inputs["--data"]),
                           "--out", str(tmp_path / "out")], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 4
    assert proc.stderr.startswith("numerical failure: non-finite loss at step 2 (epoch 1): ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
