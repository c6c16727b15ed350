"""Every subcommand on broken path arguments ends in its documented exit
code, never in a traceback.

Each path argument of each subcommand is replaced in turn by each fault
that fits it: missing, a directory, an empty file, a file cut short, a text
file with a byte that is not UTF-8 (at a seeded offset), a score CSV with
an over-long field, and an ``--out`` that already exists as a file. A
dataset's faults hit the directory itself and each file the subcommand
reads (README, "What each subcommand reads"); ``export-scores`` reads no
frame label, so a broken ``test.labels`` leaves it at exit 0. A run that
fails leaves no output behind, except ``train --resume`` on a broken
checkpoint: its ``run.json`` is written before the checkpoint is read.

Each subcommand takes ``--out``, the path flags broken here and its own
flags, and no other: a flag it does not read is a usage error (exit 2).
"""

import argparse
import json
import shutil
import struct

import numpy as np
import pytest

from wvad import cli
from wvad.synthdata import SynthConfig, generate_dataset

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
        assert left == (["run.json"] if flag == "--resume" else [])


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
