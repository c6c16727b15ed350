"""Seeded truncation and byte-flip fuzzing of every on-disk format the CLI reads.

Each target is a valid file written by the package itself. A mutation
either truncates it or replaces one to three bytes with other values, from
a fixed seed, so a failure names a reproducible mutation. Half of the flips
land in the file's structured part (headers, the generator state, the
manifest's keys) rather than in bulk float payload, where most flips parse
cleanly. Parsing a mutated file may succeed; when it fails, the error must
be a ``FormatError`` or ``ConfigError``, which the CLI turns into exit 3 or
2, never a traceback.
"""

import csv

import numpy as np
import pytest

from wvad import cli
from wvad.encoder import EncoderConfig, TransformerModel, load_checkpoint, save_checkpoint
from wvad.errors import ConfigError, FormatError
from wvad.synthdata import MANIFEST_NAME, SynthConfig, generate_dataset, load_features, \
    load_split, write_features
from wvad.trainer import AdamState, _opt_state_bytes, _parse_opt_state

MUTATIONS = 300
SEED = 20261018


def mutations(raw: bytes, structured: tuple[int, int], seed: int):
    """``MUTATIONS`` (description, bytes) variants of ``raw``: a third
    truncated, the rest with 1-3 bytes replaced."""
    rng = np.random.default_rng(seed)
    for i in range(MUTATIONS):
        if i % 3 == 0:
            cut = int(rng.integers(0, len(raw)))
            yield f"#{i} truncated to {cut} bytes", raw[:cut]
            continue
        out = bytearray(raw)
        flips = []
        for _ in range(int(rng.integers(1, 4))):
            lo, hi = structured if rng.random() < 0.5 else (0, len(raw))
            at = int(rng.integers(lo, hi))
            out[at] ^= int(rng.integers(1, 256))
            flips.append(f"{at}:0x{out[at]:02x}")
        yield f"#{i} bytes {' '.join(flips)}", bytes(out)


def fuzz(raw: bytes, structured, path, parse, seed: int):
    """Parse every mutation of ``raw`` written to ``path``; return the ones
    that failed with anything but FormatError/ConfigError."""
    escaped = []
    for what, data in mutations(raw, structured, seed):
        path.write_bytes(data)
        try:
            parse(path)
        except (FormatError, ConfigError):
            pass
        except Exception as e:   # noqa: BLE001 - the test reports every kind
            escaped.append(f"{what}: {type(e).__name__}: {e}")
    return escaped


def test_checkpoint_and_optimiser_section(tmp_path):
    config = EncoderConfig(num_snippets=8, d_in=6, d_model=8, heads=2, depth=1)
    model = TransformerModel.init(config, seed=1)
    opt = AdamState.for_params(model.named_params())
    opt.m += 0.25
    extra = _opt_state_bytes(opt, 7, 2, np.random.default_rng(3))
    good = tmp_path / "good.wvck"
    save_checkpoint(good, model, extra=extra)
    raw = good.read_bytes()
    opt_at = len(raw) - len(extra)
    header_end = opt_at - 4 * opt.m.size

    def parse(path):
        loaded, tail = load_checkpoint(path)
        _parse_opt_state(tail, loaded.named_params(), path)

    parse(good)
    # the structured part: the header and config block, then the optimiser
    # header and generator state
    head = fuzz(raw, (0, header_end), tmp_path / "bad.wvck", parse, SEED)
    opt_part = fuzz(raw, (opt_at, len(raw) - 8 * opt.m.size), tmp_path / "bad.wvck",
                    parse, SEED + 1)
    assert head + opt_part == []


def test_feature_file(tmp_path):
    good = tmp_path / "good.wvfd"
    write_features(np.random.default_rng(2).normal(size=(8, 6)), good)
    load_features(good)
    assert fuzz(good.read_bytes(), (0, 16), tmp_path / "bad.wvfd", load_features,
                SEED + 2) == []


def test_score_csv(tmp_path):
    good = tmp_path / "good.csv"
    rng = np.random.default_rng(4)
    with open(good, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cli.SCORE_COLUMNS)
        for vid, label in (("n0", 0), ('a,"b"', 1)):
            for t, s in enumerate(rng.random(8)):
                writer.writerow([vid, t, repr(float(s)), label])
    raw = good.read_bytes()
    assert len(cli._read_scores_csv(good)) == 2
    assert fuzz(raw, (0, 60), tmp_path / "bad.csv", cli._read_scores_csv, SEED + 3) == []


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "data"
    generate_dataset(SynthConfig(n_normal_train=1, n_abnormal_train=1, n_normal_test=1,
                                 n_abnormal_test=1, num_snippets=8, frames_per_snippet=2,
                                 d_in=6, seed=9), root)
    return root


def test_manifest(dataset):
    path = dataset / MANIFEST_NAME
    raw = path.read_bytes()
    assert len(load_split(dataset, "test")) == 2
    assert fuzz(raw, (0, len(raw)), path, lambda _: load_split(dataset, "test"),
                SEED + 4) == []
