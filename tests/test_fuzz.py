"""Seeded truncation and byte-flip fuzzing of every on-disk format the CLI
reads, and JSON-value swaps in the three JSON documents (config, manifest,
checkpoint header).

Each target is a valid file written by the package itself. A mutation
either truncates it or replaces one to three bytes with other values, from
a fixed seed, so a failure names a reproducible mutation. Half of the flips
land in the file's structured part (headers, the generator state, the
manifest's keys) rather than in bulk float payload, where most flips parse
cleanly. Parsing a mutated file may succeed; when it fails, the error must
be a ``FormatError`` or ``ConfigError``, which the CLI turns into exit 3 or
2, never a traceback. Byte flips rarely turn a JSON value into one of
another type, so each value of those documents is also swapped, one at a
time, for every value of another type in ``OTHER_VALUES``.
"""

import copy
import csv
import functools
import json
import operator
import struct

import numpy as np
import pytest

from wvad import cli
from wvad.encoder import EncoderConfig, TransformerModel, load_checkpoint, save_checkpoint
from wvad.errors import ConfigError, FormatError
from wvad.synthdata import LABELS_NAME, MANIFEST_NAME, SynthConfig, generate_dataset, load_split
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


OTHER_VALUES = (None, True, False, 0, -1, 3, 0.5, 2.0, "", "x", [], [1, 2], {}, {"k": 1})


def json_paths(value, path=()):
    """The path of every value below ``value``, containers included."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def swaps(doc):
    """(description, copy of ``doc``) with one value replaced by one of another type."""
    for path in json_paths(doc):
        old = functools.reduce(operator.getitem, path, doc)
        for value in OTHER_VALUES:
            if type(value) is not type(old):
                out = copy.deepcopy(doc)
                functools.reduce(operator.getitem, path[:-1], out)[path[-1]] = value
                yield f"{'/'.join(map(str, path))} = {value!r}", out


def fuzz_values(doc, write, parse):
    """Parse every swap of ``doc``; return the ones that failed with
    anything but FormatError/ConfigError, and the number of swaps."""
    escaped, count = [], 0
    for what, mutated in swaps(doc):
        count += 1
        path = write(mutated)
        try:
            parse(path)
        except (FormatError, ConfigError):
            pass
        except Exception as e:   # noqa: BLE001 - the test reports every kind
            escaped.append(f"{what}: {type(e).__name__}: {e}")
    return escaped, count


def full_config() -> dict:
    """Every key of the config schema, at its default, in its section."""
    return cli.load_config().as_dict()


def test_config(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(full_config(), indent=1), encoding="utf-8")
    cli.load_config(good)
    raw = good.read_bytes()
    assert fuzz(raw, (0, len(raw)), tmp_path / "bad.json", cli.load_config, SEED + 5) == []


def test_config_value_swaps(tmp_path):
    path = tmp_path / "c.json"

    def write(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    escaped, count = fuzz_values(full_config(), write, cli.load_config)
    assert escaped == [] and count > 500


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


def test_feature_file(dataset):
    path = dataset / "test.wvfd"
    raw = path.read_bytes()
    assert len(load_split(dataset, "test")) == 2
    assert fuzz(raw, (0, 16), path, lambda _: load_split(dataset, "test"), SEED + 2) == []


def test_labels_file(dataset):
    path = dataset / LABELS_NAME
    raw = path.read_bytes()
    assert fuzz(raw, (0, len(raw)), path, lambda _: load_split(dataset, "test"), SEED + 6) == []


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


def test_checkpoint_header_value_swaps(tmp_path):
    model = TransformerModel.init(EncoderConfig(num_snippets=4, d_in=3, d_model=4, heads=2,
                                                depth=1), seed=2)
    good = tmp_path / "good.wvck"
    save_checkpoint(good, model)
    raw = good.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    header, payload = json.loads(raw[12:12 + blob_len]), raw[12 + blob_len:]
    path = tmp_path / "bad.wvck"

    def write(doc):
        blob = json.dumps(doc).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + payload)
        return path

    escaped, count = fuzz_values(header, write, load_checkpoint)
    assert escaped == [] and count > 100


def test_manifest_value_swaps(dataset):
    path = dataset / MANIFEST_NAME
    doc = json.loads(path.read_text(encoding="utf-8"))

    def write(mutated):
        path.write_text(json.dumps(mutated), encoding="utf-8")
        return path

    def parse(_):
        load_split(dataset, "test")
        load_split(dataset, "train")

    escaped, count = fuzz_values(doc, write, parse)
    assert escaped == [] and count > 450


def test_manifest(dataset):
    path = dataset / MANIFEST_NAME
    raw = path.read_bytes()
    assert len(load_split(dataset, "test")) == 2
    assert fuzz(raw, (0, len(raw)), path, lambda _: load_split(dataset, "test"),
                SEED + 4) == []
