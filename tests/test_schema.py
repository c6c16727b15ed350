"""The typed JSON reader behind configs, manifests and checkpoint headers:
each annotation's rule, the key path in its errors, and the one-time
resolution of a class's field checks."""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field

import pytest

from wvad import cli, schema
from wvad.encoder import EncoderConfig, TransformerModel, save_checkpoint
from wvad.errors import ConfigError, FormatError
from wvad.schema import from_json
from wvad.synthdata import MANIFEST_NAME, SynthConfig, generate_dataset


@dataclass
class Inner:
    n: int = 1
    x: float = 0.5

    def __post_init__(self):
        if self.n < 0:
            raise ConfigError(f"n must be >= 0, got {self.n}")


@dataclass
class Outer:
    name: str
    flag: bool = False
    pair: tuple[int, int] = (1, 2)
    maybe: str | None = None
    inner: Inner = field(default_factory=Inner)
    items: list[Inner] = field(default_factory=list)


def read(value, error=ConfigError):
    return from_json(Outer, value, "f.json", error)


def test_valid_object_builds_the_dataclass():
    got = read({"name": "a", "flag": True, "pair": [3, 4], "maybe": None,
                "inner": {"n": 2, "x": 1.5}, "items": [{"n": 0}, {}]})
    assert got == Outer(name="a", flag=True, pair=(3, 4), maybe=None,
                        inner=Inner(n=2, x=1.5), items=[Inner(n=0), Inner()])
    assert type(got.pair) is tuple
    assert read({"name": "b"}) == Outer(name="b")


def test_float_accepts_an_int_and_keeps_it_as_given():
    got = read({"name": "a", "inner": {"x": 2}})
    assert got.inner.x == 2 and type(got.inner.x) is int


@pytest.mark.parametrize("value, key, expected", [
    ({"name": "a", "inner": {"n": True}}, "inner.n", "expected int"),
    ({"name": "a", "inner": {"n": 2.0}}, "inner.n", "expected int"),
    ({"name": "a", "inner": {"n": "2"}}, "inner.n", "expected int"),
    ({"name": "a", "inner": {"x": "0.5"}}, "inner.x", "expected float"),
    ({"name": "a", "inner": {"x": False}}, "inner.x", "expected float"),
    ({"name": "a", "flag": "no"}, "flag", "expected bool"),
    ({"name": "a", "flag": 1}, "flag", "expected bool"),
    ({"name": 0}, "name", "expected str"),
    ({"name": None}, "name", "expected str"),
    ({"name": "a", "maybe": 3}, "maybe", "expected str"),
    ({"name": "a", "pair": [1]}, "pair", "expected a list of 2"),
    ({"name": "a", "pair": [1, 2, 3]}, "pair", "expected a list of 2"),
    ({"name": "a", "pair": "ab"}, "pair", "expected a list of 2"),
    ({"name": "a", "pair": [1, 2.5]}, "pair[1]", "expected int"),
    ({"name": "a", "inner": [1]}, "inner", "expected a JSON object"),
    ({"name": "a", "items": {}}, "items", "expected a list"),
    ({"name": "a", "items": [{}, {"n": "x"}]}, "items[1].n", "expected int"),
    ({"name": "a", "inner": {"m": 1}}, "inner", "unknown keys ['m']"),
    ({"name": "a", "inner": {"n": -1}}, "inner", "n must be >= 0, got -1"),
])
def test_misfit_names_the_file_and_the_key(value, key, expected):
    with pytest.raises(ConfigError) as info:
        read(value)
    assert str(info.value).startswith(f"f.json: {key}: {expected}")


def test_root_errors_name_the_file():
    with pytest.raises(ConfigError, match=r"^f\.json: expected a JSON object, got \[\]$"):
        read([])
    with pytest.raises(ConfigError, match=r"^f\.json: unknown keys \['extra'\]$"):
        read({"name": "a", "extra": 1})
    with pytest.raises(ConfigError, match=r"^f\.json: missing keys \['name'\]$"):
        read({})


def test_the_boundary_picks_the_error_class():
    with pytest.raises(FormatError, match=r"^f\.json: inner: n must be >= 0, got -1$"):
        read({"name": "a", "inner": {"n": -1}}, error=FormatError)


def test_long_values_are_shortened_in_messages():
    with pytest.raises(ConfigError) as info:
        read({"name": "a", "flag": "x" * 10_000})
    assert len(str(info.value)) < 100


def test_field_checks_are_resolved_once_per_class(monkeypatch):
    @dataclass
    class Fresh:
        a: int = 0

    calls = []
    hints = typing.get_type_hints
    monkeypatch.setattr(schema.typing, "get_type_hints",
                        lambda cls: calls.append(cls) or hints(cls))
    for _ in range(5):
        assert from_json(list[Fresh], [{"a": 1}, {}], "f.json", ConfigError) \
            == [Fresh(a=1), Fresh()]
    assert calls == [Fresh]


# ---------------------------------------------------------------------
# non-finite floats: Python's json reads NaN, Infinity and -Infinity


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_float_is_refused(literal):
    value = json.loads(f'{{"name": "a", "inner": {{"x": {literal}}}}}')
    with pytest.raises(ConfigError, match=r"^f\.json: inner\.x: expected a finite float, got "):
        read(value)


@pytest.mark.parametrize("section, key, literal", [
    ("synth", "anomaly_shift", "Infinity"), ("train", "lr", "NaN"),
    ("loss", "temperature", "-Infinity")])
def test_a_non_finite_config_float_exits_2(section, key, literal, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(f'{{"{section}": {{"{key}": {literal}}}}}', encoding="utf-8")
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert f"{path}: {section}.{key}: expected a finite float" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


TINY = SynthConfig(n_normal_train=1, n_abnormal_train=1, n_normal_test=1, n_abnormal_test=1,
                   num_snippets=4, frames_per_snippet=2, d_in=4, region_len_range=(1, 2))
TINY_ENCODER = EncoderConfig(num_snippets=4, d_in=4, d_model=4, heads=2, depth=1)


def test_a_non_finite_manifest_float_exits_3(tmp_path, capsys):
    data, ckpt = tmp_path / "d", tmp_path / "m.wvck"
    generate_dataset(TINY, data)
    save_checkpoint(ckpt, TransformerModel.init(TINY_ENCODER, 0))
    manifest = data / MANIFEST_NAME
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace('"anomaly_shift": 4.0', '"anomaly_shift": NaN'),
                        encoding="utf-8")
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 3
    assert (f"{manifest}: config.anomaly_shift: expected a finite float, got nan"
            in capsys.readouterr().err)


def test_a_non_finite_checkpoint_header_value_exits_3(tmp_path, capsys):
    data, ckpt = tmp_path / "d", tmp_path / "m.wvck"
    generate_dataset(TINY, data)
    save_checkpoint(ckpt, TransformerModel.init(TINY_ENCODER, 0))
    raw = ckpt.read_bytes()
    good = b'"depth": 1, '
    assert good in raw
    ckpt.write_bytes(raw.replace(good, b'"depth":NaN,'))   # same length
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 3
    assert (f"{ckpt}: header: encoder.depth: expected int, got nan"
            in capsys.readouterr().err)
