"""Seeded property test of the training pre-flight: every small config and
tiny dataset that ``wvad train``'s checks accept can take a training step.

Each case draws a config (T, D, d_model, heads, depth, conv width, model
kind, ``loss.k``, the loss weights, the mining limits and the batch split)
and a dataset, written by hand as ``manifest.json`` and ``train.wvfd``, so a
one-snippet video, which ``wvad synth`` refuses, is reachable. Some datasets
hold a video of another snippet count, features of another width, or too few
videos of a class. The checks ``wvad train`` runs before it writes
``run.json`` (``_check_dataset_compat``, then ``_check_width`` on the loaded
split) either refuse the case with ``ConfigError``, or one ``train_step`` on
the first batch runs without raising, with mining engaged on about half of
the steps. The idea follows QuickCheck (Claessen and Hughes, ICFP 2000);
the cases come from a fixed seed, so a failure names a reproducible case.
"""

import dataclasses
import json

import numpy as np

from wvad import cli
from wvad.encoder import EncoderConfig
from wvad.errors import ConfigError
from wvad.losses import LossConfig
from wvad.mining import MiningConfig
from wvad.synthdata import FORMAT_VERSION, MANIFEST_NAME, SynthConfig, load_manifest, \
    write_features
from wvad.trainer import AdamState, BalancedSampler, TrainConfig, _build_model, train_step

CASES = 800
SEED = 20261020


def weight(rng) -> float:
    return 0.0 if rng.random() < 0.35 else float(rng.uniform(0.1, 2.0))


def random_config(rng) -> cli.ResolvedConfig:
    """The lengths the config puts on a video (``loss.k``, the mining window)
    run from 1 to one past T."""
    heads = int(rng.integers(1, 3))
    t = int(rng.choice([1, 1, 2, 3, 4, 5, 6]))
    window = int(rng.integers(1, t + 2))
    train = TrainConfig(
        lr=1e-3, seed=int(rng.integers(0, 100)),
        batch_normal=int(rng.integers(1, 4)), batch_abnormal=int(rng.integers(1, 4)),
        mining_warmup_epochs=int(rng.integers(0, 2)),
        model="linear" if rng.random() < 0.2 else "transformer",
        encoder=EncoderConfig(num_snippets=t, d_in=int(rng.integers(1, 5)),
                              d_model=heads * int(rng.integers(1, 4)), heads=heads,
                              depth=int(rng.integers(1, 3)),
                              conv_width=int(rng.choice([1, 3, 5]))),
        loss=LossConfig(k=int(rng.integers(1, t + 2)), smooth_weight=float(rng.uniform(0, 1)),
                        sparse_weight=float(rng.uniform(0, 1)),
                        temperature=float(rng.uniform(0.05, 1.0)),
                        w_contrast=weight(rng), w_snippet=weight(rng), w_video=weight(rng),
                        w_reg=weight(rng)),
        mining=MiningConfig(threshold=float(rng.uniform(0.1, 0.9)),
                            erosion_width=int(rng.choice([1, 3, 5])), region_window=window,
                            region_min_count=int(rng.integers(1, window + 1)),
                            k_hard_normal=int(rng.integers(1, 5)),
                            k_easy=int(rng.integers(1, 5))))
    return cli.ResolvedConfig(synth=SynthConfig(), train=train, ablate_seeds=[0])


def write_dataset(rng, root, encoder: EncoderConfig) -> None:
    """A train split of 2-6 videos per class, each of the encoder's T
    snippets and D features, except that about one dataset in ten has no
    video of a class, one in ten a video one snippet longer and one in ten
    features one wider."""
    t, d = encoder.num_snippets, encoder.d_in + (rng.random() < 0.1)
    counts = rng.integers(2, 7, size=2)
    if rng.random() < 0.1:
        counts[rng.integers(0, 2)] = 0
    labels = [0] * int(counts[0]) + [1] * int(counts[1])
    lengths = [t] * len(labels)
    if labels and rng.random() < 0.1:
        lengths[int(rng.integers(0, len(labels)))] += 1
    videos = [{"id": f"v{i}", "split": "train", "video_label": y, "num_frames": 4 * n,
               "num_snippets": n} for i, (y, n) in enumerate(zip(labels, lengths))]
    root.mkdir()
    (root / MANIFEST_NAME).write_text(json.dumps(
        {"format_version": FORMAT_VERSION, "config": None, "videos": videos}), encoding="utf-8")
    if videos:
        write_features(rng.normal(size=(sum(lengths), d)), root / "train.wvfd")


def test_a_config_the_pre_flight_accepts_takes_a_training_step(tmp_path):
    rng = np.random.default_rng(SEED)
    trained, refused = [], []
    for case in range(CASES):
        config = random_config(rng)
        root = tmp_path / f"case{case}"
        write_dataset(rng, root, config.train.encoder)
        manifest = load_manifest(root)
        try:
            cli._check_dataset_compat(manifest, config, ("train",), [config.train])
            triples = cli._train_triples(root, manifest)
            cli._check_width(root, "train", [f for _, _, f in triples], config)
        except ConfigError:
            refused.append(config.train)
            continue
        sampler = BalancedSampler([y for _, y, _ in triples], config.train.batch_normal,
                                  config.train.batch_abnormal)
        batch = sampler.epoch_batches(np.random.default_rng(case))[0]
        model = _build_model(config.train)
        epoch = int(rng.integers(0, 2))
        try:
            row = train_step(model, [triples[i] for i in batch], config.train,
                             AdamState.for_params(model.named_params()), step=1, epoch=epoch)
        except Exception as e:
            raise AssertionError(f"case {case} passed the pre-flight but its step raised "
                                 f"{type(e).__name__}: {e}; epoch {epoch}, "
                                 f"{dataclasses.asdict(config.train)}") from e
        assert row.step == 1 and np.isfinite(row.l_total), case
        trained.append((config.train, row))
    # both outcomes are common, and one-snippet videos reach both
    assert len(trained) >= CASES // 4 and len(refused) >= CASES // 4, (len(trained), len(refused))
    assert 1 in {c.encoder.num_snippets for c, _ in trained}
    assert 1 in {c.encoder.num_snippets for c in refused}
    # some steps trained on mined sets and some without
    assert {row.n_ea + row.n_en > 0 for _, row in trained} == {True, False}
