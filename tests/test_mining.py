"""Mining tests against a brute-force reimplementation.

The oracle below recomputes every mining step with plain Python loops and
index clamping, sharing no code with the module under test. The exhaustive
sweep runs every binary pattern up to length 8 across a grid of window
configurations, plus randomised score sequences at the production length.
``mine_batch`` mines a whole (B, T) batch with array ops; the per-video
form it replaced (``oracles.mine_batch_per_video``) must give exactly the
same sets on random batches with ties and degenerate rows.
"""

import itertools

import numpy as np
import pytest

from wvad.errors import ConfigError
from oracles import mine_batch_per_video, views
from wvad.mining import (
    MinedSets,
    MiningConfig,
    erode,
    mine_batch,
    missed_pseudo_abnormal,
    threshold_predictions,
)

# ---------------------------------------------------------------------
# brute-force oracle (independent code path)


def bf_erode(pred, width):
    half = width // 2
    n = len(pred)
    out = []
    for t in range(n):
        vals = [pred[min(max(t + d, 0), n - 1)] for d in range(-half, half + 1)]
        out.append(1 if all(v == 1 for v in vals) else 0)
    return out


def bf_edges(pred, width):
    eroded = bf_erode(pred, width)
    return [t for t in range(len(pred)) if pred[t] == 1 and eroded[t] == 0]


def bf_missed(pred, window, min_count):
    hits = set()
    for start in range(len(pred) - window + 1):
        win = pred[start:start + window]
        if sum(win) >= min_count:
            hits.update(start + j for j, v in enumerate(win) if v == 0)
    return sorted(hits)


def bf_hard_abnormal(scores, cfg):
    pred = [1 if s > cfg.threshold else 0 for s in scores]
    return sorted(set(bf_edges(pred, cfg.erosion_width))
                  | set(bf_missed(pred, cfg.region_window, cfg.region_min_count)))


def bf_top_k(scores, k):
    order = sorted(range(len(scores)), key=lambda t: (-scores[t], t))
    return sorted(order[:k])


def bf_bottom_k(scores, k):
    order = sorted(range(len(scores)), key=lambda t: (scores[t], t))
    return sorted(order[:k])


def edges(pred, width):
    """Predicted positives removed by erosion: the run boundaries."""
    pred = np.asarray(pred)
    return np.flatnonzero(pred.astype(bool) & ~erode(pred, width)).tolist()


def ts(pairs):
    return [t for _, t in pairs]


def mine_one(scores, label, cfg):
    return mine_batch([("v", label, np.asarray(scores))], cfg)


# ---------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        MiningConfig(threshold=0.0)
    with pytest.raises(ConfigError):
        MiningConfig(erosion_width=2)
    with pytest.raises(ConfigError):
        MiningConfig(region_min_count=6, region_window=5)
    with pytest.raises(ConfigError):
        MiningConfig(k_easy=0)


# ---------------------------------------------------------------------
# thresholding


def test_threshold_strict_inequality():
    np.testing.assert_array_equal(
        threshold_predictions(np.array([0.2, 0.7, 0.5]), 0.5), [0, 1, 0])


def test_threshold_epsilon_zero_flags_positives():
    np.testing.assert_array_equal(
        threshold_predictions(np.array([0.1, 0.9, 0.0]), 0.0), [1, 1, 0])


def test_threshold_at_boundary_is_zero():
    np.testing.assert_array_equal(
        threshold_predictions(np.full(4, 0.5), 0.5), [0, 0, 0, 0])


# ---------------------------------------------------------------------
# erosion and edges


def test_erode_interior_run():
    np.testing.assert_array_equal(erode(np.array([0, 1, 1, 1, 0]), 3), [0, 0, 1, 0, 0])


def test_erode_all_ones_survives_replicate_padding():
    np.testing.assert_array_equal(erode(np.ones(5, dtype=np.uint8), 3), np.ones(5))


def test_erode_removes_isolated_spike():
    np.testing.assert_array_equal(erode(np.array([0, 1, 0]), 3), [0, 0, 0])


def test_erode_rejects_even_width():
    with pytest.raises(ValueError):
        erode(np.array([1, 0]), 2)


def test_erode_result_is_subset_of_input():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pred = (rng.random(16) > 0.5).astype(np.uint8)
        er = erode(pred, 3)
        assert np.all(er <= pred)


def test_edges_of_interior_run():
    assert edges(np.array([0, 1, 1, 1, 0]), 3) == [1, 3]


def test_edges_empty_prediction():
    assert edges(np.zeros(6, dtype=np.uint8), 3) == []


def test_edges_single_spike():
    assert edges(np.array([0, 1, 0]), 3) == [1]


def test_erode_rows_equal_each_row():
    """Erosion of a (B, T) array runs along time, row by row."""
    rng = np.random.default_rng(2)
    pred = rng.random((6, 11)) > 0.4
    for width in (1, 3, 5):
        rows = erode(pred, width)
        for i in range(pred.shape[0]):
            np.testing.assert_array_equal(rows[i], erode(pred[i], width))
            assert edges(pred[i], width) == bf_edges(pred[i].astype(int).tolist(), width)


def test_edges_union_eroded_recovers_prediction():
    """Erosion splits the prediction exactly into interior plus edges."""
    rng = np.random.default_rng(1)
    for width in (1, 3, 5):
        for _ in range(50):
            pred = (rng.random(20) > 0.4).astype(np.uint8)
            er = erode(pred, width)
            recovered = set(edges(pred, width)) | set(np.nonzero(er)[0].tolist())
            assert recovered == set(np.nonzero(pred)[0].tolist())


# ---------------------------------------------------------------------
# missed pseudo-abnormal


def missed(pred, window, min_count):
    return np.flatnonzero(missed_pseudo_abnormal(pred, window, min_count)).tolist()


def test_missed_single_window_hole():
    assert missed(np.array([1, 1, 0, 1, 1]), 5, 4) == [2]


def test_missed_below_count_threshold():
    assert missed(np.array([1, 0, 0, 1, 0]), 5, 4) == []


def test_missed_all_ones_has_no_zeros_to_flag():
    assert missed(np.ones(8, dtype=np.uint8), 5, 3) == []


def test_missed_validation():
    with pytest.raises(ValueError):
        missed_pseudo_abnormal(np.array([1, 0]), 5, 3)
    with pytest.raises(ValueError):
        missed_pseudo_abnormal(np.array([1, 0, 1, 0, 1]), 3, 4)


def test_missed_rows_match_brute_force():
    rng = np.random.default_rng(3)
    pred = (rng.random((40, 12)) > 0.5).astype(np.uint8)
    for window, min_count in ((1, 1), (3, 2), (5, 3), (12, 6)):
        rows = missed_pseudo_abnormal(pred, window, min_count)
        for i in range(pred.shape[0]):
            assert np.flatnonzero(rows[i]).tolist() == \
                bf_missed(pred[i].tolist(), window, min_count)


# ---------------------------------------------------------------------
# one video, spec'd examples


def test_hard_abnormal_plateau_yields_edges_only():
    # window count 3 < 4, so no missed zeros; only the run boundaries remain
    cfg = MiningConfig(region_window=5, region_min_count=4)
    scores = np.array([0.1, 0.8, 0.9, 0.8, 0.1])
    assert ts(mine_one(scores, 1, cfg).hard_abnormal) == [1, 3]


def test_hard_abnormal_all_quiet():
    cfg = MiningConfig()
    assert ts(mine_one(np.full(8, 0.2), 1, cfg).hard_abnormal) == []


def test_hard_abnormal_hole_sequence_matches_brute_force():
    cfg = MiningConfig(region_window=5, region_min_count=4)
    scores = np.array([0.9, 0.9, 0.2, 0.9, 0.9])
    got = ts(mine_one(scores, 1, cfg).hard_abnormal)
    assert got == bf_hard_abnormal(scores.tolist(), cfg)
    assert got == [1, 2, 3]


def test_hard_normal_examples():
    def hard_normal(scores, k):
        return ts(mine_one(scores, 0, MiningConfig(k_hard_normal=k, k_easy=1)).hard_normal)

    assert hard_normal(np.array([0.1, 0.7, 0.2, 0.6, 0.05]), 2) == [1, 3]
    assert hard_normal(np.array([0.3, 0.2, 0.1]), 3) == [0, 1, 2]
    assert hard_normal(np.full(5, 0.4), 2) == [0, 1]
    with pytest.raises(ValueError):
        hard_normal(np.ones(3), 4)


def test_easy_examples():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    # erosion width 1 and a 4/4 window leave no hard snippets: easy is the top 2
    quiet = MiningConfig(erosion_width=1, region_window=4, region_min_count=4, k_easy=2)
    assert ts(mine_one(scores, 1, quiet).easy_abnormal) == [0, 1]
    assert ts(mine_one(scores, 0, quiet).easy_normal) == [2, 3]
    # two isolated spikes are both edges, so easy is the top 3 minus them
    spiky = mine_one([0.9, 0.1, 0.8, 0.2, 0.1], 1, MiningConfig(k_easy=3))
    assert ts(spiky.hard_abnormal) == [0, 2]
    assert ts(spiky.easy_abnormal) == [3]
    with pytest.raises(ValueError):
        mine_one(scores, 1, MiningConfig(region_window=4, k_easy=5))
    with pytest.raises(ValueError):
        mine_one(scores, 2, quiet)


# ---------------------------------------------------------------------
# exhaustive equivalence with the brute force


def test_exhaustive_binary_patterns_match_brute_force():
    """Every binary pattern up to length 8, across a grid of configs; the
    patterns of one length are mined as one batch."""
    for n in range(1, 9):
        widths = (1, 3, 5)
        windows = sorted({1, 2, 3, min(5, n), n})
        patterns = list(itertools.product((0, 1), repeat=n))
        batch = [(f"p{i:03d}", 1, np.array([0.9 if b else 0.1 for b in bits]))
                 for i, bits in enumerate(patterns)]
        for width in widths:
            for window in windows:
                if window > n:
                    continue
                for min_count in sorted({1, (window + 1) // 2, window}):
                    cfg = MiningConfig(erosion_width=width, region_window=window,
                                       region_min_count=min_count, k_easy=1)
                    got = mine_batch(batch, cfg).hard_abnormal
                    want = tuple((vid, t) for vid, _, scores in batch
                                 for t in bf_hard_abnormal(scores.tolist(), cfg))
                    assert got == want, (n, width, window, min_count)


def test_random_score_sequences_match_brute_force():
    rng = np.random.default_rng(99)
    configs = [MiningConfig(),
               MiningConfig(erosion_width=5, region_window=7, region_min_count=4),
               MiningConfig(threshold=0.3)]
    for c, cfg in enumerate(configs):
        rows = rng.random((100, 32))
        batch = [(f"a{i:03d}", 1, r) for i, r in enumerate(rows)] + \
                [(f"n{i:03d}", 0, r) for i, r in enumerate(rows)]
        mined = mine_batch(batch, cfg)
        want_ha, want_ea, want_hn, want_en = [], [], [], []
        for i, r in enumerate(rows.tolist()):
            ha = bf_hard_abnormal(r, cfg)
            want_ha += [(f"a{i:03d}", t) for t in ha]
            want_ea += [(f"a{i:03d}", t) for t in sorted(set(bf_top_k(r, 3)) - set(ha))]
            want_hn += [(f"n{i:03d}", t) for t in bf_top_k(r, 3)]
            want_en += [(f"n{i:03d}", t) for t in bf_bottom_k(r, 3)]
        assert views(mined) == (tuple(want_ha), tuple(want_ea),
                                tuple(want_hn), tuple(want_en)), c


def test_mining_is_deterministic():
    rng = np.random.default_rng(5)
    batch = [(f"v{i}", i % 2, rng.random(32)) for i in range(8)]
    copy = [(vid, label, scores.copy()) for vid, label, scores in batch]
    assert views(mine_batch(batch, MiningConfig())) == views(mine_batch(copy, MiningConfig()))


# ---------------------------------------------------------------------
# batch mining


def _batch():
    return [
        ("abn-0", 1, np.array([0.1, 0.8, 0.9, 0.8, 0.1])),
        ("nrm-0", 0, np.array([0.5, 0.1, 0.2, 0.3, 0.4])),
    ]


def test_mine_batch_routes_by_label():
    cfg = MiningConfig(region_window=5, region_min_count=4,
                       k_hard_normal=2, k_easy=2)
    mined = mine_batch(_batch(), cfg)
    assert mined.hard_abnormal == (("abn-0", 1), ("abn-0", 3))
    assert mined.easy_abnormal == (("abn-0", 2),)
    assert mined.hard_normal == (("nrm-0", 0), ("nrm-0", 4))
    assert mined.easy_normal == (("nrm-0", 1), ("nrm-0", 2))


def test_mine_batch_hard_easy_disjoint_within_video():
    rng = np.random.default_rng(17)
    cfg = MiningConfig()
    videos = [(f"abn-{i}", 1, rng.random(32)) for i in range(20)]
    mined = mine_batch(videos, cfg)
    assert not set(mined.hard_abnormal) & set(mined.easy_abnormal)
    assert not (mined.ha & mined.ea).any()


def test_mine_batch_sets_come_from_matching_labels():
    cfg = MiningConfig(region_window=5, region_min_count=4)
    mined = mine_batch(_batch(), cfg)
    assert all(v == "abn-0" for v, _ in mined.hard_abnormal + mined.easy_abnormal)
    assert all(v == "nrm-0" for v, _ in mined.hard_normal + mined.easy_normal)


def test_mine_batch_rejects_bad_label():
    with pytest.raises(ValueError):
        mine_batch([("x", 3, np.ones(8))], MiningConfig())


def test_mined_sets_counts():
    ha, ea, hn, en = np.zeros((4, 2, 3), dtype=bool)
    ha[0, 1] = hn[1, 0] = hn[1, 2] = True
    mined = MinedSets(("a", "n"), ha, ea, hn, en)
    assert mined.counts() == {"HA": 1, "EA": 0, "HN": 2, "EN": 0}
    assert mined.hard_normal == (("n", 0), ("n", 2))


# ---------------------------------------------------------------------
# whole-batch masks against the per-video oracle


def _degenerate_row(rng, t_len, kind):
    if kind == "ones":
        return np.ones(t_len)
    if kind == "zeros":
        return np.zeros(t_len)
    if kind == "run":      # a single predicted-abnormal run
        row = np.full(t_len, 0.2)
        start = int(rng.integers(0, t_len))
        row[start:start + int(rng.integers(1, t_len + 1))] = 0.8
        return row
    if kind == "ties":
        return np.round(rng.random(t_len), 1)
    return rng.random(t_len)


def test_batch_masks_match_per_video_oracle():
    """Seeded property test: 300 random batches, in shuffled id order, with
    ties and all-ones, all-zeros and single-run rows; the sets are equal to
    the per-video oracle's exactly, and the counts are the masks' sums."""
    rng = np.random.default_rng(2026)
    kinds = ("ones", "zeros", "run", "ties", "random")
    configs = [MiningConfig(), MiningConfig(erosion_width=5, region_window=7,
                                            region_min_count=4, k_easy=5),
               MiningConfig(threshold=0.3, erosion_width=1, k_hard_normal=1)]
    for trial in range(300):
        cfg = configs[trial % len(configs)]
        size = int(rng.integers(1, 33))
        dtype = np.float32 if trial % 2 else np.float64
        ids = [f"v{j:02d}" for j in rng.permutation(size)]
        batch = [(vid, int(rng.integers(0, 2)),
                  _degenerate_row(rng, 32, kinds[int(rng.integers(0, len(kinds)))])
                  .astype(dtype)) for vid in ids]
        mined = mine_batch(batch, cfg)
        want = mine_batch_per_video(batch, cfg)
        assert views(mined) == want, trial
        assert mined.counts() == dict(zip(("HA", "EA", "HN", "EN"), map(len, want)))


def test_rows_of_different_lengths_are_mined_per_length():
    rng = np.random.default_rng(7)
    batch = [(f"v{i}", i % 2, rng.random(t_len))
             for i, t_len in enumerate((32, 8, 32, 5, 8, 5, 17))]
    mined = mine_batch(batch, MiningConfig())
    assert mined.ha.shape == (7, 32)
    assert views(mined) == mine_batch_per_video(batch, MiningConfig())


@pytest.mark.parametrize("batch", [
    [("n", 0, np.ones(2)), ("x", 3, np.ones(8))],            # k before the bad label
    [("x", 3, np.ones(8)), ("n", 0, np.ones(2))],
    [("a", 1, np.ones(8)), ("short", 1, np.ones(4))],        # window longer than video
    [("a", 1, np.ones(8)), ("n", 0, np.ones(6)), ("b", 1, np.ones(5)), ("m", 0, np.ones(2))],
])
def test_first_unminable_video_raises_the_oracle_error(batch):
    cfg = MiningConfig(k_hard_normal=6)
    with pytest.raises(ValueError) as want:
        mine_batch_per_video(batch, cfg)
    with pytest.raises(ValueError) as got:
        mine_batch(batch, cfg)
    assert str(got.value) == str(want.value)


def test_empty_batch_mines_nothing():
    mined = mine_batch([], MiningConfig())
    assert mined.counts() == {"HA": 0, "EA": 0, "HN": 0, "EN": 0}
    assert views(mined) == ((), (), (), ())
