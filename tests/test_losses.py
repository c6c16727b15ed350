"""Loss-term tests: hand-evaluated reference values plus gradient checks.

Reference constants below were derived by hand from the definitions (BCE of
0.5 is ln 2, a single hinge with means 0.7/0.4 is 0.7, and so on), not read
back from the implementation.
"""

import math

import numpy as np
import pytest

import oracles
from wvad.errors import ConfigError, TrainingError
from wvad.losses import (
    LossBreakdown,
    LossConfig,
    ScoredBatch,
    loss_contrastive,
    loss_regularisation,
    loss_snippet_topk,
    loss_total,
    loss_video,
)
from oracles import mined_sets
from wvad.encoder import EncoderConfig, TransformerModel
from wvad.mining import MinedSets, MiningConfig, mine_batch
from wvad.tensor import Tensor, l2_normalize, unit_rows
from wvad.verification import grad_check


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def rows(*seqs):
    """(videos, T) float64 leaf, one row per sequence."""
    return t64(np.vstack(seqs))


def hinge(abn, nrm, k, pair_mode="matched"):
    """The hinge over abnormal score rows ``abn`` and normal rows ``nrm``,
    stacked into one batch, abnormal rows first."""
    return loss_snippet_topk(rows(*abn, *nrm), [1] * len(abn) + [0] * len(nrm), k, pair_mode)


# ---------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(k=0)
    with pytest.raises(ConfigError):
        LossConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        LossConfig(smooth_weight=-1.0)
    with pytest.raises(ConfigError):
        LossConfig(w_video=-0.1)
    with pytest.raises(ConfigError):
        LossConfig(pair_mode="everything")


# ---------------------------------------------------------------------
# video-level BCE


def test_video_loss_perfect_prediction_near_zero():
    out = loss_video(t64([1.0 - 1e-9]), [1])
    assert float(out.data) == pytest.approx(0.0, abs=1e-6)


def test_video_loss_half_is_ln2():
    out = loss_video(t64([0.5]), [0])
    assert float(out.data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_video_loss_quarter_is_ln4():
    out = loss_video(t64([0.25]), [1])
    assert float(out.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_video_loss_averages_over_batch():
    out = loss_video(t64([0.5, 0.25]), [0, 1])
    want = (math.log(2.0) + math.log(4.0)) / 2.0
    assert float(out.data) == pytest.approx(want, abs=1e-12)


def test_video_loss_length_mismatch():
    with pytest.raises(ValueError):
        loss_video(t64([0.5]), [0, 1])
    with pytest.raises(ValueError):
        loss_video(t64(np.zeros(0)), [])


def test_video_loss_clamp_keeps_gradient_finite():
    s = t64([1.0])   # would be log(0) without the clamp
    out = loss_video(s, [0])
    out.backward()
    assert math.isfinite(float(out.data))
    assert np.all(np.isfinite(s.grad))


def test_video_loss_passes_no_gradient_where_the_upper_clamp_binds():
    """A float32 sigmoid reaches exactly 1.0 (arm d drives abnormal scores
    there); the clamp then binds, whatever the label, and the score gets
    exactly 0. A score just inside the clamp still gets a gradient."""
    s = Tensor(np.array([1.0, 1.0, 0.5], dtype=np.float32), requires_grad=True)
    loss_video(s, [1, 0, 1]).backward()
    assert s.grad[0] == 0.0 and s.grad[1] == 0.0
    assert s.grad[2] != 0.0


def test_video_loss_fd():
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        scores = t64(rng.uniform(0.05, 0.95, size=4))
        labels = [0, 1, 1, 0]
        check = grad_check(lambda: loss_video(scores, labels), [("scores", scores)])
        assert check.passed, check.summary_lines()


# ---------------------------------------------------------------------
# top-k ranking hinge


def test_hinge_saturated_margin_is_zero():
    out = hinge([np.ones(6)], [np.zeros(6)], 3)
    assert float(out.data) == 0.0


def test_hinge_no_separation_is_one():
    out = hinge([np.full(6, 0.5)], [np.full(6, 0.5)], 3)
    assert float(out.data) == pytest.approx(1.0)


def test_hinge_hand_value():
    # top-k means 0.7 and 0.4 -> 1 - 0.7 + 0.4 = 0.7
    out = hinge([np.full(5, 0.7)], [np.full(5, 0.4)], 3)
    assert float(out.data) == pytest.approx(0.7, abs=1e-12)


def test_hinge_zero_beyond_margin_positive_inside():
    nrm = [0.0, 0.0, 0.0, 0.0]
    assert float(hinge([[1.0, 1.0, 1.0, 0.0]], [nrm], 3).data) == 0.0
    assert float(hinge([[0.9, 0.8, 0.7, 0.0]], [nrm], 3).data) > 0.0


@pytest.mark.parametrize("pair_mode", ["matched", "all_pairs"])
def test_hinge_passes_no_gradient_at_a_non_positive_margin(pair_mode):
    """Abnormal top-k mean 1 against normal 0 is margin 0, and 1 against
    -0.5 is margin -0.5: neither pair back-propagates anything."""
    for nrm in (0.0, -0.5):
        scores = rows(np.ones(4), np.full(4, nrm))
        loss_snippet_topk(scores, [1, 0], 2, pair_mode).backward()
        assert np.all(scores.grad == 0.0), scores.grad


def test_hinge_bounded_by_two():
    # worst case: abnormal all 0, normal all 1
    out = hinge([np.zeros(4)], [np.ones(4)], 2)
    assert float(out.data) == pytest.approx(2.0)


def test_hinge_k_too_large():
    with pytest.raises(ValueError):
        hinge([np.ones(3)], [np.ones(3)], 4)
    with pytest.raises(ValueError):
        loss_snippet_topk(rows(np.ones(3)), [1, 0], 2)


def test_hinge_fd():
    for seed in range(5):
        rng = np.random.default_rng(710 + seed)
        # distinct scores away from the hinge kink, the labels interleaved
        scores = rows(rng.permutation(np.linspace(0.1, 0.45, 8)),
                      rng.permutation(np.linspace(0.55, 0.9, 8)),
                      rng.permutation(np.linspace(0.55, 0.9, 8)),
                      rng.permutation(np.linspace(0.1, 0.45, 8)))
        for pair_mode in ("matched", "all_pairs"):
            check = grad_check(lambda: loss_snippet_topk(scores, [0, 1, 1, 0], 3, pair_mode),
                               [("scores", scores)])
            assert check.passed, check.summary_lines()


def test_hinge_batch_sums_pairs():
    # top-2 means: abnormal 0.9, 0.6; normal 0.3, 0.2
    abn = [[0.9, 0.9, 0.1], [0.6, 0.6, 0.0]]
    nrm = [[0.3, 0.3, 0.0], [0.2, 0.1, 0.3]]
    matched = hinge(abn, nrm, 2)
    assert float(matched.data) == pytest.approx((1 - 0.9 + 0.3) + (1 - 0.6 + 0.25), abs=1e-12)
    allp = hinge(abn, nrm, 2, "all_pairs")
    want = sum(1 - a + n for a in (0.9, 0.6) for n in (0.3, 0.25))
    assert float(allp.data) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------
# smoothness + sparsity


def test_reg_zero_scores():
    assert float(loss_regularisation(rows(np.zeros(8)), 1.0, 1.0).data) == 0.0


def test_reg_alternating_hand_value():
    # diffs [1,-1,1]: squares sum 3, /4 = 0.75; mean score 0.5 -> total 1.25
    out = loss_regularisation(rows([0.0, 1.0, 0.0, 1.0]), 1.0, 1.0)
    assert float(out.data) == pytest.approx(1.25, abs=1e-12)


def test_reg_constant_sequence_keeps_only_sparsity():
    out = loss_regularisation(rows(np.full(6, 0.3)), 1.0, 1.0)
    assert float(out.data) == pytest.approx(0.3, abs=1e-12)


def test_reg_invariant_to_temporal_reversal():
    rng = np.random.default_rng(8)
    for _ in range(20):
        y = rng.random(16)
        a = loss_regularisation(rows(y), 0.7, 0.3)
        b = loss_regularisation(rows(y[::-1].copy()), 0.7, 0.3)
        assert float(a.data) == pytest.approx(float(b.data), abs=1e-12)


def test_reg_needs_two_snippets():
    with pytest.raises(ValueError):
        loss_regularisation(rows([0.5]), 1.0, 1.0)


def test_reg_fd():
    rng = np.random.default_rng(720)
    y = t64(rng.random((3, 12)))
    check = grad_check(lambda: loss_regularisation(y, 0.6, 0.4), [("y", y)])
    assert check.passed, check.summary_lines()


def test_reg_batch_is_sum_of_videos():
    # per video: [0,1,0,1] -> 1.25 (above); constant 0.3 -> 0.3
    out = loss_regularisation(rows([0.0, 1.0, 0.0, 1.0], np.full(4, 0.3)), 1.0, 1.0)
    assert float(out.data) == pytest.approx(1.55, abs=1e-12)


# ---------------------------------------------------------------------
# contrastive


IDS = ("abn", "nrm")


def _features_one_each(anchor, positive, negative):
    """Abnormal video (rows 0..1: anchor, positive), normal video (row 0:
    negative, row 1 unused); mined sets point at those rows."""
    feats = t64(np.stack([np.vstack([anchor, positive]),
                          np.vstack([negative, np.full(len(negative), 9.0)])]))
    mined = mined_sets(IDS, 2, ha=[("abn", 0)], ea=[("abn", 1)], en=[("nrm", 0)])
    return feats, mined


def test_contrastive_empty_sets_zero():
    out = loss_contrastive(mined_sets(IDS, 3), t64(np.ones((2, 3, 4))), 0.07)
    assert float(out.data) == 0.0


def test_contrastive_equidistant_is_ln2():
    # positive and negative at the same similarity to the anchor
    feats, mined = _features_one_each([1.0, 0.0], [0.0, 1.0], [0.0, 1.0])
    out = loss_contrastive(mined, feats, 1.0)
    assert float(out.data) == pytest.approx(math.log(2.0), abs=1e-9)


def test_contrastive_aligned_positive_hand_value():
    # sim(a,p)=1, sim(a,n)=0, tau=1: -log(e / (e + 1))
    feats, mined = _features_one_each([1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    out = loss_contrastive(mined, feats, 1.0)
    want = -math.log(math.e / (math.e + 1.0))
    assert float(out.data) == pytest.approx(want, abs=1e-9)


def test_contrastive_decreases_as_positive_aligns():
    far, _ = _features_one_each([1.0, 0.0], [0.0, 1.0], [0.0, 1.0])
    near, mined = _features_one_each([1.0, 0.0], [0.9, 0.1], [0.0, 1.0])
    loss_far = float(loss_contrastive(mined, far, 0.5).data)
    loss_near = float(loss_contrastive(mined, near, 0.5).data)
    assert loss_near < loss_far


def test_contrastive_invariant_to_feature_scale():
    rng = np.random.default_rng(30)
    raw = rng.normal(size=(4, 6))
    neg = np.vstack([rng.normal(size=(2, 6)), np.ones((2, 6))])
    mined = mined_sets(IDS, 4, ha=[("abn", 0), ("abn", 1)], ea=[("abn", 2), ("abn", 3)],
                       en=[("nrm", 0), ("nrm", 1)])
    a = loss_contrastive(mined, t64(np.stack([raw, neg])), 0.07)
    b = loss_contrastive(mined, t64(np.stack([raw * 5.0, neg * 5.0])), 0.07)
    assert float(a.data) == pytest.approx(float(b.data), abs=1e-9)


def test_contrastive_symmetric_direction_only():
    """With only hard-normal anchors the second direction alone fires."""
    feats = t64(np.array([[[1.0, 0.0], [0.0, 1.0]],     # nrm
                          [[1.0, 0.0], [5.0, 5.0]]]))   # abn, row 1 unused
    mined = mined_sets(("nrm", "abn"), 2, ea=[("abn", 0)], hn=[("nrm", 0)],
                       en=[("nrm", 1)])
    out = loss_contrastive(mined, feats, 1.0)
    # anchor nrm0=e1, positive nrm1=e2 (sim 0), negative abn0=e1 (sim 1)
    want = -math.log(1.0 / (1.0 + math.e))
    assert float(out.data) == pytest.approx(want, abs=1e-9)


def test_contrastive_missing_positive_contributes_zero():
    feats = t64(np.stack([np.eye(2), np.eye(2)]))
    mined = mined_sets(IDS, 2, ha=[("abn", 0)], en=[("nrm", 0)])
    assert float(loss_contrastive(mined, feats, 0.07).data) == 0.0


def test_contrastive_rejects_masks_of_another_shape():
    _, mined = _features_one_each([1.0, 0.0], [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        loss_contrastive(mined, t64(np.ones((2, 3, 2))), 1.0)


def test_contrastive_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        loss_contrastive(mined_sets(IDS, 3), t64(np.ones((2, 3, 4))), 0.0)


def test_contrastive_fd():
    for seed in range(5):
        rng = np.random.default_rng(730 + seed)
        feats = t64(rng.normal(size=(2, 6, 4)))
        mined = mined_sets(IDS, 6, ha=[("abn", 0), ("abn", 1)], ea=[("abn", 3), ("abn", 4)],
                           hn=[("nrm", 2)], en=[("nrm", 0), ("nrm", 5)])
        check = grad_check(lambda: loss_contrastive(mined, feats, 0.5),
                           [("features", feats)])
        assert check.passed, check.summary_lines()


# ---------------------------------------------------------------------
# total objective


def _make_batch(rng, n_abn=2, n_nrm=2, t_len=8, d=4):
    """Abnormal videos first, then normal ones, all leaves float64."""
    return ScoredBatch(
        labels=np.array([1] * n_abn + [0] * n_nrm),
        scores=t64(rng.uniform(0.05, 0.95, size=(n_abn + n_nrm, t_len))),
        video_scores=t64(rng.uniform(0.1, 0.9, size=n_abn + n_nrm)),
        features=t64(rng.normal(size=(n_abn + n_nrm, t_len, d))))


def _mined_for(batch):
    cfg = MiningConfig(region_window=5, region_min_count=4, k_hard_normal=2, k_easy=2)
    ids = [f"v{i}" for i in range(len(batch.labels))]
    return mine_batch(list(zip(ids, batch.labels, batch.scores.data)), cfg)


def test_total_zero_weights_is_zero():
    rng = np.random.default_rng(40)
    batch = _make_batch(rng)
    cfg = LossConfig(w_contrast=0, w_snippet=0, w_video=0, w_reg=0)
    total, breakdown = loss_total(batch, None, cfg)
    assert float(total.data) == 0.0
    assert breakdown.l_total == 0.0


def test_total_unit_weights_additivity_exact():
    rng = np.random.default_rng(41)
    batch = _make_batch(rng)
    total, b = loss_total(batch, _mined_for(batch), LossConfig())
    assert b.l_total == ((b.l_cnt + b.l_snp) + b.l_vid) + b.l_reg
    assert float(total.data) == b.l_total


def test_total_single_class_batch_rejected():
    rng = np.random.default_rng(42)
    batch = _make_batch(rng, n_nrm=0)
    with pytest.raises(TrainingError):
        loss_total(batch, None, LossConfig())


def test_total_zero_weight_term_gets_no_gradient():
    rng = np.random.default_rng(43)
    batch = _make_batch(rng)
    cfg = LossConfig(w_contrast=0, w_snippet=1, w_video=0, w_reg=0)
    total, _ = loss_total(batch, _mined_for(batch), cfg)
    total.backward()
    assert batch.video_scores.grad is None
    assert batch.features.grad is None


def test_total_without_mined_sets_reports_zero_contrast():
    rng = np.random.default_rng(44)
    batch = _make_batch(rng)
    _, b = loss_total(batch, None, LossConfig())
    assert b.l_cnt == 0.0
    assert b.l_snp > 0.0


def test_total_matched_vs_all_pairs_counts():
    rng = np.random.default_rng(45)
    batch = _make_batch(rng, n_abn=2, n_nrm=1)
    # matched pairs: min(2,1)=1 hinge; all pairs: 2 hinges
    _, matched = loss_total(batch, None, LossConfig(w_contrast=0))
    _, allp = loss_total(batch, None, LossConfig(w_contrast=0, pair_mode="all_pairs"))
    s = batch.scores.data
    h01 = float(hinge([s[0]], [s[2]], 3).data)
    h11 = float(hinge([s[1]], [s[2]], 3).data)
    assert matched.l_snp == pytest.approx(h01, abs=1e-12)
    assert allp.l_snp == pytest.approx(h01 + h11, abs=1e-12)


def test_total_fd_through_all_terms():
    """Full-objective gradient check on leaf scores and features."""
    rng = np.random.default_rng(46)
    batch = _make_batch(rng, n_abn=1, n_nrm=1, t_len=6, d=3)
    mined = _mined_for(batch)
    cfg = LossConfig(smooth_weight=0.3, sparse_weight=0.2, temperature=0.5)

    params = [("scores", batch.scores), ("video_scores", batch.video_scores),
              ("features", batch.features)]
    check = grad_check(lambda: loss_total(batch, mined, cfg)[0], params)
    assert check.passed, check.summary_lines()


def test_total_gradient_reaches_each_head_through_its_term():
    rng = np.random.default_rng(47)
    batch = _make_batch(rng)
    # plateau pattern leaves snippet 2 easy (top-2 minus edges {1,3})
    batch.scores.data[0] = [0.1, 0.8, 0.9, 0.8, 0.1, 0.1, 0.1, 0.2]
    mined = _mined_for(batch)
    assert mined.easy_abnormal
    total, _ = loss_total(batch, mined, LossConfig())
    total.backward()
    assert batch.scores.grad is not None and np.any(batch.scores.grad != 0)
    assert batch.video_scores.grad is not None and np.all(batch.video_scores.grad != 0)
    assert batch.features.grad is not None and np.any(batch.features.grad != 0)


# ---------------------------------------------------------------------
# each term as one node against its composed form (tests/oracles.py)


def _objective_cases():
    """name -> (abnormal count, normal count, T, LossConfig, mined-set kind)."""
    weighted = LossConfig(w_contrast=0.5, w_snippet=2.0, w_video=0.25, w_reg=3.0, k=4,
                          smooth_weight=0.3, sparse_weight=0.01, temperature=0.2)
    return {
        "reference": (16, 16, 32, LossConfig(), "mined"),
        "reference_all_pairs": (16, 16, 32, LossConfig(pair_mode="all_pairs"), "mined"),
        "b2": (1, 1, 32, LossConfig(), "mined"),
        "uneven_5_3": (5, 3, 16, LossConfig(), "mined"),
        "uneven_2_6_all_pairs": (2, 6, 16, LossConfig(pair_mode="all_pairs"), "mined"),
        "uneven_3_5_weighted": (3, 5, 16, weighted, "mined"),
        "warm_up": (4, 4, 16, LossConfig(), None),
        "empty_sets": (4, 4, 16, LossConfig(), "empty"),
        "hard_normal_direction_only": (3, 2, 16, LossConfig(), "one_direction"),
        "tied_normal_rows": (2, 3, 16, weighted, "ties"),
        "shared_rows": (3, 2, 16, weighted, "shared"),
        "zero_weights": (3, 3, 16, LossConfig(w_contrast=0, w_snippet=0, w_video=0, w_reg=0),
                         "mined"),
    }


OBJECTIVE_CASES = list(_objective_cases())


def _objective_batch(name, dtype):
    """Labels interleaved in a seeded order, float leaves of ``dtype``, and
    mined sets taken from the float32 scores, so both dtypes share them."""
    n_abn, n_nrm, t_len, config, kind = _objective_cases()[name]
    rng = np.random.default_rng([50, OBJECTIVE_CASES.index(name)])
    labels = rng.permutation(np.array([1] * n_abn + [0] * n_nrm))
    scores = rng.uniform(0.05, 0.95, size=(labels.size, t_len))
    if kind == "ties":   # flat normal rows: their top and bottom snippets tie
        scores[labels == 0] = 0.25
    video_scores = rng.uniform(0.05, 0.95, size=labels.size)
    features = rng.normal(size=(labels.size, t_len, 32))
    ids = [f"v{i:02d}" for i in rng.permutation(labels.size)]
    mined = None
    if kind in ("mined", "ties"):
        mined = mine_batch(list(zip(ids, labels.tolist(), scores.astype(np.float32))),
                           MiningConfig())
    elif kind == "empty":
        mined = mined_sets(ids, t_len)
    elif kind == "one_direction":   # no hard abnormal snippet
        a = ids[np.flatnonzero(labels == 1)[0]]
        n0, n1 = (ids[i] for i in np.flatnonzero(labels == 0)[:2])
        mined = mined_sets(ids, t_len, ea=[(a, 2), (a, 7)], hn=[(n0, 1), (n1, 4)],
                           en=[(n0, 9), (n1, 0), (n1, 5)])
    elif kind == "shared":   # hand-built sets that share rows, which mining never gives
        a0, a1 = (ids[i] for i in np.flatnonzero(labels == 1)[:2])
        n0, n1 = (ids[i] for i in np.flatnonzero(labels == 0)[:2])
        mined = mined_sets(ids, t_len, ha=[(a0, 3), (a1, 0)], ea=[(a0, 3), (a1, 5)],
                           hn=[(n0, 1), (n1, 4)], en=[(n0, 1), (n1, 2), (n1, 4)])
    batch = ScoredBatch(labels=labels,
                        scores=Tensor(scores.astype(dtype), requires_grad=True),
                        video_scores=Tensor(video_scores.astype(dtype), requires_grad=True),
                        features=Tensor(features.astype(dtype), requires_grad=True))
    return batch, mined, config


def test_the_objective_cases_reach_every_set_kind():
    counts = {name: _objective_batch(name, np.float32)[1] for name in OBJECTIVE_CASES}
    assert all(counts["reference"].counts().values())
    assert not any(counts["empty_sets"].counts().values())
    one = counts["hard_normal_direction_only"]
    assert one.counts()["HA"] == 0 and all(one.counts()[k] for k in ("EA", "HN", "EN"))
    ties = counts["tied_normal_rows"]
    assert not (ties.hn & ties.en).any() and ties.counts()["EN"] == 3 * 3
    shared = counts["shared_rows"]
    assert (shared.ha & shared.ea).any() and (shared.hn & shared.en).any()


@pytest.mark.parametrize("name", OBJECTIVE_CASES)
def test_fused_terms_are_bitwise_the_composed_forms(name):
    batch, mined, config = _objective_batch(name, np.float32)
    labels = batch.labels
    abnormal, normal = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    pairs = [
        (loss_video(batch.video_scores, labels), oracles.loss_video(batch.video_scores, labels)),
        (loss_snippet_topk(batch.scores, labels, config.k, config.pair_mode),
         oracles.loss_snippet_topk(batch.scores[abnormal], batch.scores[normal], config.k,
                                   config.pair_mode)),
        (loss_regularisation(batch.scores, config.smooth_weight, config.sparse_weight),
         oracles.loss_regularisation(batch.scores, config.smooth_weight,
                                     config.sparse_weight)),
    ]
    if mined is not None:
        pairs.append((loss_contrastive(mined, batch.features, config.temperature),
                      oracles.loss_contrastive(mined, batch.features, config.temperature)))
    total, breakdown = loss_total(batch, mined, config)
    want_total, parts = oracles.loss_total(batch, mined, config)
    pairs.append((total, want_total))
    for got, want in pairs:
        assert got.data.dtype == want.data.dtype == np.float32
        assert np.asarray(got.data).tobytes() == np.asarray(want.data).tobytes()
    assert breakdown == LossBreakdown(l_total=float(want_total.data), **parts)


def _objective_grads(loss, name):
    batch, mined, config = _objective_batch(name, np.float64)
    total = loss(batch, mined, config)[0]
    leaves = (batch.scores, batch.video_scores, batch.features)
    if total.requires_grad:
        total.backward()
    return [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("name", OBJECTIVE_CASES)
def test_fused_objective_gradient_matches_the_composed_form(name):
    got = _objective_grads(loss_total, name)
    want = _objective_grads(oracles.loss_total, name)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("term", ["w_contrast", "w_snippet", "w_video", "w_reg"])
def test_a_term_alone_reaches_only_its_inputs(term):
    """Each term's weight alone: the other terms are not evaluated, so the
    leaves only they read get no gradient at all."""
    batch, mined, _ = _objective_batch("reference", np.float64)
    weights = dict.fromkeys(("w_contrast", "w_snippet", "w_video", "w_reg"), 0.0)
    total, _ = loss_total(batch, mined, LossConfig(**{**weights, term: 1.5}))
    total.backward()
    reached = {"w_contrast": "features", "w_snippet": "scores", "w_video": "video_scores",
               "w_reg": "scores"}[term]
    for leaf in ("scores", "video_scores", "features"):
        grad = getattr(batch, leaf).grad
        assert (grad is not None) == (leaf == reached), leaf
    assert np.any(getattr(batch, reached).grad != 0)


def test_all_zero_weights_leave_no_graph():
    batch, mined, _ = _objective_batch("zero_weights", np.float64)
    total, _ = loss_total(batch, mined, _objective_cases()["zero_weights"][3])
    assert not total.requires_grad and not total._parents


def _objective_bits(name, mined):
    """loss_total's and loss_contrastive's value and leaf-gradient bytes on
    the case's batch, with ``mined`` in place of the case's own sets."""
    objectives = [lambda b, c: loss_total(b, mined, c)[0]]
    if mined is not None:
        objectives.append(lambda b, c: loss_contrastive(mined, b.features, c.temperature))
    bits = []
    for objective in objectives:
        batch, _, config = _objective_batch(name, np.float64)
        value = objective(batch, config)
        if value.requires_grad:
            value.backward()
        bits.append(value.data.tobytes())
        bits.extend(None if leaf.grad is None else leaf.grad.tobytes()
                    for leaf in (batch.scores, batch.video_scores, batch.features))
    return bits


@pytest.mark.parametrize("name", OBJECTIVE_CASES)
def test_a_mined_batch_reused_gives_the_bits_of_a_fresh_one(name):
    """The gather plan is worked out on the first call and kept: later
    calls on the same ``MinedSets`` give the value and the gradients of a
    fresh one, bit for bit."""
    _, mined, _ = _objective_batch(name, np.float64)
    fresh = None if mined is None else MinedSets(mined.video_ids,
                                                 *(m.copy() for m in mined.masks()))
    want = _objective_bits(name, fresh)
    for _ in range(3):
        assert _objective_bits(name, mined) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_terms_are_bitwise_the_composed_forms_at_gradcheck_shapes(seed):
    """The gradient suite's objective: float64, B 2, T 4, d_model 4, 2
    heads, one snippet in each mined set."""
    config = EncoderConfig(num_snippets=4, d_in=3, d_model=4, heads=2, depth=1)
    model = TransformerModel.init(config, seed=seed, dtype=np.float64)
    batch = model.forward(np.random.default_rng([54, seed]).normal(size=(2, 4, 3)))
    batch.labels = labels = np.array([0, 1])
    mined = mined_sets(("nrm", "abn"), 4, ha=[("abn", 1)], ea=[("abn", 3)], hn=[("nrm", 0)],
                       en=[("nrm", 2)])
    cfg = LossConfig(k=2)
    pairs = [
        (loss_video(batch.video_scores, labels), oracles.loss_video(batch.video_scores, labels)),
        (loss_snippet_topk(batch.scores, labels, cfg.k),
         oracles.loss_snippet_topk(batch.scores[1:], batch.scores[:1], cfg.k)),
        (loss_regularisation(batch.scores, cfg.smooth_weight, cfg.sparse_weight),
         oracles.loss_regularisation(batch.scores, cfg.smooth_weight, cfg.sparse_weight)),
        (loss_contrastive(mined, batch.features, cfg.temperature),
         oracles.loss_contrastive(mined, batch.features, cfg.temperature)),
        (loss_total(batch, mined, cfg)[0], oracles.loss_total(batch, mined, cfg)[0]),
    ]
    for got, want in pairs:
        assert got.data.dtype == want.data.dtype == np.float64
        assert got.data.tobytes() == want.data.tobytes()


def test_unit_rows_of_the_gathered_sets_are_each_sets_own_bits():
    """The contrastive node normalises every set's rows in one call; each
    row's bits are those of normalising its set alone."""
    rng = np.random.default_rng(51)
    for sizes in ((326, 20, 48, 48), (1, 1, 1, 1), (3, 40, 1, 7)):
        sets = [rng.normal(size=(n, 32)).astype(np.float32) for n in sizes]
        together = unit_rows(np.concatenate(sets))[0]
        apart = np.concatenate([l2_normalize(Tensor(s)).data for s in sets])
        assert together.tobytes() == apart.tobytes()


def test_mined_sets_are_disjoint_even_where_scores_tie():
    """Mining never puts one snippet in two sets: not on untied scores, and
    not for a flat normal video, whose easy normal snippets are the lowest
    scored of those hard normal left."""
    for seed in range(20):
        rng = np.random.default_rng([52, seed])
        labels = rng.integers(0, 2, size=12)
        scores = rng.uniform(size=(12, 16))
        mined = mine_batch([(f"v{i}", int(y), s) for i, (y, s) in enumerate(zip(labels, scores))],
                           MiningConfig())
        masks = mined.masks()
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (masks[i] & masks[j]).any(), (seed, i, j)
    flat = mine_batch([("n", 0, np.full(16, 0.5)), ("a", 1, np.linspace(0, 1, 16))],
                      MiningConfig())
    assert flat.hard_normal == (("n", 0), ("n", 1), ("n", 2))
    assert flat.easy_normal == (("n", 3), ("n", 4), ("n", 5))
    short = mine_batch([("n", 0, np.full(4, 0.5)), ("a", 1, np.linspace(0, 1, 16))],
                       MiningConfig())
    assert short.easy_normal == (("n", 3),)
    for m in (flat, short):
        masks = m.masks()
        assert not any((masks[i] & masks[j]).any() for i in range(4) for j in range(i + 1, 4))


def test_contrastive_fd_with_shared_rows_and_one_direction():
    rng = np.random.default_rng(53)
    feats = t64(rng.normal(size=(2, 6, 4)))
    shared = mined_sets(IDS, 6, ha=[("abn", 0)], ea=[("abn", 3), ("abn", 4)],
                        hn=[("nrm", 2), ("nrm", 0)], en=[("nrm", 0), ("nrm", 5)])
    one = mined_sets(IDS, 6, ea=[("abn", 3)], hn=[("nrm", 2)], en=[("nrm", 0), ("nrm", 5)])
    for mined in (shared, one):
        check = grad_check(lambda: loss_contrastive(mined, feats, 0.5), [("features", feats)])
        assert check.passed, check.summary_lines()
