"""Metric tests against O(n^2) pairwise oracles and the per-metric sorts.

The oracles below never sort: AUC counts every positive/negative pair with
Fraction arithmetic, and AP derives each positive's rank by pairwise
comparison under the same tie order the implementation documents. For
inputs too large for them, ``oracles.roc_auc``/``average_precision`` (one
sort per metric, each ranking every frame) are the reference. ``auc`` and
``ap`` below read one metric from ``evaluate``, the library's one entry.
Equality assertions are exact (==): every route computes the same rational
and rounds it once, so any difference is a real bug, not noise.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from wvad.errors import MetricError
from wvad.metrics import EvalRecord, evaluate, snippet_to_frame_scores


def auc(scores, labels):
    return evaluate(EvalRecord(scores, labels))[0]


def ap(scores, labels):
    return evaluate(EvalRecord(scores, labels))[1]


# ---------------------------------------------------------------------
# pairwise oracles (independent code path, no sorting)


def bf_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return float(Fraction(2 * wins + ties, 2 * len(pos) * len(neg)))


def bf_ap(scores, labels):
    """Rank each positive by counting items ahead of it: higher score first,
    negatives first at equal score, original order among equal positives."""
    n = len(scores)

    def ahead(j, i):
        if scores[j] != scores[i]:
            return scores[j] > scores[i]
        if labels[j] != labels[i]:
            return labels[j] < labels[i]
        return j < i

    terms = []
    n_pos = 0
    for i in range(n):
        if labels[i] != 1:
            continue
        n_pos += 1
        rank = 1 + sum(1 for j in range(n) if j != i and ahead(j, i))
        hits = 1 + sum(1 for j in range(n)
                       if j != i and labels[j] == 1 and ahead(j, i))
        terms.append(hits / rank)
    return math.fsum(terms) / n_pos


# ---------------------------------------------------------------------
# snippet-to-frame expansion


def test_expansion_divisible_repeats_each_score():
    scores = np.arange(32, dtype=np.float64)
    out = snippet_to_frame_scores(scores, 64)
    np.testing.assert_array_equal(out, np.repeat(scores, 2))


def test_expansion_floor_mapping_non_divisible():
    # floor(f*2/3) for f=0,1,2 -> 0, 0, 1
    out = snippet_to_frame_scores(np.array([0.3, 0.9]), 3)
    np.testing.assert_array_equal(out, [0.3, 0.3, 0.9])


def test_expansion_matches_index_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = int(rng.integers(1, 12))
        nf = int(rng.integers(t, 4 * t + 1))
        scores = rng.random(t)
        out = snippet_to_frame_scores(scores, nf)
        want = [scores[(f * t) // nf] for f in range(nf)]
        np.testing.assert_array_equal(out, want)


def test_expansion_constant_scores():
    out = snippet_to_frame_scores(np.full(4, 0.7), 11)
    np.testing.assert_array_equal(out, np.full(11, 0.7))


def test_expansion_identity_when_equal():
    scores = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(snippet_to_frame_scores(scores, 3), scores)


def test_expansion_rejects_fewer_frames_than_snippets():
    with pytest.raises(ValueError):
        snippet_to_frame_scores(np.ones(8), 7)


# ---------------------------------------------------------------------
# ROC-AUC


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_auc_half_for_mixed_ranking():
    # pairs: (0.8 vs 0.4) win, (0.8 vs 0.6) win, (0.2 vs 0.4) loss, (0.2 vs 0.6) loss
    assert auc([0.8, 0.4, 0.6, 0.2], [1, 0, 0, 1]) == 0.5


def test_auc_all_ties_is_half():
    assert auc([0.5, 0.5], [1, 0]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [0, 0])


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(11)
    scores = rng.random(40)
    labels = (rng.random(40) > 0.5).astype(int)
    labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    assert auc(3.0 * scores + 2.0, labels) == base
    assert auc(np.exp(scores), labels) == base


def test_auc_complement_without_ties():
    rng = np.random.default_rng(12)
    scores = rng.permutation(np.linspace(0.0, 1.0, 20))
    labels = (rng.random(20) > 0.5).astype(int)
    labels[0], labels[1] = 0, 1
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-15)


def test_auc_validation():
    with pytest.raises(ValueError):
        auc([0.1], [1, 0])
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 2])
    with pytest.raises(MetricError):
        auc([], [])


# ---------------------------------------------------------------------
# average precision


def test_ap_perfect_ranking():
    assert ap([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_ap_positive_at_rank_two():
    assert ap([0.2, 0.8], [1, 0]) == 0.5


def test_ap_hand_value_three_items():
    # ranked: 0.9(pos), 0.5(neg), 0.3(pos) -> (1/1 + 2/3)/2 = 5/6
    got = ap([0.9, 0.3, 0.5], [1, 1, 0])
    assert got == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_ap_tie_resolved_pessimistically():
    # optimistic ordering would give 1.0; the negative outranks at a tie
    assert ap([0.5, 0.5], [1, 0]) == 0.5


def test_ap_one_iff_every_positive_outranks_every_negative():
    assert ap([0.9, 0.7, 0.3, 0.1], [1, 1, 0, 0]) == 1.0
    assert ap([0.9, 0.3, 0.7, 0.1], [1, 1, 0, 0]) < 1.0


def test_ap_zero_positives_rejected():
    with pytest.raises(MetricError):
        ap([0.1, 0.2], [0, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected(bad):
    # unchecked, a NaN ranks as the top score for AUC (1.0) and last for AP (0.75)
    scores, labels = [0.1, bad, 0.3, 0.9], [0, 1, 0, 1]
    with pytest.raises(MetricError, match="^1 non-finite scores$"):
        EvalRecord(scores, labels)
    # a weighted entry's message counts the frames it stands for
    with pytest.raises(MetricError, match="^7 non-finite scores$"):
        EvalRecord(scores, labels, frame_counts=[2, 7, 1, 3])


# ---------------------------------------------------------------------
# oracle equivalence


def test_exhaustive_small_cases_match_oracles_exactly():
    """All label patterns up to n=6, with continuous and tie-heavy scores."""
    rng = np.random.default_rng(77)
    grid = np.array([0.1, 0.2, 0.3])   # forces plenty of ties
    for n in range(1, 7):
        for pattern in itertools.product((0, 1), repeat=n):
            labels = list(pattern)
            n_pos = sum(labels)
            for draw in range(3):
                scores = (rng.random(n) if draw < 2
                          else grid[rng.integers(0, 3, size=n)]).tolist()
                if 0 < n_pos < n:
                    assert evaluate(EvalRecord(scores, labels)) == \
                        (bf_auc(scores, labels), bf_ap(scores, labels))


def test_random_medium_cases_match_oracles_exactly():
    rng = np.random.default_rng(78)
    for i in range(100):
        n = 100
        labels = (rng.random(n) > rng.uniform(0.2, 0.8)).astype(int)
        labels[0], labels[1] = 0, 1
        scores = (rng.random(n) if i % 2 == 0
                  else np.round(rng.random(n), 1))   # rounded -> many ties
        assert evaluate(EvalRecord(scores, labels)) == \
            (bf_auc(scores.tolist(), labels.tolist()), bf_ap(scores.tolist(), labels.tolist()))


def frame_like(rng, n_snippets, frames, pos_rate, levels=None):
    """Frame scores as ``wvad eval`` builds them: float32 snippet scores
    (optionally rounded to ``levels`` values) repeated per frame, with
    uint8 labels."""
    s = rng.random(n_snippets).astype(np.float32)
    if levels is not None:
        s = (np.floor(s * levels) / levels).astype(np.float32)
    scores = np.repeat(s, frames).astype(np.float64)
    labels = (rng.random(scores.size) < pos_rate).astype(np.uint8)
    labels[:2] = (0, 1)
    return scores, labels


def assert_matches_per_metric_sorts(scores, labels):
    want = (oracles.roc_auc(scores, labels), oracles.average_precision(scores, labels))
    assert evaluate(EvalRecord(scores, labels)) == want


@pytest.mark.parametrize("levels", [None, 7, 100])
@pytest.mark.parametrize("pos_rate", [0.03, 0.4, 0.97])
def test_large_tie_heavy_frames_match_the_per_metric_sorts(levels, pos_rate):
    rng = np.random.default_rng(1000 + (levels or 0) + int(100 * pos_rate))
    assert_matches_per_metric_sorts(*frame_like(rng, 3000, 16, pos_rate, levels))


def test_tie_group_with_more_than_255_positives():
    """A uint8 count over one group wraps at 256; the group counts are int64."""
    rng = np.random.default_rng(5)
    scores = np.concatenate([np.full(700, 0.5), rng.random(300)])
    labels = np.concatenate([np.ones(600, np.uint8), np.zeros(100, np.uint8),
                             (rng.random(300) < 0.5).astype(np.uint8)])
    perm = rng.permutation(scores.size)
    assert_matches_per_metric_sorts(scores[perm], labels[perm])


def test_all_tied_input():
    labels = np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
    scores = np.full(labels.size, 0.25, dtype=np.float32).astype(np.float64)
    assert_matches_per_metric_sorts(scores, labels)
    # every negative ranks first: the positives sit at ranks 4..7
    assert evaluate(EvalRecord(scores, labels)) == \
        (0.5, math.fsum([1 / 4, 2 / 5, 3 / 6, 4 / 7]) / 4)


@pytest.mark.parametrize("label", [0, 1])
def test_single_class_frames_rejected_as_before(label):
    scores = np.linspace(0.0, 1.0, 50)
    labels = np.full(50, label, dtype=np.uint8)
    with pytest.raises(MetricError) as want:
        oracles.roc_auc(scores, labels)
    with pytest.raises(MetricError) as got:
        evaluate(EvalRecord(scores, labels))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("levels", [None, 5, 40])
@pytest.mark.parametrize("seed", range(4))
def test_weighted_records_equal_their_per_frame_expansion(seed, levels):
    """An entry of count c is c frames of its score and label, to the bit.
    Tied entries of both labels stand for a snippet's positive and negative
    frames; 5 levels put thousands of frames in a tie group."""
    rng = np.random.default_rng([2026, seed, levels or 0])
    n = 400
    scores = rng.random(n)
    if levels is not None:
        scores = np.floor(scores * levels) / levels
    labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.uint8)
    labels[:2] = (0, 1)
    counts = rng.integers(1, 40, size=n)
    frames = np.repeat(scores, counts), np.repeat(labels, counts)
    want = (oracles.roc_auc(*frames), oracles.average_precision(*frames))
    assert evaluate(EvalRecord(scores, labels, frame_counts=counts)) == want
    assert evaluate(EvalRecord(*frames)) == want


def test_evaluate_sorts_the_frames_once(monkeypatch):
    """AUC and AP share one sort of the scores (the per-metric route made
    three: an argsort, the sort inside np.unique and a lexsort)."""
    calls = []
    for name in ("argsort", "lexsort", "unique", "sort"):
        original = getattr(np, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    scores, labels = frame_like(np.random.default_rng(9), 200, 16, 0.3, levels=20)
    evaluate(EvalRecord(scores, labels))
    assert calls == ["argsort"]


# ---------------------------------------------------------------------
# record plumbing


def test_eval_record_validation():
    with pytest.raises(ValueError):
        EvalRecord(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        EvalRecord(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        EvalRecord(np.ones(3), np.ones(3), frame_counts=[1, 1])
    with pytest.raises(ValueError):
        EvalRecord(np.ones(3), np.ones(3), frame_counts=[1, 0, 1])


def test_evaluate_returns_both_metrics():
    rec = EvalRecord(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
    auc, ap = evaluate(rec)
    assert auc == 1.0
    assert ap == 1.0
