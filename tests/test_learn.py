"""Linear models, gradients, folds, metrics, and evaluation protocol."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from tagmerge import learn
from tagmerge.errors import CorpusFormatError, SplitError
from tagmerge.features import OOV_PAIRS, ZoneCombo, combo_bits, derive_combo_schema, feature_layout
from tagmerge.learn import (
    Dataset,
    _fit_linear,
    _rebind_combo_columns,
    LinearModel,
    TrainConfig,
    balance_dataset,
    cross_validate,
    distinct,
    holdout_evaluate,
    predict,
    roc_auc,
    standardize_apply,
    standardize_fit,
    stratified_folds,
    train,
)

from oracles import expression_gradient, reference_fit, reference_roc_auc, select_groups


def toy_dataset(n=40, seed=0, d=3, sep=8.0):
    """Linearly separable two-class data, class signal on the first axis."""
    rng = np.random.default_rng(seed)
    y = np.tile([0, 1], n // 2)
    x = rng.normal(0.0, 1.0, size=(n, d))
    x[:, 0] += sep * y - sep / 2
    names = tuple(f"f{i}" for i in range(d))
    return Dataset(
        matrix=x,
        labels=y,
        feature_names=names,
        groups={name: "tweet_content" for name in names},
        binary_mask=np.zeros(d, dtype=bool),
        schema_id="toy",
    )


# ---------------------------------------------------------------------------
# gradients


def solo_gradient(kind, weights, bias, matrix, labels, l2):
    """The library's gradient of one training set, as the one-member stack of it."""
    grad = learn._GRADIENT[kind](matrix[None], labels[None], l2)(np.append(weights, bias)[None])
    return grad[0, :-1], float(grad[0, -1])


def central_difference(kind, weights, bias, matrix, labels, l2, h=1e-6):
    """The library loss's central differences in each weight and the bias."""
    def loss(w, b):
        return learn._LOSS[kind](w, b, matrix, labels, l2)

    grad_w = np.zeros_like(weights)
    for i in range(len(weights)):
        up = weights.copy()
        up[i] += h
        down = weights.copy()
        down[i] -= h
        grad_w[i] = (loss(up, bias) - loss(down, bias)) / (2 * h)
    grad_b = (loss(weights, bias + h) - loss(weights, bias - h)) / (2 * h)
    return grad_w, grad_b


def rel_err(got, expect):
    scale = np.maximum(np.abs(expect), 1.0)
    return np.max(np.abs(got - expect) / scale)


def test_logreg_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0, 1, size=(10, 6))
        labels = rng.integers(0, 2, size=10).astype(float)
        weights = rng.normal(0, 1, size=6)
        bias = float(rng.normal())
        grad_w, grad_b = solo_gradient("logreg", weights, bias, matrix, labels, 0.01)
        fd_w, fd_b = central_difference("logreg", weights, bias, matrix, labels, 0.01)
        worst = max(worst, rel_err(grad_w, fd_w), rel_err(np.array([grad_b]), np.array([fd_b])))
    assert worst < 1e-4


def test_hinge_gradient_matches_finite_differences_off_the_kink():
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng([7, seed])
        matrix = rng.normal(0, 1, size=(10, 6))
        labels = rng.integers(0, 2, size=10).astype(float)
        weights = rng.normal(0, 1, size=6)
        bias = float(rng.normal())
        signed = 2 * labels - 1
        margin = 1.0 - signed * (matrix @ weights + bias)
        if np.min(np.abs(margin)) < 1e-3:
            continue  # a central difference would straddle the hinge corner
        grad_w, grad_b = solo_gradient("linsvm", weights, bias, matrix, labels, 0.01)
        fd_w, fd_b = central_difference("linsvm", weights, bias, matrix, labels, 0.01)
        assert rel_err(grad_w, fd_w) < 1e-4
        assert rel_err(np.array([grad_b]), np.array([fd_b])) < 1e-4
        checked += 1
    assert checked >= 60


def test_gradients_equal_their_out_of_place_expressions():
    """The buffered gradients do the expressions' arithmetic in the same order."""
    for seed in range(20):
        rng = np.random.default_rng([seed, 71])
        n, d = int(rng.integers(4, 91)), (1, 2, 9, 66)[seed % 4]
        matrix = rng.normal(0, 1, size=(n, d))
        labels = np.tile([0.0, 1.0], n)[:n]
        weights = rng.normal(0, 1, size=d)
        bias, l2 = float(rng.normal()), float(rng.choice([0.0, 1e-3, 0.1]))
        for kind in learn.MODEL_KINDS:
            grad_w, grad_b = solo_gradient(kind, weights, bias, matrix, labels, l2)
            want_w, want_b = expression_gradient(kind, weights, bias, matrix, labels, l2)
            assert np.array_equal(grad_w, want_w), (seed, kind)
            assert grad_b == want_b, (seed, kind)


@pytest.mark.parametrize("empty", [0, 1, 2], ids=["first", "middle", "last"])
def test_hinge_gradient_of_a_stack_member_with_no_active_rows(empty):
    """A member whose every margin is met gets a zero-length slice of the
    active rows, and the members around it keep theirs."""
    rng = np.random.default_rng([empty, 73])
    n, d, l2 = 12, 3, 0.01
    stack = rng.normal(0, 1, size=(3, n, d))
    labels = np.tile([0.0, 1.0], (3, n // 2))
    params = rng.normal(0, 1, size=(3, d + 1))
    # every row of the empty member lies 10 past its margin on the first axis
    stack[empty, :, 0] = 10.0 * (2.0 * labels[empty] - 1.0)
    params[empty] = (1.0, 0.0, 0.0, 0.0)
    grad = learn._hinge_gradient(stack, labels, l2)(params)
    for member in range(3):
        weights, bias = params[member, :d], params[member, d]
        matrix, y = stack[member], labels[member]
        active = 1.0 - (2.0 * y - 1.0) * (matrix @ weights + bias) > 0
        assert active.any() != (member == empty)
        want_w, want_b = expression_gradient("linsvm", weights, bias, matrix, y, l2)
        assert np.array_equal(grad[member, :d], want_w), member
        assert grad[member, d] == want_b, member
    assert np.array_equal(grad[empty, :d], l2 * params[empty, :d])


# ---------------------------------------------------------------------------
# training


@pytest.mark.parametrize("kind", ["logreg", "linsvm"])
def test_fit_equals_reference_loop_exactly(kind):
    """Each member of a stacked fit gets the reference loop's weights and bias alone.

    Stacks hold 1, 2, 5 or 10 training sets of 1, 3, 9 or 66 columns.
    """
    for seed in range(32):
        rng = np.random.default_rng([seed, 72])
        members, d = (1, 2, 5, 10)[seed % 4], (1, 3, 9, 66)[seed // 4 % 4]
        n = int(rng.integers(6, 91))
        stack = rng.normal(0, 1, size=(members, n, d))
        labels = (rng.random((members, n)) < 0.5).astype(float)
        labels[:, :2] = (0.0, 1.0)
        stack[:, :, 0] += 2.0 * labels
        config = TrainConfig(
            learning_rate=float(rng.choice([0.05, 0.1, 0.5])),
            epochs=int(rng.integers(20, 120)),
            l2=float(rng.choice([0.0, 1e-3, 0.05])),
            seed=seed,
        )
        weights, bias, history = _fit_linear(kind, stack, labels, config)
        assert history is None
        assert weights.shape == (members, d) and bias.shape == (members,)
        for member in range(members):
            want_w, want_b, _ = reference_fit(kind, stack[member], labels[member], config)
            assert np.array_equal(weights[member], want_w), (seed, member)
            assert bias[member] == want_b, (seed, member)


def test_hinge_fit_holds_rows_exactly_on_the_margin():
    """A row with margin 0.0 is inactive, so a fit that reaches it stays there.

    The first member reaches the margin; the second, fit in the same stack,
    keeps moving after the first has stopped.
    """
    stack = np.array([[[1.0], [-1.0]], [[0.5], [-2.0]]])
    labels = np.array([[1.0, 0.0], [1.0, 0.0]])
    config = TrainConfig(learning_rate=1.0, epochs=5, l2=0.0, init_scale=0.0)
    weights, bias, _ = _fit_linear("linsvm", stack, labels, config)
    wants = [reference_fit("linsvm", stack[member], labels[member], config) for member in (0, 1)]
    for member, (want_w, want_b, _) in enumerate(wants):
        assert np.array_equal(weights[member], want_w) and bias[member] == want_b
    matrix, y = stack[0], labels[0]
    assert weights[0].tolist() == [1.0] and bias[0] == 0.0
    assert (1.0 - (2.0 * y - 1.0) * (matrix @ weights[0] + bias[0])).tolist() == [0.0, 0.0]
    assert wants[0][2] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert not np.array_equal(weights[1], weights[0])


@pytest.mark.parametrize("kind", ["logreg", "linsvm"])
def test_trained_model_records_the_reference_losses(kind):
    ds = toy_dataset(n=30, d=4, sep=1.0)
    config = TrainConfig(epochs=90)
    model = train(ds, kind, config)
    standardized = standardize_apply(standardize_fit(ds.matrix, ds.binary_mask), ds.matrix)
    want_w, want_b, losses = reference_fit(kind, standardized, ds.labels.astype(float), config)
    assert model.loss_history.tolist() == losses
    assert np.array_equal(model.weights, want_w) and model.bias == want_b


def test_logreg_separates_toy_data():
    ds = toy_dataset()
    model = train(ds, "logreg")
    assert model.kind == "logreg"
    assert len(model.loss_history) == model.config.epochs + 1
    assert model.loss_history[-1] < model.loss_history[0]
    preds = [predict(model, ds.matrix[i])[0] for i in range(ds.n_rows)]
    assert preds == ds.labels.tolist()


def test_linsvm_separates_toy_data():
    ds = toy_dataset(seed=1)
    model = train(ds, "linsvm")
    assert model.kind == "linsvm"
    preds = [predict(model, ds.matrix[i])[0] for i in range(ds.n_rows)]
    assert preds == ds.labels.tolist()


def test_training_is_seed_deterministic():
    ds = toy_dataset()
    m1 = train(ds, "logreg", TrainConfig(epochs=50))
    m2 = train(ds, "logreg", TrainConfig(epochs=50))
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    m3 = train(ds, "logreg", TrainConfig(epochs=50, seed=9))
    assert not np.array_equal(m1.weights, m3.weights)


def test_training_rejects_single_class():
    ds = toy_dataset()
    ds.labels[:] = 1
    with pytest.raises(SplitError, match="training data holds a single class"):
        train(ds, "logreg")


def test_predict_scores_match_model_kind():
    ds = toy_dataset()
    logreg = train(ds, "logreg")
    label, score = predict(logreg, ds.matrix[1])
    assert 0.0 < score < 1.0  # probability
    assert label == int(score > 0.5)
    svm = train(ds, "linsvm")
    label2, score2 = predict(svm, ds.matrix[1])
    assert label2 == int(score2 > 0.0)  # raw margin


# ---------------------------------------------------------------------------
# standardization


def test_standardize_continuous_columns_by_hand():
    matrix = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
    stats = standardize_fit(matrix, np.array([False, True]))
    out = standardize_apply(stats, matrix)
    std = np.sqrt(2.0 / 3.0)
    assert out[:, 0] == pytest.approx([-1 / std, 0.0, 1 / std])
    assert np.array_equal(out[:, 1], matrix[:, 1])  # binary passthrough


def test_standardize_zero_variance_maps_to_zero():
    matrix = np.array([[5.0], [5.0], [5.0]])
    stats = standardize_fit(matrix, np.array([False]))
    out = standardize_apply(stats, matrix)
    assert np.array_equal(out, np.zeros((3, 1)))


def test_standardize_single_vector_matches_batch():
    matrix = np.array([[1.0, 0.0], [2.0, 1.0], [4.0, 0.0]])
    stats = standardize_fit(matrix, np.array([False, True]))
    batch = standardize_apply(stats, matrix)
    row = standardize_apply(stats, matrix[2])
    assert row.ndim == 1
    assert np.array_equal(row, batch[2])


# ---------------------------------------------------------------------------
# metrics


def test_roc_auc_hand_cases():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    # one inverted pair of four
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_roc_auc_ties_count_half():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)
    assert roc_auc([0.5, 0.5, 0.7], [0, 1, 1]) == pytest.approx(0.75)


def test_roc_auc_equals_the_tie_walking_loop():
    """Tie-heavy scores, with signed zeros and NaNs, rank as the loop ranks them."""
    values = np.array([-1.0, -0.0, 0.0, 0.25, 0.5, 2.0, np.nan])
    for seed in range(60):
        rng = np.random.default_rng([seed, 75])
        n = int(rng.integers(2, 80))
        pool = values if seed % 3 == 0 else values[:-1]
        scores = rng.choice(pool[: int(rng.integers(1, len(pool) + 1))], size=n)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        assert roc_auc(scores, labels) == reference_roc_auc(scores, labels), seed


def test_distinct_equals_numpy_unique():
    rng = np.random.default_rng(5)
    for n in range(0, 40):
        values = rng.integers(-3, 3, size=n)
        got_values, got_counts = distinct(values)
        expect_values, expect_counts = np.unique(values, return_counts=True)
        assert got_values.tolist() == expect_values.tolist()
        assert got_counts.tolist() == expect_counts.tolist()


def test_roc_auc_needs_both_classes():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        roc_auc([0.1], [1, 0])


# ---------------------------------------------------------------------------
# folds


def test_stratified_folds_partition_properties():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(20, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() < 5 or labels.sum() > n - 5:
            continue
        folds = stratified_folds(labels, 5, seed=trial)
        joined = np.concatenate(folds)
        assert len(joined) == n
        assert len(np.unique(joined)) == n  # disjoint cover
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for cls in (0, 1):
            per = [int(np.sum(labels[f] == cls)) for f in folds]
            assert max(per) - min(per) <= 1
        for f in folds:
            assert np.array_equal(f, np.sort(f))


def test_stratified_folds_determinism_and_errors():
    labels = np.tile([0, 1], 10)
    f1 = stratified_folds(labels, 4, seed=7)
    f2 = stratified_folds(labels, 4, seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(f1, f2))
    f3 = stratified_folds(labels, 4, seed=8)
    assert not all(np.array_equal(a, b) for a, b in zip(f1, f3))
    with pytest.raises(SplitError):
        stratified_folds(labels, 1)
    with pytest.raises(SplitError):
        stratified_folds(labels, 21)
    with pytest.raises(SplitError, match="dataset holds a single class"):
        stratified_folds(np.ones(10, dtype=int), 2)
    with pytest.raises(SplitError, match="class 1 has 3 rows"):
        stratified_folds([0] * 10 + [1] * 3, 4)


# ---------------------------------------------------------------------------
# dataset surgery


def test_balance_downsamples_majority_deterministically():
    ds = toy_dataset(n=40)
    ds.labels = np.array([1] * 28 + [0] * 12)
    ds.combos = [ZoneCombo(pos=("N", "N"), ne=("none", "none"), oov="INV-INV")] * 40
    balanced = balance_dataset(ds, seed=0)
    assert balanced.n_rows == 24
    assert int(balanced.labels.sum()) == 12
    assert len(balanced.combos) == 24
    again = balance_dataset(ds, seed=0)
    assert np.array_equal(balanced.matrix, again.matrix)
    other = balance_dataset(ds, seed=1)
    assert not np.array_equal(balanced.matrix, other.matrix)


def test_balance_requires_two_classes():
    ds = toy_dataset()
    ds.labels[:] = 0
    with pytest.raises(SplitError, match="balancing needs exactly two classes"):
        balance_dataset(ds)


def test_select_groups_filters_columns():
    ds = toy_dataset(d=4)
    ds.groups = {"f0": "hashtag_content", "f1": "tweet_content", "f2": "user", "f3": "user"}
    sub = select_groups(ds, ("user",))
    assert sub.feature_names == ("f2", "f3")
    assert sub.matrix.shape == (40, 2)
    assert np.array_equal(sub.matrix[:, 0], ds.matrix[:, 2])
    with pytest.raises(ValueError):
        select_groups(ds, ("no_such_group",))


def test_select_groups_drops_combos_without_slots():
    ds = toy_dataset(d=2)
    ds.feature_names = ("pos_combo_00", "f1")
    ds.groups = {"pos_combo_00": "hashtag_content", "f1": "user"}
    ds.combos = [ZoneCombo(pos=("N", "N"), ne=("none", "none"), oov="INV-INV")] * 40
    with_slots = select_groups(ds, ("hashtag_content",))
    assert with_slots.combos is not None
    without = select_groups(ds, ("user",))
    assert without.combos is None


# ---------------------------------------------------------------------------
# evaluation protocol


def test_cross_validate_pooled_report():
    ds = toy_dataset(n=60)
    report = cross_validate(ds, "logreg", n_folds=5, seed=0, config=TrainConfig(epochs=120))
    assert report.accuracy == 1.0
    assert report.roc_area == 1.0
    assert report.confusion == [[30, 0], [0, 30]]
    assert report.per_class["0"]["support"] == 30
    assert len(report.per_fold) == 5
    assert sum(f["n_test"] for f in report.per_fold) == 60
    assert report.protocol == {"mode": "cv", "folds": 5, "seed": 0}
    assert "accuracy" in report.format_table()


def test_cross_validate_is_deterministic():
    ds = toy_dataset(n=30)
    r1 = cross_validate(ds, "linsvm", n_folds=3, seed=2, config=TrainConfig(epochs=80))
    r2 = cross_validate(ds, "linsvm", n_folds=3, seed=2, config=TrainConfig(epochs=80))
    assert r1.to_json() == r2.to_json()


def test_combo_slots_rebound_inside_folds():
    """Slot columns are derived from training rows, so their stored values are inert."""
    rng = np.random.default_rng(5)
    n = 24
    y = np.tile([0, 1], n // 2)
    signal = rng.normal(0, 1, size=n) + 3.0 * y
    slots = np.zeros((n, 2))
    combos = [
        ZoneCombo(pos=("A", "N") if i % 3 else ("N", "N"), ne=("none", "none"), oov="INV-INV")
        for i in range(n)
    ]
    names = ("x0", "pos_combo_00", "pos_combo_01")
    groups = {"x0": "tweet_content", "pos_combo_00": "hashtag_content", "pos_combo_01": "hashtag_content"}
    mask = np.array([False, True, True])

    def build(slot_values):
        matrix = np.column_stack([signal, slot_values])
        return Dataset(
            matrix=matrix,
            labels=y.copy(),
            feature_names=names,
            groups=dict(groups),
            binary_mask=mask.copy(),
            schema_id="s",
            combos=list(combos),
        )

    clean = cross_validate(build(slots), "logreg", n_folds=4, seed=0, config=TrainConfig(epochs=60))
    garbage = cross_validate(
        build(slots + 9.0), "logreg", n_folds=4, seed=0, config=TrainConfig(epochs=60)
    )
    assert clean.to_json() == garbage.to_json()


def test_combo_slots_rebound_by_name_when_some_are_missing():
    pos = [("A", "N")] * 6 + [("N", "N")] * 4 + [("V", "N")] * 2
    combos = [ZoneCombo(pos=p, ne=("none", "none"), oov="INV-INV") for p in pos]
    names = ("x0", "pos_combo_01")  # slot 00 is absent
    train_idx = np.arange(len(combos))
    out = _rebind_combo_columns(np.zeros((len(combos), 2)), names, combos, train_idx)
    second = derive_combo_schema(combos).pos_pairs[1]
    assert second == ("N", "N")
    assert out[:, 1].tolist() == [1.0 if p == second else 0.0 for p in pos]
    assert out[:, 0].tolist() == [0.0] * len(combos)


def brute_force_rebind(matrix, feature_names, combos, train_idx):
    """Slot columns filled row by row from `combo_bits`."""
    schema = derive_combo_schema([combos[i] for i in train_idx])
    out = matrix.copy()
    for row, combo in enumerate(combos):
        bits = combo_bits(combo, schema)
        for col, name in enumerate(feature_names):
            if name.startswith(("pos_combo_", "ne_combo_")):
                out[row, col] = bits[name]
    return out


def test_rebind_matches_per_row_combo_bits():
    # 25 POS pairs without X and 24 NE pairs besides (none, none): more than
    # the 20 slots of each, so the cut after slot 20 can fall among tied counts
    pos_pairs = [(a, b) for a in "ANVDPX" for b in "ANVDPX"]
    ne_tags = ("none", "PER", "LOC", "ORG", "EVT")
    ne_pairs = [(a, b) for a in ne_tags for b in ne_tags]
    layout = feature_layout()[0]
    slots = [n for n in layout if n.startswith(("pos_combo_", "ne_combo_"))]
    assert len(slots) == 40
    seen = {"x_pair": 0, "none_pair": 0, "tie_at_cut": 0, "all": 0, "some": 0, "none": 0}
    for seed in range(45):
        rng = np.random.default_rng([seed, 74])
        n = int(rng.integers(6, 150))
        combos = [
            ZoneCombo(
                pos=pos_pairs[int(rng.integers(len(pos_pairs)))],
                ne=ne_pairs[int(rng.integers(len(ne_pairs)))],
                oov=OOV_PAIRS[int(rng.integers(len(OOV_PAIRS)))],
            )
            for _ in range(n)
        ]
        train_idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        mode = ("all", "some", "none")[seed % 3]
        if mode == "all":
            names = list(layout)
        elif mode == "some":
            names = [name for name in layout if rng.random() < 0.5] + [slots[seed % 40]]
        else:
            names = [name for name in layout if name not in slots]
        names = tuple(dict.fromkeys(names[i] for i in rng.permutation(len(names))))
        matrix = rng.normal(0, 5, size=(n, len(names)))

        got = _rebind_combo_columns(matrix, names, combos, train_idx)
        assert np.array_equal(got, brute_force_rebind(matrix, names, combos, train_idx)), seed

        train = [combos[i] for i in train_idx]
        seen["x_pair"] += any("X" in c.pos for c in train)
        seen["none_pair"] += any(c.ne == ("none", "none") for c in train)
        counts = sorted(
            (sum(c.pos == p for c in train) for p in pos_pairs if "X" not in p), reverse=True
        )
        seen["tie_at_cut"] += counts[19] == counts[20] > 0
        seen[mode] += 1
    assert all(seen.values()), seen


def reference_cross_validate(dataset, kind, n_folds, seed, config):
    """Cross validation one fold at a time: `combo_bits` slots, then the reference loop."""
    folds = stratified_folds(dataset.labels, n_folds, seed)
    pooled_pred = np.zeros(dataset.n_rows, dtype=int)
    pooled_score = np.zeros(dataset.n_rows)
    per_fold = []
    for f, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(dataset.n_rows), test_idx)
        matrix = brute_force_rebind(
            dataset.matrix, dataset.feature_names, dataset.combos, train_idx
        )
        stats = standardize_fit(matrix[train_idx], dataset.binary_mask)
        train_m = standardize_apply(stats, matrix[train_idx])
        train_y = dataset.labels[train_idx].astype(float)
        weights, bias, _ = reference_fit(kind, train_m, train_y, config)
        z = standardize_apply(stats, matrix[test_idx]) @ weights + bias
        scores = 0.5 * (1.0 + np.tanh(0.5 * z)) if kind == "logreg" else z
        preds = (scores > (0.5 if kind == "logreg" else 0.0)).astype(int)
        pooled_pred[test_idx] = preds
        pooled_score[test_idx] = scores
        fold = learn._metrics(dataset.labels[test_idx], preds, scores)
        per_fold.append(
            {
                "fold": f,
                "n_test": len(test_idx),
                "accuracy": fold["accuracy"],
                "roc_area": fold["roc_area"],
            }
        )
    return learn.EvalReport(
        kind=kind,
        n_rows=dataset.n_rows,
        per_fold=per_fold,
        protocol={"mode": "cv", "folds": n_folds, "seed": seed},
        **learn._metrics(dataset.labels, pooled_pred, pooled_score),
    )


@pytest.mark.parametrize("kind", ["logreg", "linsvm"])
def test_cross_validate_with_unequal_folds_equals_fold_by_fold_reference(kind):
    """Folds of two training sizes, each size one stack, report as fits one fold at a time do."""
    names = ("x0", "x1", "x2", "pos_combo_00", "pos_combo_01", "ne_combo_00", "ne_combo_01")
    groups = {name: "hashtag_content" if "combo" in name else "tweet_content" for name in names}
    pos_pairs = [("A", "N"), ("N", "N"), ("V", "N")]
    ne_pairs = [("none", "none"), ("PER", "none")]
    for n in (23, 24, 26, 27, 28, 29):  # 25 rows would split into 5 equal folds
        rng = np.random.default_rng([n, 76])
        labels = rng.permutation(np.arange(n) % 2)
        combos = [
            ZoneCombo(
                pos=pos_pairs[int(rng.integers(3))],
                ne=ne_pairs[int(rng.integers(2))],
                oov="INV-INV",
            )
            for _ in range(n)
        ]
        matrix = rng.normal(0, 1, size=(n, len(names)))
        matrix[:, 0] += 1.5 * labels
        dataset = Dataset(
            matrix=matrix,
            labels=labels,
            feature_names=names,
            groups=groups,
            binary_mask=np.array(["combo" in name for name in names]),
            schema_id="s",
            combos=combos,
        )
        seed = int(rng.integers(100))
        assert len({n - len(f) for f in stratified_folds(labels, 5, seed)}) == 2
        config = TrainConfig(
            learning_rate=float(rng.choice([0.05, 0.1, 0.5])),
            epochs=int(rng.integers(20, 80)),
            l2=float(rng.choice([0.0, 1e-3, 0.05])),
        )
        got = cross_validate(dataset, kind, n_folds=5, seed=seed, config=config)
        want = reference_cross_validate(dataset, kind, 5, seed, config)
        assert got.to_json() == want.to_json(), n


def test_holdout_split_sizes_and_protocol():
    ds = toy_dataset(n=60)
    report = holdout_evaluate(ds, "logreg", test_fraction=0.1, seed=0, config=TrainConfig(epochs=120))
    assert report.protocol["mode"] == "holdout"
    assert report.protocol["n_test"] == 6  # three per class
    assert report.protocol["n_train"] == 54
    assert report.n_rows == 6
    assert report.accuracy == 1.0
    with pytest.raises(SplitError):
        holdout_evaluate(ds, test_fraction=0.0)
    with pytest.raises(SplitError):
        holdout_evaluate(ds, test_fraction=1.0)


@pytest.mark.parametrize("kind", ["logreg", "linsvm"])
def test_train_and_predict_reproduce_holdout_evaluate(kind, monkeypatch):
    """Evaluation fits score test rows exactly as `predict` scores a trained model."""
    ds = toy_dataset(n=60, seed=2, sep=1.5)
    splits = []
    real = learn._fit_eval_splits

    def spy(dataset, kind, split_list, config):
        splits.extend(split_list)
        return real(dataset, kind, split_list, config)

    monkeypatch.setattr(learn, "_fit_eval_splits", spy)
    config = TrainConfig(epochs=60)
    report = holdout_evaluate(ds, kind, test_fraction=0.25, seed=4, config=config)
    ((train_idx, test_idx),) = splits
    train_rows = replace(ds, matrix=ds.matrix[train_idx], labels=ds.labels[train_idx])
    model = train(train_rows, kind, config)
    preds, scores = zip(*(predict(model, ds.matrix[i]) for i in test_idx))
    y = ds.labels[test_idx]
    confusion = [[int(np.sum((y == a) & (np.array(preds) == b))) for b in (0, 1)] for a in (0, 1)]
    assert confusion == report.confusion
    assert 0 < confusion[0][1] + confusion[1][0]  # some errors, so the scores decide something
    assert roc_auc(scores, y) == report.roc_area


# ---------------------------------------------------------------------------
# persistence


def test_model_save_load_round_trip(tmp_path):
    ds = toy_dataset()
    model = train(ds, "logreg", TrainConfig(epochs=60))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = LinearModel.load(path)
    for i in range(5):
        assert predict(loaded, ds.matrix[i]) == predict(model, ds.matrix[i])
    path2 = tmp_path / "again.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "nope"}')
    with pytest.raises(CorpusFormatError):
        LinearModel.load(path)


@pytest.mark.parametrize(
    "damage",
    [
        lambda payload: "{not json",
        lambda payload: [payload],
        lambda payload: {**payload, "config": {k: v for k, v in payload["config"].items() if k != "l2"}},
        lambda payload: {**payload, "stats": None},
    ],
    ids=["not-json", "list", "config-without-l2", "null-stats"],
)
def test_model_load_rejects_damaged_file(tmp_path, damage):
    path = tmp_path / "model.json"
    train(toy_dataset(), "logreg", TrainConfig(epochs=5)).save(path)
    damaged = damage(json.loads(path.read_text()))
    path.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
    with pytest.raises(CorpusFormatError, match=re.escape(str(path))):
        LinearModel.load(path)


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(
            matrix=np.zeros((3, 2)),
            labels=np.zeros(2, dtype=int),
            feature_names=("a", "b"),
            groups={"a": "user", "b": "user"},
            binary_mask=np.zeros(2, dtype=bool),
            schema_id="s",
        )
    with pytest.raises(ValueError):
        Dataset(
            matrix=np.zeros((3, 2)),
            labels=np.zeros(3, dtype=int),
            feature_names=("a",),
            groups={"a": "user"},
            binary_mask=np.zeros(1, dtype=bool),
            schema_id="s",
        )
