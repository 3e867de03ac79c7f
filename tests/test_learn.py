"""Linear models, gradients, folds, metrics, and evaluation protocol."""

import numpy as np
import pytest

from tagmerge.features import ZoneCombo, derive_combo_schema
from tagmerge.learn import (
    Dataset,
    _rebind_combo_columns,
    LinearModel,
    TrainConfig,
    balance_dataset,
    cross_validate,
    hinge_loss_grad,
    holdout_evaluate,
    logreg_loss_grad,
    predict,
    roc_auc,
    select_groups,
    standardize_apply,
    standardize_fit,
    stratified_folds,
    train_linsvm,
    train_logreg,
)


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


def central_difference(loss_fn, weights, bias, matrix, labels, l2, h=1e-6):
    grad_w = np.zeros_like(weights)
    for i in range(len(weights)):
        up = weights.copy()
        up[i] += h
        down = weights.copy()
        down[i] -= h
        grad_w[i] = (
            loss_fn(up, bias, matrix, labels, l2)[0] - loss_fn(down, bias, matrix, labels, l2)[0]
        ) / (2 * h)
    grad_b = (
        loss_fn(weights, bias + h, matrix, labels, l2)[0]
        - loss_fn(weights, bias - h, matrix, labels, l2)[0]
    ) / (2 * h)
    return grad_w, grad_b


def rel_err(got, expect):
    scale = np.maximum(np.abs(expect), 1.0)
    return np.max(np.abs(got - expect) / scale)


def test_logreg_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0, 1, size=(8, 5))
        labels = rng.integers(0, 2, size=8).astype(float)
        weights = rng.normal(0, 1, size=5)
        bias = float(rng.normal())
        _, grad_w, grad_b = logreg_loss_grad(weights, bias, matrix, labels, l2=0.01)
        fd_w, fd_b = central_difference(logreg_loss_grad, weights, bias, matrix, labels, 0.01)
        worst = max(worst, rel_err(grad_w, fd_w), rel_err(np.array([grad_b]), np.array([fd_b])))
    assert worst < 1e-4


def test_hinge_gradient_matches_finite_differences_off_the_kink():
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0, 1, size=(8, 5))
        labels = rng.integers(0, 2, size=8).astype(float)
        weights = rng.normal(0, 1, size=5)
        bias = float(rng.normal())
        signed = 2 * labels - 1
        margin = 1.0 - signed * (matrix @ weights + bias)
        if np.min(np.abs(margin)) < 1e-3:
            continue  # a central difference would straddle the hinge corner
        _, grad_w, grad_b = hinge_loss_grad(weights, bias, matrix, labels, l2=0.01)
        fd_w, fd_b = central_difference(hinge_loss_grad, weights, bias, matrix, labels, 0.01)
        assert rel_err(grad_w, fd_w) < 1e-4
        assert rel_err(np.array([grad_b]), np.array([fd_b])) < 1e-4
        checked += 1
    assert checked >= 25


# ---------------------------------------------------------------------------
# training


def test_logreg_separates_toy_data():
    ds = toy_dataset()
    model = train_logreg(ds)
    assert model.kind == "logreg"
    assert len(model.loss_history) == model.config.epochs + 1
    assert model.loss_history[-1] < model.loss_history[0]
    preds = [predict(model, ds.matrix[i])[0] for i in range(ds.n_rows)]
    assert preds == ds.labels.tolist()


def test_linsvm_separates_toy_data():
    ds = toy_dataset(seed=1)
    model = train_linsvm(ds)
    assert model.kind == "linsvm"
    preds = [predict(model, ds.matrix[i])[0] for i in range(ds.n_rows)]
    assert preds == ds.labels.tolist()


def test_training_is_seed_deterministic():
    ds = toy_dataset()
    m1 = train_logreg(ds, TrainConfig(epochs=50))
    m2 = train_logreg(ds, TrainConfig(epochs=50))
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    m3 = train_logreg(ds, TrainConfig(epochs=50, seed=9))
    assert not np.array_equal(m1.weights, m3.weights)


def test_training_rejects_single_class():
    ds = toy_dataset()
    ds.labels[:] = 1
    with pytest.raises(ValueError):
        train_logreg(ds)


def test_predict_scores_match_model_kind():
    ds = toy_dataset()
    logreg = train_logreg(ds)
    label, score = predict(logreg, ds.matrix[1])
    assert 0.0 < score < 1.0  # probability
    assert label == int(score > 0.5)
    svm = train_linsvm(ds)
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
    with pytest.raises(ValueError):
        stratified_folds(labels, 1)
    with pytest.raises(ValueError):
        stratified_folds(labels, 21)
    with pytest.raises(ValueError):
        stratified_folds(np.ones(10, dtype=int), 2)


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
    with pytest.raises(ValueError):
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


def test_holdout_split_sizes_and_protocol():
    ds = toy_dataset(n=60)
    report = holdout_evaluate(ds, "logreg", test_fraction=0.1, seed=0, config=TrainConfig(epochs=120))
    assert report.protocol["mode"] == "holdout"
    assert report.protocol["n_test"] == 6  # three per class
    assert report.protocol["n_train"] == 54
    assert report.n_rows == 6
    assert report.accuracy == 1.0
    with pytest.raises(ValueError):
        holdout_evaluate(ds, test_fraction=0.0)
    with pytest.raises(ValueError):
        holdout_evaluate(ds, test_fraction=1.0)


# ---------------------------------------------------------------------------
# persistence


def test_model_save_load_round_trip(tmp_path):
    ds = toy_dataset()
    model = train_logreg(ds, TrainConfig(epochs=60))
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
    with pytest.raises(ValueError):
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
