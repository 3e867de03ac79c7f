"""Feature ranking statistics and the group ablation grid."""

import math

import numpy as np
import pytest
import scipy.stats

from tagmerge import analysis, learn
from tagmerge.analysis import (
    ABLATION_COMBOS,
    ablate,
    bin_column,
    chi_square_stat,
    info_gain_stat,
    rank_features,
)
from tagmerge.errors import SplitError
from tagmerge.features import ZoneCombo
from tagmerge.learn import Dataset, TrainConfig, cross_validate, stratified_folds

from oracles import reference_ablate
from test_learn import toy_dataset


# ---------------------------------------------------------------------------
# binning


def test_binary_columns_bin_directly():
    values = np.array([0.0, 1.0, 1.0, 0.0])
    assert bin_column(values, binary=True).tolist() == [0, 1, 1, 0]


def test_continuous_binning_is_equal_frequency():
    values = np.arange(100, dtype=float)
    bins = bin_column(values, binary=False)
    ids, counts = np.unique(bins, return_counts=True)
    assert len(ids) == 10
    assert counts.tolist() == [10] * 10


def test_tied_values_collapse_bins():
    values = np.array([1.0] * 50 + [2.0] * 50)
    bins = bin_column(values, binary=False)
    assert len(np.unique(bins)) == 2
    constant = bin_column(np.ones(20), binary=False)
    assert len(np.unique(constant)) == 1


@pytest.mark.parametrize("seed", range(3))
def test_continuous_binning_equals_numpy_quantile_edges(seed):
    """The edges are `np.unique(np.quantile(values, ...))` as floats, on
    tie-heavy, signed-zero and wide-range columns of every small length."""
    rng = np.random.default_rng(seed)
    quantiles = np.linspace(0.0, 1.0, 11)[1:-1]
    for n in range(1, 60):
        for values in (
            rng.normal(size=n) * 10.0 ** int(rng.integers(-5, 5)),
            rng.integers(0, 4, size=n).astype(float),
            rng.choice([-1.0, -0.0, 0.0, 1.0], size=n),
            rng.exponential(size=n) * 1e300,
        ):
            edges = np.unique(np.quantile(values, quantiles))
            assert np.array_equal(analysis._linear_quantiles(values, quantiles),
                                  np.quantile(values, quantiles))
            assert bin_column(values, binary=False).tolist() == np.searchsorted(
                edges, values, side="right").tolist()


# ---------------------------------------------------------------------------
# statistics


def test_chi_square_perfect_balanced_feature_equals_n():
    labels = np.array([0] * 50 + [1] * 50)
    bins = labels.copy()  # feature identical to the label
    assert chi_square_stat(bins, labels) == pytest.approx(100.0, abs=1e-9)


def test_chi_square_independent_feature_is_zero():
    labels = np.tile([0, 1], 20)
    bins = np.tile([0, 0, 1, 1], 10)  # same bin distribution in both classes
    assert chi_square_stat(bins, labels) == pytest.approx(0.0, abs=1e-9)


def test_chi_square_matches_scipy():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(30, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        values = rng.normal(0, 1, size=n) + 0.8 * labels * rng.random()
        bins = bin_column(values, binary=False)
        table = np.zeros((int(bins.max()) + 1, 2))
        np.add.at(table, (bins, labels), 1.0)
        table = table[table.sum(axis=1) > 0]  # scipy rejects empty rows
        expect = scipy.stats.chi2_contingency(table, correction=False).statistic
        assert chi_square_stat(bins, labels) == pytest.approx(expect, abs=1e-6)


def test_info_gain_perfect_feature_is_label_entropy():
    labels = np.array([0] * 30 + [1] * 30)
    assert info_gain_stat(labels.copy(), labels) == pytest.approx(math.log(2), abs=1e-9)
    skewed = np.array([0] * 45 + [1] * 15)
    h = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert info_gain_stat(skewed.copy(), skewed) == pytest.approx(h, abs=1e-9)


def test_info_gain_independent_feature_is_zero():
    labels = np.tile([0, 1], 20)
    bins = np.tile([0, 0, 1, 1], 10)
    assert info_gain_stat(bins, labels) == pytest.approx(0.0, abs=1e-9)


def test_info_gain_matches_entropy_decomposition():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(30, 100))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        bins = rng.integers(0, 4, size=n)

        def h(counts):
            p = np.array([c for c in counts if c > 0], dtype=float)
            p = p / p.sum()
            return float(-np.sum(p * np.log(p)))

        h_y = h(np.bincount(labels))
        h_cond = 0.0
        for b in np.unique(bins):
            sub = labels[bins == b]
            h_cond += len(sub) / n * h(np.bincount(sub, minlength=2))
        assert info_gain_stat(bins, labels) == pytest.approx(h_y - h_cond, abs=1e-9)


# ---------------------------------------------------------------------------
# ranking


def planted_dataset(n=80, n_noise=30, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.tile([0, 1], n // 2)
    perfect = labels.astype(float)
    noise = rng.normal(0, 1, size=(n, n_noise))
    matrix = np.column_stack([perfect, noise])
    names = ("planted",) + tuple(f"noise_{i:02d}" for i in range(n_noise))
    groups = {name: "tweet_content" for name in names}
    mask = np.array([True] + [False] * n_noise)
    return Dataset(
        matrix=matrix,
        labels=labels,
        feature_names=names,
        groups=groups,
        binary_mask=mask,
        schema_id="planted",
    )


def test_perfect_feature_ranks_first_under_both_methods():
    ds = planted_dataset()
    for ranking in (rank_features(ds, "chi2"), rank_features(ds, "infogain")):
        assert ranking.top(1) == ("planted",)
        assert len(ranking.entries) == 31
        ranks = [r for r, _, _ in ranking.entries]
        assert ranks == list(range(1, 32))
    assert rank_features(ds, "chi2").statistic("planted") == pytest.approx(80.0, abs=1e-9)
    assert rank_features(ds, "infogain").statistic("planted") == pytest.approx(math.log(2), abs=1e-9)


def test_rank_features_dispatch():
    ds = planted_dataset()
    assert rank_features(ds, "chi2").method == "chi2"
    assert rank_features(ds, "infogain").method == "infogain"
    with pytest.raises(ValueError):
        rank_features(ds, "fisher")


def test_ranking_requires_both_classes():
    ds = planted_dataset()
    ds.labels[:] = 1
    with pytest.raises(SplitError, match="ranking needs both classes present"):
        rank_features(ds, "chi2")


def read_ranking_tsv(path):
    """The (rank, statistic, feature) rows of a ranking file, below its header."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "rank\tstatistic\tfeature"
    rows = [line.split("\t") for line in lines]
    return tuple((int(rank), float(stat), name) for rank, stat, name in rows)


def test_ranking_tsv_round_trip(tmp_path):
    ds = planted_dataset()
    ranking = rank_features(ds, "chi2")
    path = tmp_path / "rank.tsv"
    ranking.save(path)
    assert read_ranking_tsv(path) == ranking.entries
    with pytest.raises(KeyError):
        ranking.statistic("absent")


# ---------------------------------------------------------------------------
# ablation


def grouped_dataset(n=40, seed=0):
    ds = toy_dataset(n=n, seed=seed, d=6)
    names = ds.feature_names
    ds.groups = {
        names[0]: "tweet_content",
        names[1]: "tweet_content",
        names[2]: "hashtag_content",
        names[3]: "hashtag_content",
        names[4]: "user",
        names[5]: "user",
    }
    return ds


def test_ablation_grid_shape_and_order():
    ds = grouped_dataset()
    cfg = TrainConfig(epochs=60)
    report = ablate(ds, "logreg", n_folds=4, seed=0, config=cfg)
    assert list(report.entries) == [name for name, _ in ABLATION_COMBOS]
    assert report.entries["tweet"]["n_features"] == 2
    assert report.entries["all"]["n_features"] == 6
    for name, groups in ABLATION_COMBOS:
        assert tuple(report.entries[name]["groups"]) == groups
    table = report.format_table()
    assert "tweet+hashtag" in table


def test_ablation_all_row_matches_plain_cross_validation():
    ds = grouped_dataset()
    cfg = TrainConfig(epochs=60)
    report = ablate(ds, "logreg", n_folds=4, seed=3, config=cfg)
    plain = cross_validate(ds, "logreg", n_folds=4, seed=3, config=cfg)
    assert report.entries["all"]["accuracy"] == plain.accuracy
    assert report.entries["all"]["roc_area"] == plain.roc_area
    assert report.reports["all"].to_json() == plain.to_json()


def test_ablation_json_is_deterministic():
    ds = grouped_dataset()
    cfg = TrainConfig(epochs=40)
    r1 = ablate(ds, "linsvm", n_folds=4, seed=1, config=cfg)
    r2 = ablate(ds, "linsvm", n_folds=4, seed=1, config=cfg)
    assert r1.to_json() == r2.to_json()


def test_ablation_without_a_group_names_the_empty_subset():
    ds = grouped_dataset()
    ds.groups = {name: "tweet_content" for name in ds.feature_names}
    with pytest.raises(ValueError, match="no features left after selecting groups"):
        ablate(ds, "logreg", n_folds=4, config=TrainConfig(epochs=5))


@pytest.mark.parametrize("kind", ["logreg", "linsvm"])
def test_ablation_equals_one_cross_validation_per_subset(kind, monkeypatch):
    """One batched call reports every subset as its own cut-down cross validation does.

    The tweet and user groups are equally wide, so "tweet" and "user" share a
    stack, and so do "tweet+hashtag" and "hashtag+user". The hashtag group
    holds combination slots, rebound in each fold from the training rows.
    """
    names = ("t0", "t1", "u0", "u1", "h0", "pos_combo_00", "pos_combo_01",
             "ne_combo_00", "ne_combo_01")
    groups = {name: {"t": "tweet_content", "u": "user"}.get(name[0], "hashtag_content")
              for name in names}
    pos_pairs = [("A", "N"), ("N", "N"), ("V", "N")]
    ne_pairs = [("none", "none"), ("PER", "none")]
    shapes = []
    real_fit = learn._fit_linear

    def fit_spy(kind, stack, labels, config, record_loss=False):
        shapes.append(stack.shape[1:])
        return real_fit(kind, stack, labels, config, record_loss)

    monkeypatch.setattr(learn, "_fit_linear", fit_spy)
    for n in (23, 26, 27, 29):  # 5 folds of two sizes
        rng = np.random.default_rng([n, 81])
        labels = rng.permutation(np.arange(n) % 2)
        combos = [
            ZoneCombo(pos=pos_pairs[int(rng.integers(3))], ne=ne_pairs[int(rng.integers(2))],
                      oov="INV-INV")
            for _ in range(n)
        ]
        matrix = rng.normal(0, 1, size=(n, len(names)))
        matrix[:, [0, 2]] += float(rng.choice([0.5, 1.5])) * labels[:, None]
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
        n_train = {n - len(f) for f in stratified_folds(labels, 5, seed)}
        assert len(n_train) == 2
        config = TrainConfig(
            learning_rate=float(rng.choice([0.05, 0.1, 0.5])),
            epochs=int(rng.integers(20, 80)),
            l2=float(rng.choice([0.0, 1e-3, 0.05])),
        )
        shapes.clear()
        got = ablate(dataset, kind, n_folds=5, seed=seed, config=config)
        # widths 9, 4, 7 (twice), 2 (twice) and 5: five shapes per fold size
        want_shapes = [(rows, width) for rows in n_train for width in (9, 4, 7, 2, 5)]
        assert sorted(shapes) == sorted(want_shapes)
        want = reference_ablate(dataset, kind, 5, seed, config)
        assert got.to_json() == want.to_json(), n
        assert list(got.reports) == list(want.reports)
        for name in got.reports:
            assert got.reports[name].to_json() == want.reports[name].to_json(), (n, name)
