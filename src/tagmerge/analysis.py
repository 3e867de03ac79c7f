"""Feature ranking and group ablation.

Continuous features are discretized into at most ten equal-frequency bins
before either statistic is computed; binary features keep their two levels.
Both statistics are ranked descending with name order breaking ties.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .features import GROUP_HASHTAG, GROUP_TWEET, GROUP_USER
from .learn import Dataset, EvalReport, TrainConfig, cross_validate, select_groups

MAX_BINS = 10

RANK_METHODS = ("chi2", "infogain")

ABLATION_COMBOS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("all", (GROUP_HASHTAG, GROUP_TWEET, GROUP_USER)),
    ("tweet+user", (GROUP_TWEET, GROUP_USER)),
    ("tweet+hashtag", (GROUP_HASHTAG, GROUP_TWEET)),
    ("hashtag+user", (GROUP_HASHTAG, GROUP_USER)),
    ("tweet", (GROUP_TWEET,)),
    ("user", (GROUP_USER,)),
    ("hashtag", (GROUP_HASHTAG,)),
)


def bin_column(values: np.ndarray, binary: bool, max_bins: int = MAX_BINS) -> np.ndarray:
    """Discrete bin ids for one feature column.

    Binary columns map to {0, 1} directly. Continuous columns use
    equal-frequency quantile edges; duplicate edges collapse, so heavily
    tied columns produce fewer than `max_bins` bins.
    """
    values = np.asarray(values, dtype=float)
    if binary:
        return (values > 0.5).astype(int)
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    edges = np.unique(np.quantile(values, quantiles))
    return np.searchsorted(edges, values, side="right").astype(int)


def _contingency(bins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    n_bins = int(bins.max()) + 1 if len(bins) else 0
    table = np.zeros((n_bins, 2))
    np.add.at(table, (bins, labels), 1.0)
    return table


def chi_square_stat(bins: np.ndarray, labels: np.ndarray) -> float:
    """Pearson chi-square of the bin/label contingency table, uncorrected."""
    table = _contingency(bins, labels)
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    mask = expected > 0
    return float(((table[mask] - expected[mask]) ** 2 / expected[mask]).sum())


def info_gain_stat(bins: np.ndarray, labels: np.ndarray) -> float:
    """Mutual information between bin id and label, in nats."""
    table = _contingency(bins, labels)
    total = table.sum()
    col = table.sum(axis=0) / total
    h_label = -np.sum(col[col > 0] * np.log(col[col > 0]))
    h_cond = 0.0
    for row in table:
        row_total = row.sum()
        if row_total == 0:
            continue
        p_row = row_total / total
        p = row[row > 0] / row_total
        h_cond += p_row * -np.sum(p * np.log(p))
    return float(h_label - h_cond)


@dataclass(frozen=True)
class FeatureRanking:
    method: str
    entries: tuple[tuple[int, float, str], ...]

    def top(self, n: int) -> tuple[str, ...]:
        return tuple(name for _, _, name in self.entries[:n])

    def statistic(self, name: str) -> float:
        for _, stat, entry_name in self.entries:
            if entry_name == name:
                return stat
        raise KeyError(name)

    def to_tsv(self) -> str:
        lines = ["rank\tstatistic\tfeature"]
        for rank, stat, name in self.entries:
            lines.append(f"{rank}\t{stat!r}\t{name}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_tsv())


def _rank(dataset: Dataset, stat_fn, method: str) -> FeatureRanking:
    labels = np.asarray(dataset.labels, dtype=int)
    if len(np.unique(labels)) < 2:
        raise ValueError("ranking needs both classes present")
    scored = []
    for col, name in enumerate(dataset.feature_names):
        bins = bin_column(dataset.matrix[:, col], bool(dataset.binary_mask[col]))
        scored.append((stat_fn(bins, labels), name))
    scored.sort(key=lambda item: (-item[0], item[1]))
    entries = tuple((rank, stat, name) for rank, (stat, name) in enumerate(scored, start=1))
    return FeatureRanking(method=method, entries=entries)


def chi_square_rank(dataset: Dataset) -> FeatureRanking:
    return _rank(dataset, chi_square_stat, "chi2")


def info_gain_rank(dataset: Dataset) -> FeatureRanking:
    return _rank(dataset, info_gain_stat, "infogain")


def rank_features(dataset: Dataset, method: str) -> FeatureRanking:
    if method not in RANK_METHODS:
        raise ValueError(f"unknown ranking method {method!r}")
    return chi_square_rank(dataset) if method == "chi2" else info_gain_rank(dataset)


@dataclass
class AblationReport:
    kind: str
    n_folds: int
    seed: int
    entries: dict[str, dict] = field(default_factory=dict)
    reports: dict[str, EvalReport] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_folds": self.n_folds,
            "seed": self.seed,
            "entries": self.entries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def format_table(self) -> str:
        lines = [f"{'feature groups':>16} {'features':>9} {'accuracy':>9} {'f-score':>9} {'roc':>9}"]
        for name, _ in ABLATION_COMBOS:
            e = self.entries[name]
            lines.append(
                f"{name:>16} {e['n_features']:>9d} {e['accuracy']:>9.4f} "
                f"{e['f_score']:>9.4f} {e['roc_area']:>9.4f}"
            )
        return "\n".join(lines)


def ablate(
    dataset: Dataset,
    kind: str = "logreg",
    n_folds: int = 10,
    seed: int = 0,
    config: TrainConfig | None = None,
) -> AblationReport:
    """Cross-validate every feature-group combination at a shared seed.

    The "all" row runs on the untouched dataset, so it reproduces a plain
    `cross_validate` call with the same parameters.
    """
    report = AblationReport(kind=kind, n_folds=n_folds, seed=seed)
    for name, groups in ABLATION_COMBOS:
        subset = select_groups(dataset, groups)
        result = cross_validate(subset, kind=kind, n_folds=n_folds, seed=seed, config=config)
        report.reports[name] = result
        report.entries[name] = {
            "groups": list(groups),
            "n_features": int(len(subset.feature_names)),
            "accuracy": result.accuracy,
            "precision": result.precision,
            "recall": result.recall,
            "f_score": result.f_score,
            "roc_area": result.roc_area,
        }
    return report
