"""Feature ranking and group ablation.

Continuous features are discretized into at most ten equal-frequency bins
before either statistic is computed; binary features keep their two levels.
Both statistics are ranked descending with name order breaking ties.

The ablation cross-validates all seven feature-group subsets in one
`cross_validate` call over one set of folds: one stacked descent per
(training rows, width) shape across the subsets, not seven cross
validations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SplitError
from .features import GROUP_HASHTAG, GROUP_TWEET, GROUP_USER
from .learn import Dataset, EvalReport, TrainConfig, cross_validate, distinct

MAX_BINS = 10

ABLATION_COMBOS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("all", (GROUP_HASHTAG, GROUP_TWEET, GROUP_USER)),
    ("tweet+user", (GROUP_TWEET, GROUP_USER)),
    ("tweet+hashtag", (GROUP_HASHTAG, GROUP_TWEET)),
    ("hashtag+user", (GROUP_HASHTAG, GROUP_USER)),
    ("tweet", (GROUP_TWEET,)),
    ("user", (GROUP_USER,)),
    ("hashtag", (GROUP_HASHTAG,)),
)


def bin_column(values: np.ndarray, binary: bool) -> np.ndarray:
    """Discrete bin ids for one feature column.

    Binary columns map to {0, 1} directly. Continuous columns use
    equal-frequency quantile edges; duplicate edges collapse, so heavily
    tied columns produce fewer than MAX_BINS bins.
    """
    values = np.asarray(values, dtype=float)
    if binary:
        return (values > 0.5).astype(int)
    quantiles = np.linspace(0.0, 1.0, MAX_BINS + 1)[1:-1]
    edges, _ = distinct(_linear_quantiles(values, quantiles))
    return np.searchsorted(edges, values, side="right").astype(int)


def _linear_quantiles(values: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """`np.quantile(values, quantiles)` of finite values, with the same floats.

    The default "linear" method: each quantile q interpolates the sorted
    values at the virtual index (n - 1) * q, by the same operations numpy's
    uses. `np.quantile` itself calls `np.unique`, whose first call imports
    `numpy.ma`.
    """
    ordered = np.sort(values)
    n = len(ordered)
    virtual = (n - 1) * quantiles
    below = np.floor(virtual)
    above = below + 1
    # past the last value both neighbours are the last one, taken from the end
    last = virtual >= n - 1
    below[last] = above[last] = -1
    gamma = virtual - below
    a, b = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


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


_STATISTICS = {"chi2": chi_square_stat, "infogain": info_gain_stat}
RANK_METHODS = tuple(_STATISTICS)


def rank_features(dataset: Dataset, method: str) -> FeatureRanking:
    """Every feature ranked by the statistic `method` names, one of RANK_METHODS.

    A dataset of a single class raises SplitError.
    """
    if method not in _STATISTICS:
        raise ValueError(f"unknown ranking method {method!r}")
    stat_fn = _STATISTICS[method]
    labels = np.asarray(dataset.labels, dtype=int)
    if len(distinct(labels)[0]) < 2:
        raise SplitError("ranking needs both classes present")
    scored = []
    for col, name in enumerate(dataset.feature_names):
        bins = bin_column(dataset.matrix[:, col], bool(dataset.binary_mask[col]))
        scored.append((stat_fn(bins, labels), name))
    scored.sort(key=lambda item: (-item[0], item[1]))
    entries = tuple((rank, stat, name) for rank, (stat, name) in enumerate(scored, start=1))
    return FeatureRanking(method=method, entries=entries)


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

    One `cross_validate` call fits every subset on the same folds, with one
    stacked descent per (training rows, width) shape; each subset's report
    equals a cross validation of the dataset cut down to its groups'
    columns, and the "all" row a plain `cross_validate` call with the same
    parameters.
    """
    subsets = []
    for _, groups in ABLATION_COMBOS:
        columns = [i for i, n in enumerate(dataset.feature_names) if dataset.groups[n] in groups]
        if not columns:
            raise ValueError(f"no features left after selecting groups {groups}")
        subsets.append(np.array(columns))
    results = cross_validate(
        dataset, kind=kind, n_folds=n_folds, seed=seed, config=config, subsets=subsets
    )
    report = AblationReport(kind=kind, n_folds=n_folds, seed=seed)
    for (name, groups), columns, result in zip(ABLATION_COMBOS, subsets, results):
        report.reports[name] = result
        report.entries[name] = {
            "groups": list(groups),
            "n_features": len(columns),
            "accuracy": result.accuracy,
            "precision": result.precision,
            "recall": result.recall,
            "f_score": result.f_score,
            "roc_area": result.roc_area,
        }
    return report
