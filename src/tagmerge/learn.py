"""Linear classifiers and evaluation protocol.

Both models are trained from scratch with full-batch (sub)gradient descent
under L2 regularization. Standardization statistics and combination-slot
bindings are always derived from training rows only, inside each fold, so
no test information leaks into the learner.

`train` fits one model on a whole dataset, and `holdout_evaluate` one on
its training split. `cross_validate` fits one model per fold and column
subset, but descends on them together: the fits whose training sets have
the same (rows, width) shape form one stack. A stratified cross validation
of one column set makes at most two descents, and the seven subsets of an
ablation share one set of folds and one descent per shape. Each fit's
weights are bit-identical to a fit on its training set alone. Descent
steps with the gradient alone. Only `train` computes the loss, to record
`LinearModel.loss_history`; evaluation fits never compute it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import SplitError, dataclass_fields, read_json
from .features import (
    NE_SLOT_NAMES, POS_SLOT_NAMES, FeatureSchema, FeatureVector, ZoneCombo, derive_combo_schema,
    read_feature_csv,
)

MODEL_FORMAT = "tagmerge-model"
MODEL_VERSION = 1

MODEL_KINDS = ("logreg", "linsvm")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 1e-3
    seed: int = 0
    init_scale: float = 0.01


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray
    binary_mask: np.ndarray


@dataclass
class Dataset:
    """Feature matrix with labels and enough metadata to refit honestly.

    `combos` holds each row's raw zone tag pairs; when present, fold-level
    training re-derives the combination slots from its own training rows.
    """

    matrix: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    groups: dict[str, str]
    binary_mask: np.ndarray
    schema_id: str
    combos: list[ZoneCombo] | None = None

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if len(self.labels) != self.matrix.shape[0]:
            raise ValueError("labels length does not match matrix")
        if len(self.feature_names) != self.matrix.shape[1]:
            raise ValueError("feature names do not match matrix width")
        if self.combos is not None and len(self.combos) != self.matrix.shape[0]:
            raise ValueError("combos length does not match matrix")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_vectors(
        cls,
        vectors: list[FeatureVector],
        labels,
        schema: FeatureSchema,
        combos: list[ZoneCombo],
    ) -> "Dataset":
        matrix = np.array([v.as_array(schema.names) for v in vectors], dtype=float)
        return cls._from_schema(matrix, np.asarray(labels, dtype=int), schema, list(combos))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        return cls._from_schema(*read_feature_csv(path))

    @classmethod
    def _from_schema(cls, matrix, labels, schema: FeatureSchema, combos) -> "Dataset":
        return cls(
            matrix=matrix,
            labels=labels,
            feature_names=schema.names,
            groups=dict(schema.groups),
            binary_mask=schema.binary_mask(),
            schema_id=schema.schema_id,
            combos=combos,
        )


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions in a sorted 1-d array at which each run of equal values
    starts; a NaN, equal to nothing, is a run of its own.

    Sort and mask code stands in for `np.unique` here and in `analysis`:
    the first `np.unique` call of a process imports `numpy.ma`.
    """
    change = np.empty(len(ordered), dtype=bool)
    change[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
    return np.flatnonzero(change)


def distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-d array and how often each occurs."""
    ordered = np.sort(values)
    starts = _run_starts(ordered)
    return ordered[starts], np.diff(starts, append=len(ordered))


def _complement(n: int, idx: np.ndarray) -> np.ndarray:
    """The ascending row indices of range(n) that are not in `idx`."""
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)


def balance_dataset(dataset: Dataset, seed: int = 0) -> Dataset:
    """Downsample the majority class to a 50/50 split, seeded."""
    labels = dataset.labels
    classes, counts = distinct(labels)
    if len(classes) != 2:
        raise SplitError("balancing needs exactly two classes")
    target = counts.min()
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for cls in classes:
        idx = np.where(labels == cls)[0]
        if len(idx) > target:
            idx = idx[np.sort(rng.permutation(len(idx))[:target])]
        keep.extend(idx.tolist())
    keep = sorted(keep)
    return replace(
        dataset,
        matrix=dataset.matrix[keep],
        labels=labels[keep],
        combos=[dataset.combos[i] for i in keep] if dataset.combos is not None else None,
    )


# ---------------------------------------------------------------------------
# standardization

def standardize_fit(matrix: np.ndarray, binary_mask: np.ndarray) -> StandardizationStats:
    """Column means and deviations of the continuous features."""
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("cannot fit standardization on an empty matrix")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    return StandardizationStats(mean=mean, std=std, binary_mask=np.asarray(binary_mask, dtype=bool))


def standardize_apply(stats: StandardizationStats, matrix: np.ndarray) -> np.ndarray:
    """Z-score continuous columns; binary columns pass through untouched.

    Zero-variance continuous columns map to zero. Each row transforms
    independently of every other row.
    """
    matrix = np.asarray(matrix, dtype=float)
    single = matrix.ndim == 1
    if single:
        matrix = matrix[None, :]
    out = matrix.copy()
    cont = ~stats.binary_mask
    std = stats.std[cont]
    centered = matrix[:, cont] - stats.mean[cont]
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(std > 0, centered / np.where(std > 0, std, 1.0), 0.0)
    out[:, cont] = scaled
    return out[0] if single else out


# ---------------------------------------------------------------------------
# models

@dataclass
class LinearModel:
    """A trained linear classifier with the statistics that standardize its input.

    `loss_history` holds the training loss before each epoch and after the
    last one. Only `train` records it; evaluation fits never compute the
    loss, and a loaded model's history is empty.
    """

    kind: str
    weights: np.ndarray
    bias: float
    config: TrainConfig
    stats: StandardizationStats
    schema_id: str
    feature_names: tuple[str, ...]
    loss_history: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def to_payload(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.kind,
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "config": asdict(self.config),
            "stats": {
                "mean": self.stats.mean.tolist(),
                "std": self.stats.std.tolist(),
                "binary_mask": self.stats.binary_mask.astype(int).tolist(),
            },
            "schema_id": self.schema_id,
            "feature_names": list(self.feature_names),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LinearModel":
        def decode(payload):
            stats = payload["stats"]
            return cls(
                kind=payload["kind"],
                weights=np.array(payload["weights"], dtype=float),
                bias=float(payload["bias"]),
                config=TrainConfig(**dataclass_fields(TrainConfig, payload["config"])),
                stats=StandardizationStats(
                    mean=np.array(stats["mean"], dtype=float),
                    std=np.array(stats["std"], dtype=float),
                    binary_mask=np.array(stats["binary_mask"], dtype=bool),
                ),
                schema_id=payload["schema_id"],
                feature_names=tuple(payload["feature_names"]),
            )

        return read_json(path, decode, MODEL_FORMAT, MODEL_VERSION)


def _logreg_gradient(stack: np.ndarray, labels: np.ndarray, l2: float):
    """Gradient function of the mean regularized logistic loss on a stack of training sets.

    `stack` holds F training sets of n rows, shape (F, n, d), and `labels`
    their labels, shape (F, n). The returned function maps parameters
    (F, d + 1), each row a member's weights followed by its bias, to their
    gradient in the same layout. It writes into a buffer it reuses, so the
    gradient is overwritten by the next call. For each member its
    floating-point operations and their order are those of the expression
    `matrix.T @ (p - labels) / n + l2 * weights`: the stacked products run
    one gemv per member, the BLAS call of the 2-d product, and the bias
    gradient reduces each row alone. So its results are bit-identical to
    that expression on each member alone.
    """
    n = labels.shape[1]
    d = stack.shape[2]
    stack_t = stack.transpose(0, 2, 1)
    err = np.empty(labels.shape)
    err_col = err[:, :, None]
    grad = np.empty((len(stack), d + 1))
    grad_w, grad_b = grad[:, :d], grad[:, d]
    grad_w_col = grad_w[:, :, None]

    def gradient(params: np.ndarray) -> np.ndarray:
        weights = params[:, :d]
        np.matmul(stack, weights[:, :, None], out=err_col)
        np.add(err, params[:, d:], out=err)
        # p = 0.5 * (1 + tanh(z / 2)), the logistic function without overflow
        np.multiply(err, 0.5, out=err)
        np.tanh(err, out=err)
        np.add(err, 1.0, out=err)
        np.multiply(err, 0.5, out=err)
        np.subtract(err, labels, out=err)
        np.matmul(stack_t, err_col, out=grad_w_col)
        np.add.reduce(err, axis=1, out=grad_b)
        np.divide(grad, n, out=grad)
        np.add(grad_w, l2 * weights, out=grad_w)
        return grad

    return gradient


def _hinge_gradient(stack: np.ndarray, labels: np.ndarray, l2: float):
    """Subgradient function of the mean regularized hinge loss; labels are 0/1.

    Same contract as `_logreg_gradient`, matching for each member the
    expression `-(matrix[active].T @ signed[active]) / n + l2 * weights`. A
    row is active when its margin 1 - s, with s = signed * z, is positive.
    That holds exactly when s < 1: for s >= 0.5 the subtraction is exact
    (Sterbenz), and for s < 0.5 it is at least 0.5. So the margin itself is
    never formed.

    The active rows of all members are gathered at once, and each member's
    product runs on its own slice of them. The slices end at the running
    sum of the members' active counts, one reduction per call, so a
    one-member stack counts nothing. A member with no active rows, common
    once a fit separates its training set, skips its product: the product
    of no rows is zero. A product over every row with the inactive ones
    zeroed would differ in the last bits, since the zeros shift how BLAS
    splits the sum. The bias gradient sums the active values of +-1, which
    is exact in any order.
    """
    n = labels.shape[1]
    members, d = len(stack), stack.shape[2]
    all_rows = stack.reshape(-1, d)
    signed = 2.0 * labels - 1.0
    scaled = np.empty(labels.shape)
    scaled_col = scaled[:, :, None]
    grad = np.empty((members, d + 1))
    grad_w, grad_b = grad[:, :d], grad[:, d]

    def gradient(params: np.ndarray) -> np.ndarray:
        weights = params[:, :d]
        np.matmul(stack, weights[:, :, None], out=scaled_col)
        np.add(scaled, params[:, d:], out=scaled)
        np.multiply(scaled, signed, out=scaled)
        active = scaled < 1.0
        rows = all_rows[active.ravel()]
        signed_active = signed[active]
        if members == 1:
            np.matmul(rows.T, signed_active, out=grad_w[0])
        else:
            # a member with no active rows keeps the zero product
            grad_w[...] = 0.0
            start = 0
            for member, end in enumerate(np.add.reduce(active, axis=1).cumsum().tolist()):
                if end > start:
                    np.matmul(rows[start:end].T, signed_active[start:end], out=grad_w[member])
                start = end
        np.add.reduce(signed, axis=1, where=active, out=grad_b)
        np.negative(grad, out=grad)
        np.divide(grad, n, out=grad)
        np.add(grad_w, l2 * weights, out=grad_w)
        return grad

    return gradient


def _logreg_loss(
    weights: np.ndarray, bias: float, matrix: np.ndarray, labels: np.ndarray, l2: float
) -> float:
    z = matrix @ weights + bias
    return float(np.mean(np.logaddexp(0.0, z) - labels * z) + 0.5 * l2 * np.dot(weights, weights))


def _hinge_loss(
    weights: np.ndarray, bias: float, matrix: np.ndarray, labels: np.ndarray, l2: float
) -> float:
    margin = 1.0 - (2.0 * labels - 1.0) * (matrix @ weights + bias)
    return float(np.mean(np.maximum(margin, 0.0)) + 0.5 * l2 * np.dot(weights, weights))


def _solo_gradient(
    kind: str, weights: np.ndarray, bias: float, matrix: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """The gradient of one training set, as the one-member stack of it."""
    grad = _GRADIENT[kind](matrix[None], labels[None], l2)(np.append(weights, bias)[None])
    return grad[0, :-1], float(grad[0, -1])


def logreg_loss_grad(
    weights: np.ndarray, bias: float, matrix: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean regularized logistic loss and its exact gradient."""
    grad_w, grad_b = _solo_gradient("logreg", weights, bias, matrix, labels, l2)
    return _logreg_loss(weights, bias, matrix, labels, l2), grad_w, grad_b


def hinge_loss_grad(
    weights: np.ndarray, bias: float, matrix: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean regularized hinge loss and a subgradient. Labels are 0/1."""
    grad_w, grad_b = _solo_gradient("linsvm", weights, bias, matrix, labels, l2)
    return _hinge_loss(weights, bias, matrix, labels, l2), grad_w, grad_b


_GRADIENT = {"logreg": _logreg_gradient, "linsvm": _hinge_gradient}
_LOSS = {"logreg": _logreg_loss, "linsvm": _hinge_loss}


def _fit_linear(
    kind: str,
    stack: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    record_loss: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Fit one model on each of a stack of training sets, all in one descent.

    `stack` is (F, n, d) and `labels` (F, n). Returns weights (F, d), biases
    (F,) and, if `record_loss`, each member's loss before each epoch and
    after the last, (F, epochs + 1). Every member starts from the same
    seeded weights, and its fit is bit-identical to a fit on it alone.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if np.any(labels.min(axis=1) == labels.max(axis=1)):
        raise SplitError("training data holds a single class")
    gradient = _GRADIENT[kind](stack, labels, config.l2)
    loss = _LOSS[kind]
    rng = np.random.default_rng(config.seed)
    d = stack.shape[2]
    # each row: a member's weights, then its bias, so one step moves both
    params = np.zeros((len(stack), d + 1))
    params[:, :d] = rng.normal(0.0, config.init_scale, size=d)
    weights, bias = params[:, :d], params[:, d]
    # before each epoch and after the last, one loss per member
    losses: list[list[float]] = []
    # row views of weights, which the descent updates in place
    members = list(zip(weights, stack, labels))

    def record_losses() -> None:
        losses.append([loss(w, b, m, y, config.l2) for (w, m, y), b in zip(members, bias.tolist())])

    for _ in range(config.epochs):
        if record_loss:
            record_losses()
        grad = gradient(params)
        grad *= config.learning_rate
        params -= grad
    if not record_loss:
        return weights, bias, None
    record_losses()
    return weights, bias, np.array(losses).T.copy()


def train(dataset: Dataset, kind: str = "logreg", config: TrainConfig | None = None) -> LinearModel:
    """L2-regularized logistic regression ("logreg") or linear SVM ("linsvm").

    Full-batch (sub)gradient descent on every row of the dataset, standardized
    by statistics of those same rows.
    """
    config = config or TrainConfig()
    stats = standardize_fit(dataset.matrix, dataset.binary_mask)
    standardized = standardize_apply(stats, dataset.matrix)
    weights, bias, history = _fit_linear(
        kind, standardized[None], dataset.labels.astype(float)[None], config, record_loss=True
    )
    return LinearModel(
        kind=kind,
        weights=weights[0],
        bias=float(bias[0]),
        config=config,
        stats=stats,
        schema_id=dataset.schema_id,
        feature_names=dataset.feature_names,
        loss_history=history[0],
    )


def _classify(kind: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0/1 predictions and scores from linear scores `z`.

    A logistic model scores the probability of class 1 and predicts 1 above
    0.5; an SVM scores the margin itself and predicts 1 above 0.0.
    """
    if kind == "logreg":
        scores = 0.5 * (1.0 + np.tanh(0.5 * z))
        return (scores > 0.5).astype(int), scores
    return (z > 0.0).astype(int), z


def predict(model: LinearModel, vector: FeatureVector | np.ndarray) -> tuple[int, float]:
    """Label and score of one raw (unstandardized) feature vector."""
    if isinstance(vector, FeatureVector):
        arr = vector.as_array(model.feature_names)
    else:
        arr = np.asarray(vector, dtype=float)
    standardized = standardize_apply(model.stats, arr[None, :])
    preds, scores = _classify(model.kind, standardized @ model.weights + model.bias)
    return int(preds[0]), float(scores[0])


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    kind: str
    accuracy: float
    precision: float
    recall: float
    f_score: float
    roc_area: float
    per_class: dict
    confusion: list
    n_rows: int
    per_fold: list = field(default_factory=list)
    protocol: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1) + "\n"

    def format_table(self) -> str:
        lines = [
            f"rows: {self.n_rows}   model: {self.kind}   protocol: {self.protocol}",
            f"{'class':>10} {'precision':>10} {'recall':>10} {'f-score':>10} {'support':>8}",
        ]
        for cls in sorted(self.per_class):
            m = self.per_class[cls]
            lines.append(
                f"{cls:>10} {m['precision']:>10.4f} {m['recall']:>10.4f} "
                f"{m['f_score']:>10.4f} {m['support']:>8d}"
            )
        lines.append(
            f"{'weighted':>10} {self.precision:>10.4f} {self.recall:>10.4f} {self.f_score:>10.4f}"
        )
        lines.append(f"accuracy: {self.accuracy:.4f}   roc area: {self.roc_area:.4f}")
        return "\n".join(lines)


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties count half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d and equally long")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    # a tie group spans sorted positions first..last and shares their mean
    # rank; NaN scores, which equal nothing, each rank alone
    first = _run_starts(scores[order])
    counts = np.diff(first, append=len(scores))
    last = first + counts - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, counts)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _metrics(y_true: np.ndarray, y_pred: np.ndarray, scores: np.ndarray) -> dict:
    """The EvalReport fields that the predictions decide, by field name.

    Every count comes from one 2x2 table: `confusion[t][p]` counts the rows
    of true class t predicted as p, both 0 or 1.
    """
    confusion = np.bincount(2 * y_true + y_pred, minlength=4).reshape(2, 2).tolist()
    per_class = {}
    weighted = {"precision": 0.0, "recall": 0.0, "f_score": 0.0}
    n = len(y_true)
    for cls in (0, 1):
        other = 1 - cls
        tp = confusion[cls][cls]
        fp = confusion[other][cls]
        fn = confusion[cls][other]
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[str(cls)] = {
            "precision": precision,
            "recall": recall,
            "f_score": f_score,
            "support": support,
        }
        for key, value in (("precision", precision), ("recall", recall), ("f_score", f_score)):
            weighted[key] += value * support / n
    return {
        "accuracy": (confusion[0][0] + confusion[1][1]) / n,
        **weighted,
        "per_class": per_class,
        "confusion": confusion,
        "roc_area": roc_auc(scores, y_true),
    }


def stratified_folds(labels, n_folds: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded stratified partition; fold sizes differ by at most one."""
    labels = np.asarray(labels, dtype=int)
    if n_folds < 2:
        raise SplitError(f"need at least 2 folds, got {n_folds}")
    classes, counts = distinct(labels)
    if len(classes) < 2:
        raise SplitError("dataset holds a single class")
    for cls, count in zip(classes, counts):
        if count < n_folds:
            raise SplitError(f"cannot make {n_folds} folds: class {cls} has {count} rows")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for ci, cls in enumerate(classes):
        idx = np.where(labels == cls)[0]
        shuffled = idx[rng.permutation(len(idx))]
        base, rem = divmod(len(shuffled), n_folds)
        # alternate remainder placement between front and back folds so the
        # combined fold sizes stay within one of each other
        extras = set(range(rem)) if ci % 2 == 0 else set(range(n_folds - rem, n_folds))
        pos = 0
        for f in range(n_folds):
            size = base + (1 if f in extras else 0)
            folds[f].extend(shuffled[pos : pos + size].tolist())
            pos += size
    return [np.array(sorted(f), dtype=int) for f in folds]


def _rebind_combo_columns(
    matrix: np.ndarray,
    feature_names: tuple[str, ...],
    combos: list[ZoneCombo],
    train_idx: np.ndarray,
) -> np.ndarray:
    """Copy of the matrix with combination slots derived from training rows.

    A slot column is 1.0 in the rows whose pair equals the pair bound to
    that slot, and 0.0 elsewhere and when the slot is unbound, exactly as
    `features.combo_bits` expands each row.
    """
    schema = derive_combo_schema([combos[i] for i in train_idx])
    out = matrix.copy()
    columns = {name: col for col, name in enumerate(feature_names)}
    for names, bound, row_pairs in (
        (POS_SLOT_NAMES, schema.pos_pairs, [c.pos for c in combos]),
        (NE_SLOT_NAMES, schema.ne_pairs, [c.ne for c in combos]),
    ):
        slot_of = {pair: slot for slot, pair in enumerate(bound) if pair is not None}
        row_slots = np.array([slot_of.get(pair, -1) for pair in row_pairs])
        for slot, name in enumerate(names):
            if name in columns:
                out[:, columns[name]] = row_slots == slot
    return out


def _standardized_split(
    matrix: np.ndarray,
    binary_mask: np.ndarray,
    columns: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Training and test rows of `columns`, standardized by the training rows' statistics."""
    train_m = matrix[np.ix_(train_idx, columns)]
    stats = standardize_fit(train_m, binary_mask[columns])
    test_m = matrix[np.ix_(test_idx, columns)]
    return standardize_apply(stats, train_m), standardize_apply(stats, test_m)


def _fit_eval_splits(
    dataset: Dataset,
    kind: str,
    splits: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
    subsets: list[np.ndarray] | None = None,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Predictions and scores of each split's test rows by a model fit on its
    training rows, for each column subset (by default one of every column):
    `results[s][i]` is subset s on split i.

    Combination slots are bound once per split, from its training rows and
    over every column; each fit then standardizes its own columns of them.
    Fits whose training sets share a (rows, width) shape are fit together in
    one stacked descent; stratified folds have at most two sizes. Stacks are
    never padded to one shape, since zero rows would change the sums' order.
    Each stack's fits are prepared just before its descent, so besides one
    slot-bound copy of the matrix per split, one stack of training rows is
    held at a time.
    """
    if subsets is None:
        subsets = [np.arange(dataset.matrix.shape[1])]
    matrices = [
        dataset.matrix if dataset.combos is None
        else _rebind_combo_columns(dataset.matrix, dataset.feature_names, dataset.combos, train_idx)
        for train_idx, _ in splits
    ]
    by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s, columns in enumerate(subsets):
        for i, (train_idx, _) in enumerate(splits):
            by_shape.setdefault((len(train_idx), len(columns)), []).append((s, i))
    results: list[list] = [[None] * len(splits) for _ in subsets]
    for shape, members in by_shape.items():
        stack = np.empty((len(members), *shape))
        test_ms = []
        for member, (s, i) in enumerate(members):
            stack[member], test_m = _standardized_split(
                matrices[i], dataset.binary_mask, subsets[s], *splits[i]
            )
            test_ms.append(test_m)
        labels = np.stack([dataset.labels[splits[i][0]] for _, i in members]).astype(float)
        weights, bias, _ = _fit_linear(kind, stack, labels, config)
        for (s, i), test_m, member_weights, member_bias in zip(members, test_ms, weights, bias):
            results[s][i] = _classify(kind, test_m @ member_weights + member_bias)
    return results


def cross_validate(
    dataset: Dataset,
    kind: str = "logreg",
    n_folds: int = 10,
    seed: int = 0,
    config: TrainConfig | None = None,
    subsets: list[np.ndarray] | None = None,
) -> EvalReport | list[EvalReport]:
    """Stratified k-fold cross validation with leak-free per-fold fitting.

    Without `subsets`, the report of the dataset's every column. With
    `subsets`, a list of column-index arrays, one report per subset, all
    over the same folds; each equals the report of the dataset cut down to
    that subset's columns.
    """
    config = config or TrainConfig()
    folds = stratified_folds(dataset.labels, n_folds, seed)
    splits = [(_complement(dataset.n_rows, test_idx), test_idx) for test_idx in folds]
    fitted = _fit_eval_splits(dataset, kind, splits, config, subsets)
    protocol = {"mode": "cv", "folds": n_folds, "seed": seed}
    reports = []
    for subset_fits in fitted:
        pooled_pred = np.zeros(dataset.n_rows, dtype=int)
        pooled_score = np.zeros(dataset.n_rows)
        per_fold = []
        for f, (test_idx, (preds, scores)) in enumerate(zip(folds, subset_fits)):
            pooled_pred[test_idx] = preds
            pooled_score[test_idx] = scores
            fold_metrics = _metrics(dataset.labels[test_idx], preds, scores)
            per_fold.append(
                {
                    "fold": f,
                    "n_test": int(len(test_idx)),
                    "accuracy": fold_metrics["accuracy"],
                    "roc_area": fold_metrics["roc_area"],
                }
            )
        m = _metrics(dataset.labels, pooled_pred, pooled_score)
        reports.append(EvalReport(
            kind=kind, n_rows=dataset.n_rows, per_fold=per_fold, protocol=dict(protocol), **m
        ))
    return reports[0] if subsets is None else reports


def holdout_evaluate(
    dataset: Dataset,
    kind: str = "logreg",
    test_fraction: float = 0.1,
    seed: int = 0,
    config: TrainConfig | None = None,
) -> EvalReport:
    """Stratified train/test split evaluation (9:1 by default)."""
    if not 0.0 < test_fraction < 1.0:
        raise SplitError(f"test_fraction must be in (0, 1), got {test_fraction}")
    config = config or TrainConfig()
    labels = dataset.labels
    classes, _ = distinct(labels)
    if len(classes) < 2:
        raise SplitError("dataset holds a single class")
    rng = np.random.default_rng(seed)
    test_parts = []
    for cls in classes:
        idx = np.where(labels == cls)[0]
        if len(idx) < 2:
            raise SplitError(f"class {cls} has fewer than 2 rows")
        n_test = min(len(idx) - 1, max(1, round(len(idx) * test_fraction)))
        shuffled = idx[rng.permutation(len(idx))]
        test_parts.append(shuffled[:n_test])
    test_idx = np.array(sorted(np.concatenate(test_parts)), dtype=int)
    train_idx = _complement(dataset.n_rows, test_idx)
    [[(preds, scores)]] = _fit_eval_splits(dataset, kind, [(train_idx, test_idx)], config)
    m = _metrics(labels[test_idx], preds, scores)
    protocol = {
        "mode": "holdout",
        "test_fraction": test_fraction,
        "seed": seed,
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
    }
    return EvalReport(kind=kind, n_rows=int(len(test_idx)), protocol=protocol, **m)
