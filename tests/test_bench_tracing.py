"""The benchmark's tracer wraps tagmerge functions by name and reads some
of their parameters by name; a rename must fail here, not in a traced run."""

import inspect
from pathlib import Path

import numpy as np

from tagmerge import analysis, corpus, features, learn, topicmodel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = features.featurize_all
    tracer = tracing.Tracer()
    try:
        tracing.install_setup(tracer)
        tracing.install_pipeline(tracer)
        assert features.featurize_all is not original
    finally:
        tracer.restore()
    assert features.featurize_all is original


def test_parameters_the_bench_notes_read_keep_their_names():
    def params(fn):
        return inspect.signature(fn).parameters

    assert "ts" in params(corpus.CorpusIndex.background_before)
    assert "path" in params(corpus.CorpusIndex.save)
    assert {"documents", "iterations"} <= set(params(topicmodel.fit_lda))
    assert "candidates" in params(features.featurize_all)
    assert "top_n" in params(features.avg_topic_overlap)


def test_fit_counts_the_learn_metrics_read(monkeypatch):
    """`learn.fits` counts `standardize_fit` calls, and `learn.cv_s` and
    `analysis.ablate_s` both span the one `cross_validate` call of `ablate`,
    so each fit must standardize once and `ablate` must fit all seven group
    subsets in that one call."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    rng = np.random.default_rng(3)
    layout, groups, binary = features.feature_layout()
    labels = np.tile([0, 1], 12)
    dataset = learn.Dataset(
        matrix=rng.normal(0, 1, size=(24, len(layout))) + labels[:, None],
        labels=labels,
        feature_names=layout,
        groups=groups,
        binary_mask=np.array([n in binary for n in layout]),
        schema_id="toy",
    )
    config = learn.TrainConfig(epochs=5)
    folds = 3
    tracer = tracing.Tracer()
    try:
        tracing.install_pipeline(tracer)
        analysis.ablate(dataset, "linsvm", n_folds=folds, config=config)
        ablate_spans = len(tracer.spans)
        learn.holdout_evaluate(dataset, "logreg", config=config)
    finally:
        tracer.restore()

    def calls(name, spans):
        return sum(1 for span in spans if span[0] == name)

    in_ablate = tracer.spans[:ablate_spans]
    assert calls("learn.cross_validate", in_ablate) == 1
    assert len(analysis.ABLATION_COMBOS) == 7
    assert calls("learn.standardize_fit", in_ablate) == 7 * folds
    assert calls("learn.standardize_fit", tracer.spans[ablate_spans:]) == 1
    metrics = tracing.round_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["learn.fits"] == 7 * folds + 1
