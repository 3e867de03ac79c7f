"""The benchmark's tracer wraps tagmerge functions by name and reads some
of their parameters by name; a rename must fail here, not in a traced run."""

import inspect
from pathlib import Path

from tagmerge import corpus, features, topicmodel

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
