"""Spans around the public functions of each tagmerge module.

The tracer replaces module globals and class attributes with timing
wrappers, so callers that look a function up at call time (every
`module.function(...)` call and every function called from inside its own
module) run through the wrapper. A span records a name, a start, an end, the
index of the enclosing span and a few counts taken from the arguments or the
result. Spans stay in memory and are written out when the run ends.

Self time of a span is its duration minus the durations of its direct
children; spans never overlap, because the pipeline is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
from time import perf_counter

from tagmerge import analysis, cli, compound, corpus, features, learn, lexicon, synth, topicmodel

# avg_topic_overlap keeps this many words of each document per topic; a
# document with more distinct words is one where the fit decides the feature
TOP_N = inspect.signature(features.avg_topic_overlap).parameters["top_n"].default

# (feature group, extractor functions); times are per featurized candidate
EXTRACTOR_GROUPS = (
    ("hashtag_content", ("char_length", "word_count", "ngram_presence", "pos_diversity",
                         "zone_combo", "combo_bits")),
    ("word_overlap", ("word_overlap",)),
    ("ngram", ("ngram_overlap", "avg_common_ngram_freq")),
    ("collocation", ("collocation_frequency",)),
    ("clarity", ("hashtag_clarity",)),
    ("word_diversity", ("word_diversity",)),
    ("topic_overlap", ("avg_topic_overlap",)),
    ("user", ("user_features",)),
)


# every per-layer metric with its unit
LAYER_UNITS = {
    "corpus.ingest_s": "s",
    "corpus.save_s": "s",
    "corpus.tweets_per_s": "1/s",
    "corpus.index_bytes": "bytes",
    "corpus.load_s": "s",
    "corpus.loads": "count",
    "corpus.background_s": "s",
    "corpus.background_calls": "count",
    "corpus.background_rewinds": "count",
    "compound.detect_s": "s",
    "compound.filter_s": "s",
    "compound.label_s": "s",
    "compound.candidates": "count",
    "compound.eligible": "count",
    "compound.eligible_ratio": "ratio",
    "compound.labels": "count",
    "topicmodel.documents_s": "s",
    "topicmodel.fit_s": "s",
    "topicmodel.docs": "count",
    "topicmodel.tokens": "count",
    "topicmodel.sweeps": "count",
    "topicmodel.token_draws_per_s": "1/s",
    "topicmodel.docs_over_top_n_ratio": "ratio",
    "features.featurize_all_s": "s",
    "features.ms_per_candidate": "ms",
    **{f"features.{group}_ms": "ms" for group, _ in EXTRACTOR_GROUPS},
    "features.write_csv_s": "s",
    "lexicon.load_s": "s",
    "learn.read_csv_s": "s",
    "learn.cv_s": "s",
    "learn.holdout_s": "s",
    "learn.fits": "count",
    "learn.ms_per_fit": "ms",
    "analysis.rank_s": "s",
    "analysis.ablate_s": "s",
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, notes dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one CLI command."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record):
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Route calls of `owner.attr` through a span called `name`.

        `note(arguments, result)` returns counts to keep on the span;
        `arguments` maps parameter names to the values of the call.
        """
        static = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        signature = inspect.signature(fn) if note is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = {"raised": 1}
                raise
            finally:
                tracer._close(record)
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = note(bound.arguments, result)
            return result

        # a classmethod is read back bound to its class; storing the bound
        # method as a staticmethod keeps `Class.method(...)` calls working
        setattr(owner, attr, staticmethod(traced) if isinstance(static, classmethod) else traced)
        self._patches.append((owner, attr, static))

    def restore(self) -> None:
        for owner, attr, static in reversed(self._patches):
            setattr(owner, attr, static)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "notes"], "spans": self.spans},
                      fh, separators=(",", ":"))
            fh.write("\n")


# ---------------------------------------------------------------------------
# what is wrapped

def _tweets(arguments, result):
    return {"tweets": len(result)}


def _index_bytes(arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


def _background(arguments, result):
    return {"ts": arguments["ts"], "index": id(arguments["self"])}


def _count(arguments, result):
    return {"n": len(result)}


def _lda(arguments, result):
    documents = arguments["documents"]
    return {
        "docs": len(documents),
        "tokens": sum(len(d.tokens) for d in documents),
        "sweeps": arguments["iterations"],
        "over_top_n": sum(1 for d in documents if len(set(d.tokens)) > TOP_N),
    }


def _candidates(arguments, result):
    return {"n": len(arguments["candidates"])}


def install_setup(tracer: Tracer) -> None:
    """Spans for scenario set-up."""
    tracer.wrap(synth, "generate", "synth.generate")
    tracer.wrap(synth, "write_scenario", "synth.write_scenario")


def install_pipeline(tracer: Tracer) -> None:
    """Spans for every layer the timed commands reach.

    Names imported into `cli` with `from ... import` are wrapped where cli
    looks them up as well as in their own module.
    """
    for owner in (corpus, cli):
        tracer.wrap(owner, "ingest_jsonl", "corpus.ingest_jsonl", _tweets)
    tracer.wrap(corpus.CorpusIndex, "save", "corpus.save", _index_bytes)
    tracer.wrap(corpus.CorpusIndex, "load", "corpus.load")
    tracer.wrap(corpus.CorpusIndex, "background_before", "corpus.background_before", _background)

    tracer.wrap(compound, "detect_candidates", "compound.detect_candidates", _count)
    tracer.wrap(compound, "filter_eligible", "compound.filter_eligible", _count)
    tracer.wrap(compound, "label_candidate", "compound.label_candidate")
    tracer.wrap(compound, "read_candidates", "compound.read_candidates")
    tracer.wrap(compound, "write_candidates", "compound.write_candidates")

    for fn in ("load_dictionary", "load_ngram_table", "load_pos_lexicon", "load_gazetteer"):
        for owner in (lexicon, cli):
            tracer.wrap(owner, fn, "lexicon.load")

    tracer.wrap(topicmodel, "fit_candidate_topics", "topicmodel.fit_candidate_topics")
    tracer.wrap(topicmodel, "build_documents", "topicmodel.build_documents")
    tracer.wrap(topicmodel, "fit_lda", "topicmodel.fit_lda", _lda)

    tracer.wrap(features, "build_schema", "features.build_schema")
    tracer.wrap(features, "featurize_all", "features.featurize_all", _candidates)
    tracer.wrap(features, "write_feature_csv", "features.write_feature_csv")
    for _, names in EXTRACTOR_GROUPS:
        for fn in names:
            tracer.wrap(features, fn, f"features.{fn}")

    tracer.wrap(learn.Dataset, "from_csv", "learn.read_csv")
    for owner in (learn, analysis):
        tracer.wrap(owner, "cross_validate", "learn.cross_validate")
    tracer.wrap(learn, "holdout_evaluate", "learn.holdout_evaluate")
    # every model fit standardizes its training rows exactly once
    tracer.wrap(learn, "standardize_fit", "learn.standardize_fit")
    tracer.wrap(analysis, "rank_features", "analysis.rank_features")
    tracer.wrap(analysis, "ablate", "analysis.ablate")


# ---------------------------------------------------------------------------
# per-layer metrics

def _duration(span) -> float:
    return span[2] - span[1]


def _child_time(spans, lo: int, hi: int) -> list[float]:
    """Summed duration of each span's direct children, for spans[lo:hi]."""
    child = [0.0] * (hi - lo)
    for span in spans[lo:hi]:
        parent = span[3]
        if parent >= lo:
            child[parent - lo] += _duration(span)
    return child


def _has_ancestor(spans, idx: int, names, lo: int) -> bool:
    parent = spans[idx][3]
    while parent >= lo:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def setup_metrics(spans, lo: int, hi: int) -> dict[str, float]:
    """Layer times of one scenario set-up, from spans[lo:hi]."""
    child = _child_time(spans, lo, hi)
    generate = write = 0.0
    for i in range(lo, hi):
        span = spans[i]
        if span[0] == "synth.generate":
            generate += _duration(span)
        elif span[0] == "synth.write_scenario":
            write += _duration(span) - child[i - lo]
    return {"synth.generate_s": generate, "synth.write_s": write}


def round_metrics(spans, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of one round of timed commands, from spans[lo:hi]."""
    child = _child_time(spans, lo, hi)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list[dict]] = {}
    cli_self = 0.0
    featurized = 0
    group_time = {group: 0.0 for group, _ in EXTRACTOR_GROUPS}
    group_of = {f"features.{fn}": group for group, fns in EXTRACTOR_GROUPS for fn in fns}
    for i in range(lo, hi):
        span = spans[i]
        name = span[0]
        if name == "cli.main":
            cli_self += _duration(span) - child[i - lo]
            continue
        total[name] = total.get(name, 0.0) + _duration(span)
        calls[name] = calls.get(name, 0) + 1
        if span[4] is not None:
            notes.setdefault(name, []).append(span[4])
        group = group_of.get(name)
        if group is not None and _has_ancestor(spans, i, ("features.featurize_all",), lo):
            group_time[group] += _duration(span)
    for note in notes.get("features.featurize_all", ()):
        featurized += note["n"]

    def t(name):
        return total.get(name, 0.0)

    def noted(name, key):
        return sum(n.get(key, 0) for n in notes.get(name, ()))

    loads = calls.get("corpus.load", 0)
    ingest_s = t("corpus.ingest_jsonl")
    rewinds = 0
    last_ts: dict[int, int] = {}
    for note in notes.get("corpus.background_before", ()):
        previous = last_ts.get(note["index"])
        if previous is not None and note["ts"] < previous:
            rewinds += 1
        last_ts[note["index"]] = note["ts"]
    candidates = noted("compound.detect_candidates", "n")
    eligible = noted("compound.filter_eligible", "n")
    docs = noted("topicmodel.fit_lda", "docs")
    tokens = noted("topicmodel.fit_lda", "tokens")
    sweeps = noted("topicmodel.fit_lda", "sweeps")
    fit_s = t("topicmodel.fit_lda")
    fits = calls.get("learn.standardize_fit", 0)
    learn_s = t("learn.cross_validate") + t("learn.holdout_evaluate")
    per_candidate = 1000.0 / featurized if featurized else 0.0

    out = {
        "corpus.ingest_s": ingest_s,
        "corpus.save_s": t("corpus.save"),
        "corpus.tweets_per_s": noted("corpus.ingest_jsonl", "tweets") / ingest_s if ingest_s else 0.0,
        "corpus.index_bytes": noted("corpus.save", "bytes"),
        "corpus.load_s": t("corpus.load") / loads if loads else 0.0,
        "corpus.loads": loads,
        "corpus.background_s": t("corpus.background_before"),
        "corpus.background_calls": calls.get("corpus.background_before", 0),
        "corpus.background_rewinds": rewinds,
        "compound.detect_s": t("compound.detect_candidates"),
        "compound.filter_s": t("compound.filter_eligible"),
        "compound.label_s": t("compound.label_candidate"),
        "compound.candidates": candidates,
        "compound.eligible": eligible,
        "compound.eligible_ratio": eligible / candidates if candidates else 0.0,
        "compound.labels": calls.get("compound.label_candidate", 0)
        - sum(1 for n in notes.get("compound.label_candidate", ()) if n.get("raised")),
        "topicmodel.documents_s": t("topicmodel.build_documents"),
        "topicmodel.fit_s": fit_s,
        "topicmodel.docs": docs,
        "topicmodel.tokens": tokens,
        "topicmodel.sweeps": sweeps,
        "topicmodel.token_draws_per_s": tokens * sweeps / fit_s if fit_s else 0.0,
        "topicmodel.docs_over_top_n_ratio": noted("topicmodel.fit_lda", "over_top_n") / docs
        if docs else 0.0,
        "features.featurize_all_s": t("features.featurize_all"),
        "features.ms_per_candidate": t("features.featurize_all") * per_candidate,
    }
    for group, _ in EXTRACTOR_GROUPS:
        out[f"features.{group}_ms"] = group_time[group] * per_candidate
    out.update({
        "features.write_csv_s": t("features.write_feature_csv"),
        "lexicon.load_s": t("lexicon.load"),
        "learn.read_csv_s": t("learn.read_csv"),
        "learn.cv_s": t("learn.cross_validate"),
        "learn.holdout_s": t("learn.holdout_evaluate"),
        "learn.fits": fits,
        "learn.ms_per_fit": learn_s * 1000.0 / fits if fits else 0.0,
        "analysis.rank_s": t("analysis.rank_features"),
        "analysis.ablate_s": t("analysis.ablate"),
        "cli.self_s": cli_self,
    })
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
