"""Command-line front end for the pipeline.

Every command is a pure function of its input files, flags, and seeds, so
re-running a command reproduces its outputs byte for byte. Options may come
from a JSON config file (`--config`); explicit flags win over config values.

Exit codes: 0 success, 1 user error (bad arguments, missing or malformed
files), 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import analysis, compound, features, learn, synth, topicmodel
from .corpus import CorpusIndex, IngestConfig, ingest_jsonl
from .errors import InsufficientHistoryError, TagmergeError
from .lexicon import load_dictionary, load_gazetteer, load_ngram_table, load_pos_lexicon

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad command line or config input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return payload


def _resolve(args: argparse.Namespace, key: str, default=None, required: bool = False):
    """Flag value, then config-file value, then default. Flags win."""
    value = getattr(args, key, None)
    if value is None and args.config_values is not None:
        value = args.config_values.get(key)
    if value is None:
        value = default
    if required and value is None:
        raise UsageError(f"missing required option --{key.replace('_', '-')} (or config key {key!r})")
    return value


def _open_index(path) -> CorpusIndex:
    try:
        return CorpusIndex.load(path)
    except FileNotFoundError:
        raise UsageError(f"index file not found: {path}")


def _load_resources(args) -> features.FeatureResources:
    paths = {
        "dictionary": _resolve(args, "dictionary", required=True),
        "ngrams": _resolve(args, "ngrams", required=True),
        "pos_lexicon": _resolve(args, "pos_lexicon", required=True),
        "gazetteer": _resolve(args, "gazetteer", required=True),
    }
    loaders = {
        "dictionary": load_dictionary,
        "ngrams": load_ngram_table,
        "pos_lexicon": load_pos_lexicon,
        "gazetteer": load_gazetteer,
    }
    loaded = {}
    for key, path in paths.items():
        try:
            loaded[key] = loaders[key](path)
        except FileNotFoundError:
            raise UsageError(f"resource file not found: {path}")
    return features.FeatureResources(
        dictionary=loaded["dictionary"],
        ngrams=loaded["ngrams"],
        pos_lexicon=loaded["pos_lexicon"],
        gazetteer=loaded["gazetteer"],
    )


def _read_labeled_candidates(path, index):
    try:
        return compound.read_candidates(path, index)
    except FileNotFoundError:
        raise UsageError(f"candidate file not found: {path}")


# ---------------------------------------------------------------------------
# commands

def _cmd_ingest(args) -> int:
    corpus_path = _resolve(args, "corpus", required=True)
    out = _resolve(args, "out", required=True)
    max_bad = float(_resolve(args, "max_malformed_fraction", 0.5))
    try:
        index = ingest_jsonl(corpus_path, IngestConfig(max_malformed_fraction=max_bad))
    except FileNotFoundError:
        raise UsageError(f"corpus file not found: {corpus_path}")
    index.save(out)
    print(f"ingested {len(index)} tweets ({index.skipped} skipped) -> {out}")
    return 0


def _cmd_detect(args) -> int:
    index = _open_index(_resolve(args, "index", required=True))
    out = _resolve(args, "out", required=True)
    candidates = compound.detect_candidates(index)
    compound.write_candidates(out, candidates)
    print(f"detected {len(candidates)} candidates -> {out}")
    return 0


def _cmd_label(args) -> int:
    index = _open_index(_resolve(args, "index", required=True))
    cand_path = _resolve(args, "candidates", required=True)
    out = _resolve(args, "out", required=True)
    any_horizon = bool(_resolve(args, "any_horizon", False))
    horizons = _resolve(args, "horizon")
    if horizons is None:
        horizons = list(compound.SUPPORTED_HORIZONS)
    else:
        horizons = [int(horizons)]
    candidates, _ = _read_labeled_candidates(cand_path, index)
    labels = {}
    labeled = 0
    for cand in candidates:
        for horizon in horizons:
            try:
                label = compound.label_candidate(
                    index, cand, horizon, strict_horizon=not any_horizon
                )
            except InsufficientHistoryError:
                continue
            labels[(cand.compound.canonical, horizon)] = label
            labeled += 1
    compound.write_candidates(out, candidates, labels)
    print(f"labeled {len(candidates)} candidates ({labeled} labels) -> {out}")
    return 0


def _cmd_featurize(args) -> int:
    index = _open_index(_resolve(args, "index", required=True))
    cand_path = _resolve(args, "candidates", required=True)
    out = _resolve(args, "out", required=True)
    horizon = int(_resolve(args, "horizon", 10))
    obs_months = int(_resolve(args, "obs_months", 6))
    n_topics = int(_resolve(args, "topics", 30))
    iterations = int(_resolve(args, "lda_iterations", 1000))
    seed = int(_resolve(args, "seed", 0))
    min_support = int(_resolve(args, "min_support", 50))

    resources = _load_resources(args)
    candidates, labels = _read_labeled_candidates(cand_path, index)
    eligible = compound.filter_eligible(
        candidates, index, min_support=min_support, obs_months=obs_months
    )
    if not eligible:
        raise UsageError("no candidate passed the eligibility filter")
    missing = [
        c.compound.canonical
        for c in eligible
        if (c.compound.canonical, horizon) not in labels
    ]
    if missing:
        raise UsageError(
            f"{len(missing)} eligible candidates lack a label at horizon {horizon}, "
            f"first: {missing[0]!r} (run the label command first)"
        )
    model, doc_keys = topicmodel.fit_candidate_topics(
        index, eligible, n_topics=n_topics, obs_months=obs_months,
        iterations=iterations, seed=seed,
    )
    resources.topic_model = model
    resources.topic_doc_keys = doc_keys

    config = features.ObservationConfig(
        obs_months=obs_months, horizon_months=horizon, lda_topics=n_topics
    )
    vectors, combos, schema = features.featurize_all(eligible, index, resources, config)
    y = [1 if labels[(c.compound.canonical, horizon)] == "Popular" else 0 for c in eligible]
    features.write_feature_csv(out, vectors, y, schema, combos=combos)
    print(f"featurized {len(eligible)} candidates ({len(schema.names)} features) -> {out}")
    return 0


def _cmd_fit_lda(args) -> int:
    index = _open_index(_resolve(args, "index", required=True))
    cand_path = _resolve(args, "candidates", required=True)
    out = _resolve(args, "out", required=True)
    obs_months = int(_resolve(args, "obs_months", 6))
    n_topics = int(_resolve(args, "topics", 30))
    iterations = int(_resolve(args, "lda_iterations", 1000))
    seed = int(_resolve(args, "seed", 0))
    candidates, _ = _read_labeled_candidates(cand_path, index)
    if not candidates:
        raise UsageError("candidate file holds no candidates")
    model, _ = topicmodel.fit_candidate_topics(
        index, candidates, n_topics=n_topics, obs_months=obs_months,
        iterations=iterations, seed=seed,
    )
    model.save(out)
    print(f"fitted {n_topics} topics over {len(model.doc_ids)} documents -> {out}")
    return 0


def _load_dataset(args) -> learn.Dataset:
    path = _resolve(args, "features", required=True)
    try:
        dataset = learn.Dataset.from_csv(path)
    except FileNotFoundError:
        raise UsageError(f"feature file not found: {path}")
    if bool(_resolve(args, "balance", False)):
        dataset = learn.balance_dataset(dataset, seed=int(_resolve(args, "seed", 0)))
    return dataset


def _train_config(args) -> learn.TrainConfig:
    return learn.TrainConfig(
        learning_rate=float(_resolve(args, "learning_rate", 0.1)),
        epochs=int(_resolve(args, "epochs", 500)),
        l2=float(_resolve(args, "l2", 1e-3)),
        seed=int(_resolve(args, "seed", 0)),
    )


def _cmd_train(args) -> int:
    dataset = _load_dataset(args)
    out = _resolve(args, "out", required=True)
    kind = _resolve(args, "model", "logreg")
    config = _train_config(args)
    trainer = learn.train_logreg if kind == "logreg" else learn.train_linsvm
    model = trainer(dataset, config)
    model.save(out)
    print(
        f"trained {kind} on {dataset.n_rows} rows, "
        f"final loss {model.loss_history[-1]:.6f} -> {out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    dataset = _load_dataset(args)
    out = _resolve(args, "out", required=True)
    kind = _resolve(args, "model", "logreg")
    seed = int(_resolve(args, "seed", 0))
    config = _train_config(args)
    if args.mode == "cv":
        report = learn.cross_validate(
            dataset, kind=kind, n_folds=int(_resolve(args, "folds", 10)),
            seed=seed, config=config,
        )
    else:
        report = learn.holdout_evaluate(
            dataset, kind=kind, test_fraction=float(_resolve(args, "test_fraction", 0.1)),
            seed=seed, config=config,
        )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(report.format_table())
    print(f"report -> {out}")
    return 0


def _cmd_rank_features(args) -> int:
    dataset = _load_dataset(args)
    out = _resolve(args, "out", required=True)
    method = _resolve(args, "method", "chi2")
    ranking = analysis.rank_features(dataset, method)
    ranking.save(out)
    top = ", ".join(ranking.top(5))
    print(f"ranked {len(ranking.entries)} features by {method}; top: {top}")
    print(f"ranking -> {out}")
    return 0


def _cmd_ablate(args) -> int:
    dataset = _load_dataset(args)
    out = _resolve(args, "out", required=True)
    kind = _resolve(args, "model", "logreg")
    report = analysis.ablate(
        dataset, kind=kind, n_folds=int(_resolve(args, "folds", 10)),
        seed=int(_resolve(args, "seed", 0)), config=_train_config(args),
    )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(report.format_table())
    print(f"report -> {out}")
    return 0


def _cmd_synth(args) -> int:
    out_dir = _resolve(args, "out_dir", required=True)
    scenario_path = _resolve(args, "scenario_config")
    name = _resolve(args, "scenario")
    if scenario_path is not None:
        try:
            config = synth.ScenarioConfig.load(scenario_path)
        except FileNotFoundError:
            raise UsageError(f"scenario config not found: {scenario_path}")
    elif name == "reference":
        config = synth.reference_scenario(seed=int(_resolve(args, "seed", 0)))
    elif name == "signal":
        config = synth.signal_scenario(
            n_candidates=int(_resolve(args, "candidates", 400)),
            seed=int(_resolve(args, "seed", 0)),
            strength=float(_resolve(args, "strength", 1.0)),
        )
    else:
        raise UsageError("pass --scenario reference|signal or --scenario-config FILE")
    paths = synth.write_scenario(config, out_dir)
    result_manifest = paths["manifest"]
    print(f"scenario {config.name!r}: corpus -> {paths['corpus']}, manifest -> {result_manifest}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: _Parser) -> None:
    parser.add_argument("--config", help="JSON file with default option values")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="tagmerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("ingest", help="build an immutable index from a JSONL corpus")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--max-malformed-fraction", dest="max_malformed_fraction", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("detect", help="detect compound candidates")
    p.add_argument("--index")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("label", help="attach popularity labels per horizon")
    p.add_argument("--index")
    p.add_argument("--candidates")
    p.add_argument("--out")
    p.add_argument("--horizon", type=int)
    p.add_argument("--any-horizon", dest="any_horizon", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("featurize", help="extract the feature matrix")
    p.add_argument("--index")
    p.add_argument("--candidates")
    p.add_argument("--out")
    p.add_argument("--dictionary")
    p.add_argument("--ngrams")
    p.add_argument("--pos-lexicon", dest="pos_lexicon")
    p.add_argument("--gazetteer")
    p.add_argument("--horizon", type=int)
    p.add_argument("--obs-months", dest="obs_months", type=int)
    p.add_argument("--topics", type=int)
    p.add_argument("--lda-iterations", dest="lda_iterations", type=int)
    p.add_argument("--min-support", dest="min_support", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("fit-lda", help="fit a topic model over candidate documents")
    p.add_argument("--index")
    p.add_argument("--candidates")
    p.add_argument("--out")
    p.add_argument("--topics", type=int)
    p.add_argument("--obs-months", dest="obs_months", type=int)
    p.add_argument("--lda-iterations", dest="lda_iterations", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_lda)

    p = sub.add_parser("train", help="train a classifier on a feature matrix")
    p.add_argument("--features")
    p.add_argument("--out")
    p.add_argument("--model", choices=learn.MODEL_KINDS)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate by cross validation or holdout")
    p.add_argument("mode", choices=("cv", "holdout"))
    p.add_argument("--features")
    p.add_argument("--out")
    p.add_argument("--model", choices=learn.MODEL_KINDS)
    p.add_argument("--folds", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank-features", help="rank features by chi-square or info gain")
    p.add_argument("--features")
    p.add_argument("--out")
    p.add_argument("--method", choices=analysis.RANK_METHODS)
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_rank_features)

    p = sub.add_parser("ablate", help="cross-validate every feature-group subset")
    p.add_argument("--features")
    p.add_argument("--out")
    p.add_argument("--model", choices=learn.MODEL_KINDS)
    p.add_argument("--folds", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--scenario", choices=("reference", "signal"))
    p.add_argument("--scenario-config", dest="scenario_config")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--candidates", type=int)
    p.add_argument("--strength", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        args.config_values = (
            _load_config_file(args.config) if getattr(args, "config", None) else None
        )
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TagmergeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
