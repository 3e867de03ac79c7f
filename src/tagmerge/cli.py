"""Command-line front end for the pipeline.

Every command is a pure function of its input files, flags, and seeds, so
re-running a command reproduces its outputs byte for byte. Options may come
from a JSON config file (`--config`); explicit flags win over config values.
`tagmerge <command> --help` lists every option with its default.

Exit codes: 0 success, 1 user error (bad arguments, missing or malformed
files), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from . import analysis, compound, features, learn, synth
from .corpus import CorpusIndex, ingest_jsonl
from .errors import InsufficientHistoryError, TagmergeError, read_json
from .lexicon import load_dictionary, load_gazetteer, load_ngram_table, load_pos_lexicon

# Options without a default that a command cannot run without, in the order
# they are checked. Each may come from a flag or from a config key.
_REQUIRED = (
    "corpus", "index", "candidates", "features", "out",
    "dictionary", "ngrams", "pos_lexicon", "gazetteer", "out_dir",
)


class UsageError(Exception):
    """Bad command line or config input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each option's default to its help, unless it has none."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _apply_config(command: argparse.ArgumentParser, config: dict) -> None:
    """Make config values the command's defaults, typed as each option's flag would be.

    Keys that name no option of the command are ignored, and so are nulls. A
    value no flag could give, or one outside the option's choices, is a
    usage error, as it is on the command line.
    """
    options = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        if key in options and value is not None:
            try:
                defaults[key] = _config_value(options[key], value)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
    command.set_defaults(**defaults)


def _config_value(option: argparse.Action, value):
    """`value` as the option's flag would give it; ValueError if no flag could.

    A flag without an argument takes a JSON bool, an untyped option a string,
    and a typed one a string or a number its type keeps unchanged: an int
    option takes 60.0, but not 4.7 or true.
    """
    accepted = (bool,) if option.nargs == 0 else (str, int, float) if option.type else (str,)
    if type(value) not in accepted:
        raise ValueError(f"expected {' or '.join(t.__name__ for t in accepted)}, got {value!r}")
    typed = option.type(value) if len(accepted) > 1 else value
    if typed != value and not isinstance(value, str):
        raise ValueError(f"expected {option.type.__name__}, got {value!r}")
    if option.choices is not None and typed not in option.choices:
        allowed = ", ".join(map(repr, option.choices))
        raise ValueError(f"invalid choice {typed!r} (choose from {allowed})")
    return typed


def _read(what: str, load, path, *rest):
    """`load(path, *rest)`, reporting a missing file as a usage error about `what`."""
    try:
        return load(path, *rest)
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}")


def _open_index(args) -> CorpusIndex:
    return _read("index file", CorpusIndex.load, args.index)


def _read_candidates(args, index):
    return _read("candidate file", compound.read_candidates, args.candidates, index)


def _load_resources(args) -> features.FeatureResources:
    loaders = (
        ("dictionary", load_dictionary), ("ngrams", load_ngram_table),
        ("pos_lexicon", load_pos_lexicon), ("gazetteer", load_gazetteer),
    )
    return features.FeatureResources(
        **{key: _read("resource file", load, getattr(args, key)) for key, load in loaders},
        lda_iterations=args.lda_iterations, lda_seed=args.seed,
    )


# ---------------------------------------------------------------------------
# commands

def _cmd_ingest(args) -> int:
    index = _read("corpus file", ingest_jsonl, args.corpus, args.max_malformed_fraction)
    index.save(args.out)
    print(f"ingested {len(index)} tweets ({index.skipped} skipped) -> {args.out}")
    return 0


def _cmd_detect(args) -> int:
    index = _open_index(args)
    candidates = compound.detect_candidates(index)
    compound.write_candidates(args.out, candidates)
    print(f"detected {len(candidates)} candidates -> {args.out}")
    return 0


def _cmd_label(args) -> int:
    index = _open_index(args)
    candidates, _ = _read_candidates(args, index)
    labels = {}
    labeled = 0
    for cand in candidates:
        for horizon in compound.SUPPORTED_HORIZONS:
            try:
                label = compound.label_candidate(index, cand, horizon)
            except InsufficientHistoryError:
                continue
            labels[(cand.compound.canonical, horizon)] = label
            labeled += 1
    compound.write_candidates(args.out, candidates, labels)
    print(f"labeled {len(candidates)} candidates ({labeled} labels) -> {args.out}")
    return 0


def _cmd_featurize(args) -> int:
    index = _open_index(args)
    resources = _load_resources(args)
    candidates, labels = _read_candidates(args, index)
    eligible = compound.filter_eligible(
        candidates, index, min_support=args.min_support, obs_months=args.obs_months
    )
    if not eligible:
        raise UsageError("no candidate passed the eligibility filter")
    horizon = args.horizon
    names = [c.compound.canonical for c in eligible]
    missing = [name for name in names if (name, horizon) not in labels]
    if missing:
        raise UsageError(
            f"{len(missing)} eligible candidates lack a label at horizon {horizon}, "
            f"first: {missing[0]!r} (run the label command first)"
        )
    config = features.ObservationConfig(
        obs_months=args.obs_months, horizon_months=horizon, lda_topics=args.topics
    )
    vectors, combos, schema, fits = features.featurize_all(eligible, index, resources, config)
    y = [1 if labels[(name, horizon)] == "Popular" else 0 for name in names]
    features.write_feature_csv(args.out, vectors, y, schema, combos)
    print(
        f"featurized {len(eligible)} candidates ({len(schema.names)} features; "
        f"{fits} topic fits, {len(eligible) - fits} pairs within the top-{features.TOPIC_TOP_N} "
        f"cut) -> {args.out}"
    )
    return 0


def _load_dataset(args) -> learn.Dataset:
    dataset = _read("feature file", learn.Dataset.from_csv, args.features)
    return learn.balance_dataset(dataset, seed=args.seed) if args.balance else dataset


def _train_config(args) -> learn.TrainConfig:
    return learn.TrainConfig(
        learning_rate=args.learning_rate, epochs=args.epochs, l2=args.l2, seed=args.seed
    )


def _write_report(report, out) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(report.format_table())
    print(f"report -> {out}")


def _cmd_train(args) -> int:
    dataset = _load_dataset(args)
    model = learn.train(dataset, args.model, _train_config(args))
    model.save(args.out)
    print(
        f"trained {args.model} on {dataset.n_rows} rows, "
        f"final loss {model.loss_history[-1]:.6f} -> {args.out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    dataset = _load_dataset(args)
    fit = dict(kind=args.model, seed=args.seed, config=_train_config(args))
    if args.mode == "cv":
        report = learn.cross_validate(dataset, n_folds=args.folds, **fit)
    else:
        report = learn.holdout_evaluate(dataset, test_fraction=args.test_fraction, **fit)
    _write_report(report, args.out)
    return 0


def _cmd_rank_features(args) -> int:
    ranking = analysis.rank_features(_load_dataset(args), args.method)
    ranking.save(args.out)
    top = ", ".join(ranking.top(5))
    print(f"ranked {len(ranking.entries)} features by {args.method}; top: {top}")
    print(f"ranking -> {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    report = analysis.ablate(
        _load_dataset(args), kind=args.model, n_folds=args.folds,
        seed=args.seed, config=_train_config(args),
    )
    _write_report(report, args.out)
    return 0


def _cmd_synth(args) -> int:
    if args.scenario_config is not None:
        config = _read("scenario config", synth.ScenarioConfig.load, args.scenario_config)
    elif args.scenario == "reference":
        config = synth.reference_scenario(seed=args.seed)
    elif args.scenario == "signal":
        config = synth.signal_scenario(
            n_candidates=args.candidates, seed=args.seed, strength=args.strength
        )
    else:
        raise UsageError("pass --scenario reference|signal or --scenario-config FILE")
    paths = synth.write_scenario(config, args.out_dir)
    print(f"scenario {config.name!r}: corpus -> {paths['corpus']}, manifest -> {paths['manifest']}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    """The parser; each option is declared once, shared ones in parent parsers.

    Build a fresh parser per parse: `--config` rewrites the defaults of the
    chosen command's options, and commands share those option objects.
    """
    train = learn.TrainConfig()
    obs = features.ObservationConfig()
    group = functools.partial(argparse.ArgumentParser, add_help=False)

    common = group()
    common.add_argument("--config", help="JSON object of option values; flags win over it")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    out = group()
    out.add_argument("--out", help="output file")
    index = group()
    index.add_argument("--index", help="corpus index written by ingest")
    cands = group()
    cands.add_argument("--candidates", help="candidate table written by detect or label")
    data = group()
    data.add_argument("--features", help="feature CSV written by featurize")
    data.add_argument(
        "--balance", action=argparse.BooleanOptionalAction, default=False,
        help="downsample the majority class to 50/50",
    )
    model = group()
    model.add_argument("--model", choices=learn.MODEL_KINDS, default="logreg", help="classifier")
    model.add_argument("--learning-rate", type=float, default=train.learning_rate, help="step size")
    model.add_argument("--epochs", type=int, default=train.epochs, help="full-batch steps")
    model.add_argument("--l2", type=float, default=train.l2, help="L2 penalty")
    folds = group()
    folds.add_argument("--folds", type=int, default=10, help="cross-validation folds")

    parser = _Parser(prog="tagmerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    def command(name, func, summary, *parents):
        p = sub.add_parser(
            name, help=summary, description=summary, parents=[*parents, common],
            formatter_class=_HelpFormatter,
        )
        p.set_defaults(func=func, subparser=p)
        return p

    p = command("ingest", _cmd_ingest, "build an immutable index from a JSONL corpus", out)
    p.add_argument("--corpus", help="JSONL file, one tweet object per line")
    p.add_argument("--max-malformed-fraction", type=float, default=0.5, help="tolerated bad lines")
    command("detect", _cmd_detect, "detect compound candidates", index, out)
    summary = "attach popularity labels at 2, 6 and 10 months"
    command("label", _cmd_label, summary, index, cands, out)
    summary = "extract the feature matrix"
    p = command("featurize", _cmd_featurize, summary, index, cands, out)
    p.add_argument("--topics", type=int, default=obs.lda_topics, help="LDA topics")
    p.add_argument("--obs-months", type=int, default=obs.obs_months, help="months observed")
    p.add_argument("--lda-iterations", type=int, default=1000, help="Gibbs sweeps")
    p.add_argument("--dictionary", help="dictionary word list")
    p.add_argument("--ngrams", help="n-gram frequency table")
    p.add_argument("--pos-lexicon", help="part-of-speech lexicon")
    p.add_argument("--gazetteer", help="named-entity gazetteer")
    p.add_argument(
        "--horizon", type=int, choices=compound.SUPPORTED_HORIZONS, default=obs.horizon_months,
        help="label horizon, months",
    )
    p.add_argument("--min-support", type=int, default=50, help="fewest window tweets per part")
    command("train", _cmd_train, "train a classifier on a feature matrix", data, out, model)
    summary = "evaluate by cross validation or holdout"
    p = command("evaluate", _cmd_evaluate, summary, data, out, model, folds)
    p.add_argument("mode", choices=("cv", "holdout"), help="protocol")
    p.add_argument("--test-fraction", type=float, default=0.1, help="holdout share of rows")
    summary = "rank features by chi-square or info gain"
    p = command("rank-features", _cmd_rank_features, summary, data, out)
    p.add_argument("--method", choices=analysis.RANK_METHODS, default="chi2", help="statistic")
    summary = "cross-validate every feature-group subset"
    command("ablate", _cmd_ablate, summary, data, out, model, folds)
    p = command("synth", _cmd_synth, "generate a synthetic scenario")
    p.add_argument("--scenario", choices=("reference", "signal"), help="named scenario")
    p.add_argument("--scenario-config", help="scenario config JSON, instead of --scenario")
    p.add_argument("--out-dir", help="directory to write the scenario into")
    p.add_argument("--candidates", type=int, default=400, help="signal scenario: candidates")
    p.add_argument("--strength", type=float, default=1.0, help="signal scenario: signal strength")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        if args.config:
            _apply_config(args.subparser, _read("config file", read_json, args.config, dict))
            args = parser.parse_args(argv)
        for key in _REQUIRED:
            if vars(args).get(key, "") is None:
                flag = key.replace("_", "-")
                raise UsageError(f"missing required option --{flag} (or config key {key!r})")
        return args.func(args)
    except (UsageError, TagmergeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
