"""The public surface: the package's exported names, every option string, and every default.

Each command runs with only its required options. The library function it
reaches is replaced by a recorder that binds the call to the real
signature, keeps the arguments and stops the command, so the test sees the
exact values the command would hand to the library.
"""

import inspect
from types import SimpleNamespace

import pytest

import tagmerge
from tagmerge import analysis, cli, compound, features, learn, synth
from tagmerge.corpus import CorpusIndex, Tweet
from tagmerge.errors import InsufficientHistoryError

SURFACE = {
    "ingest": {"--corpus", "--out", "--max-malformed-fraction"},
    "detect": {"--index", "--out"},
    "label": {"--index", "--candidates", "--out"},
    "featurize": {
        "--index", "--candidates", "--out", "--dictionary", "--ngrams", "--pos-lexicon",
        "--gazetteer", "--horizon", "--obs-months", "--topics", "--lda-iterations",
        "--min-support", "--seed",
    },
    "train": {
        "--features", "--out", "--model", "--learning-rate", "--epochs", "--l2",
        "--balance", "--no-balance", "--seed",
    },
    "evaluate": {
        "--features", "--out", "--model", "--folds", "--test-fraction", "--learning-rate",
        "--epochs", "--l2", "--balance", "--no-balance", "--seed",
    },
    "rank-features": {"--features", "--out", "--method", "--balance", "--no-balance", "--seed"},
    "ablate": {
        "--features", "--out", "--model", "--folds", "--learning-rate", "--epochs", "--l2",
        "--balance", "--no-balance", "--seed",
    },
    "synth": {
        "--scenario", "--scenario-config", "--out-dir", "--candidates", "--strength", "--seed",
    },
}
COMMON = {"-h", "--help", "--config"}
DEFAULT_TRAIN = learn.TrainConfig(0.1, 500, 1e-3, 0)


class Stop(Exception):
    """Raised by a recorder once it has the arguments."""


def subparsers():
    (action,) = cli.build_parser()._subparsers._group_actions
    return action.choices


def test_every_exported_name_resolves():
    names = tagmerge.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(tagmerge, name)]
    assert missing == []
    namespace = {}
    exec("from tagmerge import *", namespace)
    assert set(names) <= set(namespace)


def test_every_command_keeps_its_option_strings():
    commands = subparsers()
    assert set(commands) == set(SURFACE)
    for name, sub in commands.items():
        strings = {s for action in sub._actions for s in action.option_strings}
        assert strings == SURFACE[name] | COMMON, name
    (mode,) = [a for a in commands["evaluate"]._actions if not a.option_strings]
    assert (mode.dest, tuple(mode.choices)) == ("mode", ("cv", "holdout"))


@pytest.fixture
def calls(monkeypatch):
    """Replace library entry points with recorders; returns {name: [bound arguments]}."""
    seen = {}

    def record(owner, name, stop=True, result=None):
        real = getattr(owner, name)
        signature = inspect.signature(real)

        def recorder(*args, **kwargs):
            seen.setdefault(name, []).append(dict(signature.bind(*args, **kwargs).arguments))
            if stop:
                raise Stop(name)
            return result(*args, **kwargs) if callable(result) else result

        monkeypatch.setattr(owner, name, recorder)

    return record, seen


@pytest.fixture
def index_path(tmp_path):
    path = tmp_path / "index.json"
    CorpusIndex([Tweet(id="t1", timestamp=1300000000, user_id="u", text="#a hi")]).save(path)
    return str(path)


def fake_candidates(labels):
    """A `compound.read_candidates` stand-in returning one candidate named 'ab'."""
    cand = SimpleNamespace(compound=SimpleNamespace(canonical="ab"))
    return lambda path, index: ([cand], dict(labels))


def run(argv):
    return cli.main([str(a) for a in argv])


def typed(values):
    """Compare by repr as well, so 500.0 does not pass for 500."""
    return {k: repr(v) for k, v in values.items()}


FIT_DEFAULTS = {"n_topics": 30, "obs_months": 6, "iterations": 1000, "seed": 0}


def test_ingest_defaults(calls, tmp_path):
    record, seen = calls
    record(cli, "ingest_jsonl")
    assert run(["ingest", "--corpus", tmp_path / "c.jsonl", "--out", tmp_path / "i.json"]) == 2
    (call,) = seen["ingest_jsonl"]
    assert repr(call["max_malformed_fraction"]) == repr(0.5)


def test_label_defaults(calls, index_path, tmp_path):
    record, seen = calls
    record(compound, "read_candidates", stop=False, result=fake_candidates({}))
    record(compound, "write_candidates", stop=False)

    def no_history(*args, **kwargs):
        raise InsufficientHistoryError("stub")

    record(compound, "label_candidate", stop=False, result=no_history)
    argv = ["label", "--index", index_path, "--candidates", "c.tsv", "--out", tmp_path / "l.tsv"]
    assert run(argv) == 0
    assert [repr(c["horizon_months"]) for c in seen["label_candidate"]] == ["2", "6", "10"]
    (write,) = seen["write_candidates"]
    assert write["labels"] == {}


def featurize_argv(index_path, lexicon_dir, tmp_path):
    return [
        "featurize", "--index", index_path, "--candidates", "c.tsv", "--out", tmp_path / "f.csv",
        "--dictionary", lexicon_dir / "dictionary.txt", "--ngrams", lexicon_dir / "ngrams.tsv",
        "--pos-lexicon", lexicon_dir / "pos_lexicon.tsv", "--gazetteer", lexicon_dir / "gazetteer.tsv",
    ]


def test_featurize_defaults(calls, index_path, lexicon_dir, tmp_path):
    record, seen = calls
    # a label only at horizon 10, so any other default horizon stops the command early
    record(compound, "read_candidates", stop=False, result=fake_candidates({("ab", 10): "Popular"}))
    record(compound, "filter_eligible", stop=False, result=lambda candidates, *a, **k: candidates)
    record(features, "featurize_all")
    assert run(featurize_argv(index_path, lexicon_dir, tmp_path)) == 2
    (eligible,) = seen["filter_eligible"]
    assert typed({k: eligible[k] for k in ("min_support", "obs_months")}) == typed(
        {"min_support": 50, "obs_months": 6}
    )
    (call,) = seen["featurize_all"]
    resources, config = call["resources"], call["config"]
    fit = {"n_topics": config.lda_topics, "obs_months": config.obs_months,
           "iterations": resources.lda_iterations, "seed": resources.lda_seed}
    assert typed(fit) == typed(FIT_DEFAULTS)
    assert config.horizon_months == 10


@pytest.fixture
def dataset(monkeypatch):
    """`Dataset.from_csv` returns a marker; balancing must not be reached."""
    marker = SimpleNamespace(n_rows=0)
    monkeypatch.setattr(learn.Dataset, "from_csv", classmethod(lambda cls, path: marker))

    def never(*args, **kwargs):
        raise AssertionError("balance_dataset called without --balance")

    monkeypatch.setattr(learn, "balance_dataset", never)
    return marker


@pytest.mark.parametrize("owner, name, argv, expected", [
    (learn, "train", ["train"], {"kind": "logreg", "config": DEFAULT_TRAIN}),
    (learn, "cross_validate", ["evaluate", "cv"],
     {"kind": "logreg", "n_folds": 10, "seed": 0, "config": DEFAULT_TRAIN}),
    (learn, "holdout_evaluate", ["evaluate", "holdout"],
     {"kind": "logreg", "test_fraction": 0.1, "seed": 0, "config": DEFAULT_TRAIN}),
    (analysis, "ablate", ["ablate"],
     {"kind": "logreg", "n_folds": 10, "seed": 0, "config": DEFAULT_TRAIN}),
    (analysis, "rank_features", ["rank-features"], {"method": "chi2"}),
], ids=["train", "cv", "holdout", "ablate", "rank-features"])
def test_learning_defaults(calls, dataset, tmp_path, owner, name, argv, expected):
    record, seen = calls
    record(owner, name)
    assert run([*argv, "--features", "f.csv", "--out", tmp_path / "o"]) == 2
    (call,) = seen[name]
    assert call.pop("dataset") is dataset
    assert typed(call) == typed(expected)


def test_synth_defaults(calls, tmp_path):
    record, seen = calls
    record(synth, "signal_scenario")
    record(synth, "reference_scenario")
    assert run(["synth", "--scenario", "signal", "--out-dir", tmp_path / "s"]) == 2
    assert run(["synth", "--scenario", "reference", "--out-dir", tmp_path / "r"]) == 2
    assert [typed(c) for c in seen["signal_scenario"]] == [
        typed({"n_candidates": 400, "seed": 0, "strength": 1.0})
    ]
    assert [typed(c) for c in seen["reference_scenario"]] == [typed({"seed": 0})]
