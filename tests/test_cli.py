"""End-to-end command line exercises built on generated scenarios."""

import hashlib
import json
import shlex
import time
from pathlib import Path

import pytest

from tagmerge import cli, compound, corpus, learn, synth
from tagmerge.corpus import CorpusIndex, Tweet

from conftest import utc

from test_analysis import read_ranking_tsv


@pytest.fixture(scope="module")
def scen_dir(tmp_path_factory):
    """A written signal scenario small enough for quick pipeline runs."""
    root = tmp_path_factory.mktemp("scenario")
    config = synth.signal_scenario(n_candidates=12, seed=9, strength=1.0)
    paths = synth.write_scenario(config, root / "scen")
    return paths


@pytest.fixture(scope="module")
def staged(scen_dir, tmp_path_factory):
    """Index, candidate, and label files produced through the CLI itself."""
    work = tmp_path_factory.mktemp("staged")
    index = work / "index.json"
    cands = work / "cands.tsv"
    labeled = work / "labeled.tsv"
    assert cli.main(["ingest", "--corpus", str(scen_dir["corpus"]), "--out", str(index)]) == 0
    assert cli.main(["detect", "--index", str(index), "--out", str(cands)]) == 0
    assert cli.main(["label", "--index", str(index), "--candidates", str(cands), "--out", str(labeled)]) == 0
    return {"index": index, "cands": cands, "labeled": labeled, "scen": scen_dir}


def featurize_args(staged, out):
    scen = staged["scen"]
    return [
        "featurize",
        "--index", str(staged["index"]),
        "--candidates", str(staged["labeled"]),
        "--out", str(out),
        "--dictionary", str(scen["dictionary.txt"]),
        "--ngrams", str(scen["ngrams.tsv"]),
        "--pos-lexicon", str(scen["pos_lexicon.tsv"]),
        "--gazetteer", str(scen["gazetteer.tsv"]),
        "--topics", "4",
        "--lda-iterations", "10",
    ]


@pytest.fixture(scope="module")
def feature_csv(staged, tmp_path_factory):
    out = tmp_path_factory.mktemp("features") / "feats.csv"
    assert cli.main(featurize_args(staged, out)) == 0
    return out


# ---------------------------------------------------------------------------
# exit codes and option handling


def test_no_subcommand_prints_help(capsys):
    assert cli.main([]) == 1
    out = capsys.readouterr().out
    assert "usage:" in out


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["fit-lda", "--out", "topics.json"]) == 1
    assert "invalid choice: 'fit-lda'" in capsys.readouterr().err


def test_missing_file_names_the_path(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    rc = cli.main(["ingest", "--corpus", str(missing), "--out", str(tmp_path / "i.json")])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


def test_missing_required_option_names_it(capsys):
    assert cli.main(["detect", "--out", "cands.tsv"]) == 1
    assert "--index" in capsys.readouterr().err


# A value the index decoder rejects, set on the first of two tweets: the key,
# the value, and what the error says.
BAD_INDEX_VALUES = {
    "float-timestamp": ("timestamp", 1300000000.5, "timestamp must be an integer"),
    "string-timestamp": ("timestamp", "1300000000", "timestamp must be an integer"),
    "zero-timestamp": ("timestamp", 0, "timestamp must be strictly positive"),
    "empty-id": ("id", "", "tweet id must be non-empty"),
    "duplicate-id": ("id", "t2", "duplicate tweet id 't2'"),
}


@pytest.mark.parametrize("sidecar", [False, True], ids=["json-only", "sidecar"])
@pytest.mark.parametrize("damage", list(BAD_INDEX_VALUES))
def test_index_with_a_bad_value_exits_one_naming_the_file(
    damage, sidecar, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "index.json"
    index = CorpusIndex([
        Tweet(id="t1", timestamp=1300000000, user_id="u", text="#a hi"),
        Tweet(id="t2", timestamp=1300000100, user_id="u", text="#b ho"),
    ])
    index.save(path)
    key, value, message = BAD_INDEX_VALUES[damage]
    payload = json.loads(path.read_text())
    payload["tweets"][0][key] = value
    path.write_text(json.dumps(payload))
    if sidecar:
        # a sidecar written for the damaged bytes, so the load takes its path
        index._save_sidecar(tmp_path / "index.npz", hashlib.sha256(path.read_bytes()).digest())
        monkeypatch.setattr(corpus, "extract_hashtags", _never)
    else:
        (tmp_path / "index.npz").unlink()
    assert cli.main(["detect", "--index", str(path), "--out", str(tmp_path / "c.tsv")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert message in err
    assert not (tmp_path / "c.tsv").exists()


def _never(*args, **kwargs):
    raise AssertionError("the index sidecar was not used")


def test_ingest_writes_the_same_index_and_sidecar_bytes_every_run(scen_dir, tmp_path, monkeypatch):
    first, second = tmp_path / "a", tmp_path / "b"

    def ingest(out):
        out.mkdir()
        assert cli.main(["ingest", "--corpus", str(scen_dir["corpus"]), "--out", str(out / "index.json")]) == 0

    ingest(first)
    # the second run a day later, by the clock
    real_time = time.time
    monkeypatch.setattr(time, "time", lambda: real_time() + 86400)
    ingest(second)
    assert sorted(p.name for p in second.iterdir()) == ["index.json", "index.npz"]
    for name in ("index.json", "index.npz"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # the sidecar leaves every byte of the JSON as it was
    digest = hashlib.sha256((first / "index.json").read_bytes()).hexdigest()
    assert digest == "a2dc4972edb6c183f778bc2b0d0a7bd14b39641ed7ac07f3626b0c73459191d0"


def test_internal_errors_exit_two(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "_cmd_detect", boom)
    rc = cli.main(["detect", "--index", "i", "--out", "o"])
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


# Damages to the first data row (line 2) of a candidate table: the command
# that reads it, the cell, its new value given the old one, and what the
# error says.
DAMAGED_CANDIDATE_CELLS = {
    "unknown-hashtag": ("label", 0, lambda old: "nosuchtag", "'nosuchtag' not in the index"),
    "word-split-index": ("label", 3, lambda old: "x", "invalid literal for int()"),
    "wrong-split-index": ("label", 3, lambda old: str(int(old) + 1), "split index"),
    "word-first-seen": ("label", 4, lambda old: "soon", "invalid literal for int()"),
    "lowercase-label": ("featurize", 5, str.lower, "is not Popular, Unpopular or -"),
    "extra-cell": ("label", 7, lambda old: old + "\tPopular", "found 9 cells, expected 8"),
}


@pytest.mark.parametrize("damage", DAMAGED_CANDIDATE_CELLS)
def test_damaged_candidate_table_exits_one(staged, tmp_path, capsys, damage):
    command, column, change, message = DAMAGED_CANDIDATE_CELLS[damage]
    rows = staged["labeled"].read_text().splitlines()
    cells = rows[1].split("\t")
    cells[column] = change(cells[column])
    rows[1] = "\t".join(cells)
    bad = tmp_path / "c.tsv"
    bad.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    if command == "label":
        argv = ["label", "--index", str(staged["index"]), "--candidates", str(bad), "--out", str(out)]
    else:
        argv = featurize_args({**staged, "labeled": bad}, out)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: " in err
    assert message in err
    assert not out.exists()


def _drop(*keys):
    def mutate(payload):
        *path, last = keys
        for key in path:
            payload = payload[key]
        del payload[last]

    return mutate


def _put(value, *keys):
    def mutate(payload):
        *path, last = keys
        for key in path:
            payload = payload[key]
        payload[last] = value

    return mutate


def _null(key):
    return _put(None, key)


# Each artifact's command line (the damaged file substituted for FILE) and the
# damages that leave a JSON object: a required key dropped, a value nulled, a
# cell of the wrong type, or a value its type refuses.
DAMAGED_ARTIFACTS = {
    "index": (
        ["detect", "--index", "FILE", "--out", "OUT"],
        {
            "no-text": _drop("tweets", 0, "text"),
            "null-tweets": _null("tweets"),
            "number-mention": _put([5], "tweets", 0, "mentions"),
            "number-user": _put(7, "tweets", 0, "user"),
        },
    ),
    "sidecar": (
        ["evaluate", "cv", "--features", "FILE", "--out", "OUT"],
        {
            "no-config": _drop("config"),
            "no-feature-name": _drop("features", 0, "name"),
            "null-features": _null("features"),
            "null-row-combo-pos": _put(None, "row_combos", 0, "pos"),
            "number-row-combo-oov": _put(3, "row_combos", 0, "oov"),
            "number-combo-pair": _put(5, "combo", "pos_pairs", 0),
            "null-obs-months": _put(None, "config", "obs_months"),
            "empty-combo-pairs": _put([], "combo", "pos_pairs"),
        },
    ),
    "scenario-config": (
        ["synth", "--scenario-config", "FILE", "--out-dir", "OUT"],
        {
            "no-seed": _drop("seed"),
            "null-plants": _null("plants"),
            "null-seed": _null("seed"),
            "number-topic-word": _put(9, "topic_vocabs", 0, 0),
            "null-plant-m0": _put(None, "plants", 0, "m0"),
            "float-plant-count": _put(2.5, "plants", 0, "pre_a", 1),
            "negative-plant-count": _put(-1, "plants", 0, "pre_a", 1),
        },
    ),
}


def _damage_cases():
    for artifact, (_, damages) in DAMAGED_ARTIFACTS.items():
        yield pytest.param(artifact, "not-json", id=f"{artifact}-not-json")
        yield pytest.param(artifact, "list", id=f"{artifact}-list")
        for name in damages:
            yield pytest.param(artifact, name, id=f"{artifact}-{name}")


@pytest.mark.parametrize("artifact, damage", _damage_cases())
def test_damaged_json_artifact_exits_one_naming_the_file(
    artifact, damage, staged, feature_csv, tmp_path, capsys
):
    argv, damages = DAMAGED_ARTIFACTS[artifact]
    if artifact == "sidecar":
        # `evaluate` reads the sidecar next to the feature CSV it is given
        good = feature_csv.with_name("feats.schema.json")
        target = tmp_path / "feats.csv"
        target.write_bytes(feature_csv.read_bytes())
        path = tmp_path / good.name
    else:
        good = staged["index"] if artifact == "index" else Path(staged["scen"]["config"])
        path = target = tmp_path / good.name
    if damage == "not-json":
        path.write_text("{not json")
    elif damage == "list":
        path.write_text(json.dumps([json.loads(good.read_text())]))
    else:
        payload = json.loads(good.read_text())
        damages[damage](payload)
        path.write_text(json.dumps(payload))
    substitute = {"FILE": str(target), "OUT": str(tmp_path / "out")}
    assert cli.main([substitute.get(arg, arg) for arg in argv]) == 1
    assert str(path) in capsys.readouterr().err


# Damages to the second data row (line 3) of a feature CSV, as cell lists.
DAMAGED_FEATURE_ROWS = {
    "short-row": lambda cells: cells[:-2],
    "long-row": lambda cells: cells + ["0"],
    "word-cell": lambda cells: ["high"] + cells[1:],
    "empty-cell": lambda cells: [""] + cells[1:],
    "nan-cell": lambda cells: ["nan"] + cells[1:],
    "inf-cell": lambda cells: ["inf"] + cells[1:],
    "minus-inf-cell": lambda cells: ["-inf"] + cells[1:],
    "label-7": lambda cells: cells[:-1] + ["7"],
}


@pytest.mark.parametrize("damage", DAMAGED_FEATURE_ROWS)
def test_damaged_feature_matrix_exits_one_naming_the_line(damage, feature_csv, tmp_path, capsys):
    target = tmp_path / "feats.csv"
    sidecar = feature_csv.with_name("feats.schema.json")
    (tmp_path / sidecar.name).write_bytes(sidecar.read_bytes())
    lines = feature_csv.read_text().splitlines()
    lines[2] = ",".join(DAMAGED_FEATURE_ROWS[damage](lines[2].split(",")))
    target.write_text("\n".join(lines) + "\n")
    argv = ["evaluate", "cv", "--features", str(target), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert f"{target}:3:" in capsys.readouterr().err


def test_config_file_fills_options_and_flags_win(scen_dir, tmp_path, capsys):
    out_a = tmp_path / "from_config.json"
    out_b = tmp_path / "from_flag.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": str(scen_dir["corpus"]), "out": str(out_a)}))

    assert cli.main(["ingest", "--config", str(cfg)]) == 0
    assert out_a.exists()

    assert cli.main(["ingest", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_b.exists()
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_config_file_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["ingest", "--config", str(cfg), "--corpus", "x", "--out", "y"]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_config_values_are_typed_like_flags(feature_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"folds": 4, "epochs": 60.0, "model": "linsvm", "balance": True}))
    base = ["evaluate", "cv", "--features", str(feature_csv)]
    from_config, from_flags, flag_wins = (tmp_path / n for n in ("c.json", "f.json", "w.json"))

    assert cli.main([*base, "--config", str(cfg), "--out", str(from_config)]) == 0
    flags = ["--folds", "4", "--epochs", "60", "--model", "linsvm", "--balance"]
    assert cli.main([*base, *flags, "--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()
    assert json.loads(from_config.read_text())["kind"] == "linsvm"

    assert cli.main([*base, "--config", str(cfg), "--folds", "3", "--out", str(flag_wins)]) == 0
    assert json.loads(flag_wins.read_text())["protocol"]["folds"] == 3
    capsys.readouterr()


@pytest.mark.parametrize("command, key", [("train", "model"), ("rank-features", "method")])
def test_config_value_outside_the_choices_is_a_usage_error(feature_csv, tmp_path, capsys,
                                                           command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "foo"}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--features", str(feature_csv), "--out", str(out)]
    assert cli.main(argv) == 1
    assert f"config key {key!r}: invalid choice 'foo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, why", [
    ("evaluate cv", "balance", "false", "expected bool, got 'false'"),
    ("evaluate cv", "balance", 1, "expected bool, got 1"),
    ("evaluate cv", "folds", 4.7, "expected int, got 4.7"),
    ("evaluate cv", "seed", True, "expected str or int or float, got True"),
    ("evaluate cv", "learning_rate", False, "expected str or int or float, got False"),
    ("evaluate cv", "epochs", "sixty", "invalid literal for int()"),
    ("evaluate cv", "folds", [4], "expected str or int or float, got [4]"),
    ("evaluate cv", "out", 5, "expected str, got 5"),
], ids=["bool-flag-string", "bool-flag-number", "int-fraction", "int-bool", "float-bool",
        "int-word", "int-list", "path-number"])
def test_config_value_the_flag_could_not_give_is_a_usage_error(tmp_path, capsys,
                                                              command, key, value, why):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert cli.main([*command.split(), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config key {key!r}: {why}" in err
    assert "Traceback" not in err


def test_ingest_skips_non_finite_and_out_of_range_timestamps(tmp_path, capsys):
    def line(tid, timestamp):
        return f'{{"id": "{tid}", "timestamp": {timestamp}, "user": "u", "text": "#a hi"}}'

    good = [line(f"g{i}", 1300000000 + i) for i in range(6)]
    bad = [line("inf", "Infinity"), line("huge", "1e400"), line("far", "1e18")]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(good[:3] + bad + good[3:]) + "\n")
    out = tmp_path / "index.json"
    assert cli.main(["ingest", "--corpus", str(corpus), "--out", str(out)]) == 0
    index = CorpusIndex.load(out)
    assert (len(index), index.skipped) == (6, 3)
    assert "(3 skipped)" in capsys.readouterr().out


def test_config_keys_that_are_not_options_are_ignored(staged, tmp_path, capsys):
    out = tmp_path / "cands.tsv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"index": str(staged["index"]), "out": str(out), "func": "nope", "topics": 5, "seed": 3}
    ))
    assert cli.main(["detect", "--config", str(cfg)]) == 0
    assert out.read_bytes() == staged["cands"].read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# pipeline round trip


def test_labels_written_by_cli_match_the_manifest(staged):
    index = CorpusIndex.load(staged["index"])
    candidates, labels = compound.read_candidates(staged["labeled"], index)
    manifest = synth.read_manifest(staged["scen"]["manifest"])
    by_name = {r.compound: r for r in manifest}
    assert {c.compound.canonical for c in candidates} == set(by_name)
    for cand in candidates:
        row = by_name[cand.compound.canonical]
        for horizon in (2, 6, 10):
            expect = row.labels[horizon]
            got = labels.get((cand.compound.canonical, horizon))
            assert got == expect, (cand.compound.canonical, horizon)


def test_featurize_refuses_a_horizon_outside_2_6_10(staged, tmp_path, capsys):
    out = tmp_path / "f.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 3}))
    for option in (["--horizon", "3"], ["--config", str(cfg)]):
        assert cli.main(featurize_args(staged, out) + option) == 1
        err = capsys.readouterr().err
        assert "invalid choice" in err and "(choose from 2, 6, 10)" in err
    assert not out.exists()


def test_featurize_refuses_eligible_candidates_without_a_label(staged, tmp_path, capsys):
    rows = staged["labeled"].read_text().splitlines()
    cells = rows[1].split("\t")
    cells[compound.CANDIDATE_COLUMNS.index("label_T10")] = "-"
    rows[1] = "\t".join(cells)
    blanked = tmp_path / "c.tsv"
    blanked.write_text("\n".join(rows) + "\n")
    out = tmp_path / "f.csv"
    assert cli.main(featurize_args({**staged, "labeled": blanked}, out)) == 1
    err = capsys.readouterr().err
    assert f"1 eligible candidates lack a label at horizon 10, first: {cells[0]!r}" in err
    assert not out.exists()


def test_featurize_leaves_out_a_candidate_whose_window_precedes_the_corpus(
    lexicon_dir, tmp_path, capsys
):
    # #snowday is born two months into the corpus, so its 6-month window
    # starts before coverage; #sunset's window starts inside it
    tweets = []
    for tag, first_day in (("snow", utc(2011, 1, 1)), ("day", utc(2011, 1, 1)),
                           ("sun", utc(2011, 3, 1)), ("set", utc(2011, 3, 1))):
        tweets += [Tweet(id=f"{tag}{k}", timestamp=first_day + 86400 * k + 60, user_id=f"u{k % 7}",
                         text=f"#{tag} fresh powder") for k in range(60)]
    tweets += [
        Tweet(id="snowday", timestamp=utc(2011, 4, 2), user_id="u1", text="#snowday at last"),
        Tweet(id="sunset", timestamp=utc(2011, 7, 15), user_id="u2", text="#sunset at last"),
        Tweet(id="quiet", timestamp=utc(2011, 10, 1), user_id="u3", text="#quiet sentinel"),
    ]
    synth.write_corpus(tmp_path / "c.jsonl", tweets)
    files = {name: tmp_path / f"{name}.tsv" for name in ("cands", "labeled")}
    index = str(tmp_path / "index.json")
    assert cli.main(["ingest", "--corpus", str(tmp_path / "c.jsonl"), "--out", index]) == 0
    assert cli.main(["detect", "--index", index, "--out", str(files["cands"])]) == 0
    assert cli.main(["label", "--index", index, "--candidates", str(files["cands"]),
                     "--out", str(files["labeled"])]) == 0
    out = tmp_path / "f.csv"
    staged = {"index": index, "labeled": files["labeled"],
              "scen": {name: lexicon_dir / name for name in
                       ("dictionary.txt", "ngrams.tsv", "pos_lexicon.tsv", "gazetteer.tsv")}}
    assert cli.main(featurize_args(staged, out) + ["--horizon", "2"]) == 0
    assert "detected 2 candidates" in capsys.readouterr().out
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 1
    assert rows[0].split(",")[header.split(",").index("char_length")] == "6.0"  # sunset


def test_featurize_is_deterministic(staged, feature_csv, tmp_path, capsys):
    again = tmp_path / "feats2.csv"
    assert cli.main(featurize_args(staged, again)) == 0
    assert feature_csv.read_bytes() == again.read_bytes()
    sidecar = feature_csv.with_suffix(".schema.json")
    assert sidecar.read_bytes() == again.with_suffix(".schema.json").read_bytes()
    capsys.readouterr()


def test_evaluate_cv_writes_identical_reports(feature_csv, tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["evaluate", "cv", "--features", str(feature_csv), "--folds", "3", "--epochs", "120"]
    assert cli.main(argv + ["--out", str(r1)]) == 0
    assert cli.main(argv + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert payload["protocol"]["mode"] == "cv"
    assert payload["protocol"]["folds"] == 3
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_evaluate_holdout_and_model_choice(feature_csv, tmp_path, capsys):
    out = tmp_path / "holdout.json"
    rc = cli.main([
        "evaluate", "holdout", "--features", str(feature_csv),
        "--model", "linsvm", "--test-fraction", "0.34",
        "--epochs", "120", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["protocol"]["mode"] == "holdout"
    assert payload["kind"] == "linsvm"
    capsys.readouterr()


def test_train_saves_a_loadable_model(feature_csv, tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = cli.main([
        "train", "--features", str(feature_csv), "--model", "logreg",
        "--epochs", "120", "--no-balance", "--out", str(out),
    ])
    assert rc == 0
    model = learn.LinearModel.load(out)
    assert model.kind == "logreg"
    assert "final loss" in capsys.readouterr().out


def test_rank_features_writes_a_ranking(feature_csv, tmp_path, capsys):
    out = tmp_path / "rank.tsv"
    rc = cli.main([
        "rank-features", "--features", str(feature_csv),
        "--method", "infogain", "--out", str(out),
    ])
    assert rc == 0
    entries = read_ranking_tsv(out)
    assert entries
    assert [rank for rank, _, _ in entries] == list(range(1, len(entries) + 1))
    assert "ranked" in capsys.readouterr().out


def test_ablate_covers_every_group_subset(feature_csv, tmp_path, capsys):
    out = tmp_path / "ablation.json"
    rc = cli.main([
        "ablate", "--features", str(feature_csv),
        "--folds", "3", "--epochs", "120", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    from tagmerge.analysis import ABLATION_COMBOS

    assert set(payload["entries"]) == {name for name, _ in ABLATION_COMBOS}
    capsys.readouterr()


def test_evaluation_commands_match_golden_digests(tmp_path, capsys):
    """Pinned bytes of every evaluation report for a weak-signal scenario.

    At strength 0.1 the cv accuracies sit between 0.4 and 0.75, so the
    reports depend on the fitted weights rather than saturating at 1.0.
    """
    config = synth.signal_scenario(n_candidates=24, seed=7, strength=0.1)
    scen = synth.write_scenario(config, tmp_path / "scen")
    index, cands, labeled = tmp_path / "index.json", tmp_path / "c.tsv", tmp_path / "l.tsv"
    feats = tmp_path / "features.csv"
    for argv in (
        ["ingest", "--corpus", scen["corpus"], "--out", str(index)],
        ["detect", "--index", str(index), "--out", str(cands)],
        ["label", "--index", str(index), "--candidates", str(cands), "--out", str(labeled)],
        ["featurize", "--index", str(index), "--candidates", str(labeled), "--out", str(feats),
         "--dictionary", scen["dictionary.txt"], "--ngrams", scen["ngrams.tsv"],
         "--pos-lexicon", scen["pos_lexicon.tsv"], "--gazetteer", scen["gazetteer.tsv"],
         "--topics", "4", "--lda-iterations", "10"],
    ):
        assert cli.main(argv) == 0, argv[0]
    fit = ["--folds", "4", "--epochs", "60"]
    runs = {
        "rank_chi2.tsv": ["rank-features", "--method", "chi2"],
    }
    for kind in learn.MODEL_KINDS:
        runs[f"cv_{kind}.json"] = ["evaluate", "cv", "--model", kind, *fit]
        runs[f"holdout_{kind}.json"] = [
            "evaluate", "holdout", "--model", kind, "--test-fraction", "0.25", *fit,
        ]
        runs[f"ablate_{kind}.json"] = ["ablate", "--model", kind, *fit]
    for name, argv in runs.items():
        assert cli.main([*argv, "--features", str(feats), "--out", str(tmp_path / name)]) == 0, name
    capsys.readouterr()

    accuracy = json.loads((tmp_path / "cv_logreg.json").read_text())["accuracy"]
    assert 0.5 < accuracy < 1.0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in runs
    }
    assert digests == {
        "rank_chi2.tsv": "745f6c54f71cebdf44de6763521e8f2d182e7bcc4cb9e31e2b54c62777e468f7",
        "cv_logreg.json": "a622fe61b8107e7dafc081c66ce4b031adbbb024bcf38006cd78ba9b99a0a6e9",
        "holdout_logreg.json": "20ea6eb855a5c1f91fc860327992098d767475eddc17a3bed7cac8fbc9b521a9",
        "ablate_logreg.json": "125ce59dd6b85ed4a03f0b753ec2f4962a111026ceaed3d0eddeb5de1def9535",
        "cv_linsvm.json": "f5f2fb34bfa3f2e3b2ce9d174e7279e4d2dac6eac4072b6ce046ffcd10674e9b",
        "holdout_linsvm.json": "e019ab9501a5638b6ac2182c33148367779055b573873442d7768466d8305677",
        "ablate_linsvm.json": "59f788216cb5241e204ce3a8c6dddf017e64f3596cee677e6db5a3a7e7183368",
    }


def test_synth_command_round_trips_a_config(tmp_path, capsys):
    config = synth.signal_scenario(n_candidates=8, seed=5, strength=0.5)
    cfg_path = tmp_path / "config.json"
    config.save(cfg_path)
    out_dir = tmp_path / "made"
    rc = cli.main(["synth", "--scenario-config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    direct = synth.write_scenario(config, tmp_path / "direct")
    assert (out_dir / "corpus.jsonl").read_bytes() == Path(direct["corpus"]).read_bytes()
    assert (out_dir / "manifest.tsv").read_bytes() == Path(direct["manifest"]).read_bytes()
    capsys.readouterr()


def test_synth_named_scenario(tmp_path, capsys):
    out_dir = tmp_path / "t1"
    rc = cli.main(["synth", "--scenario", "reference", "--out-dir", str(out_dir)])
    assert rc == 0
    rows = synth.read_manifest(out_dir / "manifest.tsv")
    assert len(rows) == 20
    capsys.readouterr()


def readme_quick_start():
    """The `tagmerge` command lines of the README's "Quick start" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = readme_quick_start()
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "tagmerge"
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
    capsys.readouterr()
