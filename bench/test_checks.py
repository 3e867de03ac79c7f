"""Tests of the benchmark's own output checks.

Run from the repository root: python3 -m pytest -q bench

A tiny signal scenario goes through the real pipeline; the independent
recomputation must agree with the program on it, and single corrupted
cells of its artifacts must make the checks fail.
"""

import csv
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tagmerge import cli  # noqa: E402

TINY = replace(
    workloads.WORKLOADS["model-grid"],
    name="tiny",
    candidates=20,
    evaluations=(("cv", "logreg"),),
    ablations=("logreg",),
    rankings=("chi2",),
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    scen, out = root / "scenario", root / "out"
    out.mkdir()
    assert cli.main(workloads.synth_argv(TINY, 3, str(scen))) == 0
    for step in workloads.pipeline_steps(TINY, str(scen), str(out)):
        assert cli.main(list(step.argv)) == 0, step.argv
    return scen, out


def run_checks(scen, out):
    return checks.check_workload(TINY, str(scen), str(out), workloads.MIN_SUPPORT,
                                 workloads.OBS_MONTHS)


def corrupted_copy(pipeline, tmp_path, filename, edit):
    scen, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / filename
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t" if filename.endswith(".tsv") else ","))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t" if filename.endswith(".tsv") else ",",
                   lineterminator="\n").writerows(rows)
    return scen, copy


def test_recomputation_agrees_with_the_program(pipeline):
    assert run_checks(*pipeline) == []


def test_flipped_feature_label_fails(pipeline, tmp_path):
    def flip(rows):
        rows[1][-1] = "0" if rows[1][-1] == "1" else "1"

    failures = run_checks(*corrupted_copy(pipeline, tmp_path, "features.csv", flip))
    assert any("label wrong" in f for f in failures)


@pytest.mark.parametrize("column", ["char_length", "common_users", "word_overlap",
                                    "collocation_frequency", "topic_overlap"])
def test_altered_feature_cell_fails(pipeline, tmp_path, column):
    def alter(rows):
        col = rows[0].index(column)
        rows[2][col] = repr(float(rows[2][col]) + 0.5)

    failures = run_checks(*corrupted_copy(pipeline, tmp_path, "features.csv", alter))
    assert any(f.startswith(f"features.csv: {column} wrong") for f in failures)


def test_flipped_candidate_label_fails(pipeline, tmp_path):
    def flip(rows):
        col = rows[0].index("label_T6")
        rows[1][col] = "Unpopular" if rows[1][col] == "Popular" else "Popular"

    failures = run_checks(*corrupted_copy(pipeline, tmp_path, "labeled.tsv", flip))
    assert any("labels that differ" in f for f in failures)


def test_missing_ranking_entry_fails(pipeline, tmp_path):
    failures = run_checks(*corrupted_copy(pipeline, tmp_path, "rank-chi2.tsv", lambda rows: rows.pop()))
    assert any("exactly once" in f for f in failures)


def test_ablation_all_row_must_match_cv(pipeline, tmp_path):
    scen, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "ablate-logreg.json"
    report = json.loads(path.read_text())
    report["entries"]["all"]["accuracy"] -= 0.01
    path.write_text(json.dumps(report))
    assert any("'all' row" in f for f in run_checks(scen, copy))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import run

    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_round_reports_every_layer_metric(tmp_path):
    scen, out = tmp_path / "scenario", tmp_path / "out"
    out.mkdir()
    assert cli.main(workloads.synth_argv(TINY, 3, str(scen))) == 0
    tracer = tracing.Tracer()
    tracing.install_pipeline(tracer)
    try:
        for step in workloads.pipeline_steps(TINY, str(scen), str(out)):
            with tracer.span("cli.main"):
                assert cli.main(list(step.argv)) == 0, step.argv
    finally:
        tracer.restore()
    layers = tracing.round_metrics(tracer.spans, 0, len(tracer.spans))
    assert set(layers) == {n for n in tracing.LAYER_UNITS if not n.startswith("synth.")}
    assert layers["corpus.loads"] == 3
    assert layers["compound.candidates"] == layers["compound.eligible"] == 20
    assert layers["compound.labels"] == 60
    assert layers["topicmodel.docs"] == 40
    assert layers["corpus.background_calls"] == 40
    # 10 cv folds, then 7 feature-group subsets x 10 folds in ablate
    assert layers["learn.fits"] == 80
    assert layers["cli.self_s"] > 0
    assert not hasattr(cli.ingest_jsonl, "__wrapped__")
