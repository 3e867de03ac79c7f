"""Drive the whole pipeline through the command line interface.

Generates a scenario with a planted class signal, then runs every stage:
ingest, detect, label, featurize, evaluate, rank, ablate. Each command is
deterministic, so every run writes the same files byte for byte, into a
temporary directory that is removed at the end.

Run: python3 demos/05_full_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from tagmerge.cli import main


def run(*argv):
    print(f"$ tagmerge {' '.join(argv)}")
    rc = main(list(argv))
    assert rc == 0, f"exit code {rc}"
    print()


with tempfile.TemporaryDirectory(prefix="tagmerge-pipeline-") as tmp:
    work = Path(tmp)
    scen = work / "scenario"
    print(f"working in {work}\n")

    run("synth", "--scenario", "signal", "--candidates", "16", "--seed", "7",
        "--strength", "1.0", "--out-dir", str(scen))

    index = work / "index.json"
    run("ingest", "--corpus", str(scen / "corpus.jsonl"), "--out", str(index))

    cands = work / "candidates.tsv"
    run("detect", "--index", str(index), "--out", str(cands))

    labeled = work / "labeled.tsv"
    run("label", "--index", str(index), "--candidates", str(cands), "--out", str(labeled))

    feats = work / "features.csv"
    run("featurize", "--index", str(index), "--candidates", str(labeled),
        "--out", str(feats),
        "--dictionary", str(scen / "dictionary.txt"),
        "--ngrams", str(scen / "ngrams.tsv"),
        "--pos-lexicon", str(scen / "pos_lexicon.tsv"),
        "--gazetteer", str(scen / "gazetteer.tsv"),
        "--topics", "4", "--lda-iterations", "20")

    report = work / "cv.json"
    run("evaluate", "cv", "--features", str(feats), "--folds", "4", "--out", str(report))

    ranking = work / "ranking.tsv"
    run("rank-features", "--features", str(feats), "--method", "chi2", "--out", str(ranking))

    ablation = work / "ablation.json"
    run("ablate", "--features", str(feats), "--folds", "4", "--out", str(ablation))

    accuracy = json.loads(report.read_text())["accuracy"]
    print(f"cross-validated accuracy on the planted signal: {accuracy:.3f}")
