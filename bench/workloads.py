"""Workload definitions: the scenario each workload builds and the CLI
commands it times.

A workload's input is a synthetic scenario generated from the run's seed.
Everything after set-up is a fixed list of `tagmerge` command lines; the
pipeline seed passed to `featurize`, `evaluate`, `rank-features` and
`ablate` is always 0, so the run seed decides the corpus and nothing else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from tagmerge import synth

PIPELINE_SEED = 0
MIN_SUPPORT = 50
OBS_MONTHS = 6
HORIZON = 10
FOLDS = 10
EPOCHS = 500

# Scenario seed and size of the causality probe. The probe's input must not
# depend on the run seed, so that its outcome is the same in every run.
PROBE_SEED = 0
PROBE_CANDIDATES = 24


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "signal" or "wide-vocab"
    topics: int
    sweeps: int
    # (mode, model) pairs for `evaluate`, models for `ablate`, methods for
    # `rank-features`
    evaluations: tuple[tuple[str, str], ...]
    ablations: tuple[str, ...]
    rankings: tuple[str, ...]
    candidates: int
    # every constituent document has more distinct words than
    # avg_topic_overlap keeps, so topic_overlap depends on the fit
    top_n_binds: bool = False
    causality_probe: bool = False


WORKLOADS = {
    "wide-vocab-k30": Workload(
        name="wide-vocab-k30",
        scenario="wide-vocab",
        topics=30,
        sweeps=2,
        evaluations=(("cv", "logreg"), ("holdout", "logreg")),
        ablations=("logreg",),
        rankings=("chi2",),
        top_n_binds=True,
        causality_probe=True,
        candidates=100,
    ),
    "model-grid": Workload(
        name="model-grid",
        scenario="signal",
        topics=4,
        sweeps=1,
        evaluations=(
            ("cv", "logreg"),
            ("holdout", "logreg"),
            ("cv", "linsvm"),
            ("holdout", "linsvm"),
        ),
        ablations=("logreg", "linsvm"),
        rankings=("chi2", "infogain"),
        candidates=100,
    ),
}


# ---------------------------------------------------------------------------
# wide-vocabulary scenario

WIDE_TOPICS = 10
WIDE_TOPIC_WORDS = 120
WIDE_WORDS_PER_TWEET = 8
WIDE_FIRST_M0 = 7
WIDE_M0_SPREAD = 4  # compounding months m0 = 7, 8, 9, 10
WIDE_POST_MONTHS = 10


def wide_vocab_config(n_candidates: int, seed: int) -> synth.ScenarioConfig:
    """Candidates over wide topic vocabularies with long tweets.

    Each topic has 120 words and each tweet 8, so one constituent's six
    months of tweets (about 480 tokens) cover more than 100 distinct words.
    Candidate i compounds in month 7 + (i // 2) % 4, so both classes appear
    in every compounding month.
    """
    if n_candidates < 2 or n_candidates % 2:
        raise ValueError("need an even number of candidates")
    rng = np.random.default_rng([seed, 9001])
    last_m0 = WIDE_FIRST_M0 + WIDE_M0_SPREAD - 1
    n_months = last_m0 + WIDE_POST_MONTHS + 1  # T10 labels exist for every m0
    topic_vocabs = tuple(
        synth.word_bank(6000 + WIDE_TOPIC_WORDS * k, WIDE_TOPIC_WORDS) for k in range(WIDE_TOPICS)
    )
    background_words = synth.word_bank(6000 + WIDE_TOPIC_WORDS * WIDE_TOPICS, 6)
    plants = []
    for i in range(n_candidates):
        cls = i % 2
        m0 = WIDE_FIRST_M0 + (i // 2) % WIDE_M0_SPREAD
        words = synth.word_bank(2000 + 4 * i, 4)
        pre_a = tuple([0] + [int(rng.integers(9, 12)) for _ in range(m0 - 1)])
        pre_b = tuple([0] + [int(rng.integers(9, 12)) for _ in range(m0 - 1)])
        if cls == 1:
            post_ab = [int(rng.integers(6, 10)) for _ in range(WIDE_POST_MONTHS)]
            post_a = [int(rng.integers(1, 3)) for _ in range(WIDE_POST_MONTHS)]
            post_b = [int(rng.integers(1, 3)) for _ in range(WIDE_POST_MONTHS)]
        else:
            post_ab = [int(rng.integers(0, 2)) for _ in range(WIDE_POST_MONTHS)]
            post_a = [int(rng.integers(3, 6)) for _ in range(WIDE_POST_MONTHS)]
            post_b = [int(rng.integers(3, 6)) for _ in range(WIDE_POST_MONTHS)]
        tail = [0] * (n_months - m0 - WIDE_POST_MONTHS)
        plants.append(
            synth.PlantSpec(
                a_words=(words[0], words[1]),
                b_words=(words[2], words[3]),
                topic_a=(2 * i) % WIDE_TOPICS,
                topic_b=(2 * i + 1) % WIDE_TOPICS,
                m0=m0,
                a_start=0,
                b_start=0,
                pre_a=pre_a,
                pre_b=pre_b,
                post_a=tuple(post_a + tail),
                post_b=tuple(post_b + tail),
                post_ab=tuple(post_ab + tail),
                cross_frac=0.35,
                user_overlap=0.30,
                mention_rate=0.3,
                retweet_rate=0.25,
                user_pool=8,
                planted_class=cls,
            )
        )
    config = synth.ScenarioConfig(
        name=f"wide-vocab-{n_candidates}",
        seed=seed,
        start_month="2011-06",
        n_months=n_months,
        plants=tuple(plants),
        topic_vocabs=topic_vocabs,
        background_words=background_words,
        words_per_tweet=WIDE_WORDS_PER_TWEET,
    )
    return synth.plant_signal(config, 1.0)


# ---------------------------------------------------------------------------
# command lines

def synth_argv(workload: Workload, seed: int, scen_dir: str) -> list[str]:
    """The `synth` command that writes the workload's scenario.

    The wide-vocabulary workload first saves its config next to the
    scenario, so `synth` reads it through `--scenario-config`.
    """
    if workload.scenario == "wide-vocab":
        os.makedirs(scen_dir, exist_ok=True)
        config_path = os.path.join(scen_dir, "scenario-config.json")
        wide_vocab_config(workload.candidates, seed).save(config_path)
        return ["synth", "--scenario-config", config_path, "--out-dir", scen_dir]
    return [
        "synth", "--scenario", "signal", "--candidates", str(workload.candidates),
        "--strength", "1", "--seed", str(seed), "--out-dir", scen_dir,
    ]


def featurize_argv(workload: Workload, scen: str, index: str, cands: str, out: str) -> list[str]:
    return [
        "featurize", "--index", index, "--candidates", cands, "--out", out,
        "--dictionary", os.path.join(scen, "dictionary.txt"),
        "--ngrams", os.path.join(scen, "ngrams.tsv"),
        "--pos-lexicon", os.path.join(scen, "pos_lexicon.tsv"),
        "--gazetteer", os.path.join(scen, "gazetteer.tsv"),
        "--horizon", str(HORIZON), "--obs-months", str(OBS_MONTHS),
        "--topics", str(workload.topics), "--lda-iterations", str(workload.sweeps),
        "--min-support", str(MIN_SUPPORT), "--seed", str(PIPELINE_SEED),
    ]


@dataclass(frozen=True)
class Step:
    """One timed CLI command; `stage` names the end-to-end metric it feeds."""

    stage: str
    argv: tuple[str, ...]


def pipeline_steps(workload: Workload, scen: str, out: str) -> list[Step]:
    """The timed command sequence, writing every artifact under `out`."""
    def p(name):
        return os.path.join(out, name)

    features = p("features.csv")
    steps = [
        Step("ingest", ("ingest", "--corpus", os.path.join(scen, "corpus.jsonl"),
                        "--out", p("index.json"))),
        Step("detect_label", ("detect", "--index", p("index.json"), "--out", p("candidates.tsv"))),
        Step("detect_label", ("label", "--index", p("index.json"),
                              "--candidates", p("candidates.tsv"), "--out", p("labeled.tsv"))),
        Step("featurize", tuple(featurize_argv(
            workload, scen, p("index.json"), p("labeled.tsv"), features))),
    ]
    for mode, model in workload.evaluations:
        argv = ["evaluate", mode, "--features", features, "--model", model,
                "--epochs", str(EPOCHS), "--seed", str(PIPELINE_SEED),
                "--out", p(f"eval-{mode}-{model}.json")]
        if mode == "cv":
            argv += ["--folds", str(FOLDS)]
        steps.append(Step("evaluate", tuple(argv)))
    for method in workload.rankings:
        steps.append(Step("evaluate", ("rank-features", "--features", features,
                                       "--method", method, "--out", p(f"rank-{method}.tsv"))))
    for model in workload.ablations:
        steps.append(Step("evaluate", ("ablate", "--model", model, "--features", features,
                                       "--folds", str(FOLDS), "--epochs", str(EPOCHS),
                                       "--seed", str(PIPELINE_SEED),
                                       "--out", p(f"ablate-{model}.json"))))
    return steps
