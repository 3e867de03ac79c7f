"""Extract the full feature vector of one candidate and read it back.

Run: python3 demos/03_features.py
"""

import tempfile
from pathlib import Path

import numpy as np

from tagmerge.compound import detect_candidates, filter_eligible, label_candidate
from tagmerge.corpus import CorpusIndex
from tagmerge.features import (
    FeatureResources,
    ObservationConfig,
    featurize_all,
    read_feature_csv,
    write_feature_csv,
)
from tagmerge.lexicon import load_dictionary, load_gazetteer, load_ngram_table, load_pos_lexicon
from tagmerge.synth import generate, signal_scenario, write_scenario

with tempfile.TemporaryDirectory(prefix="tagmerge-demo-") as tmp:
    workdir = Path(tmp)
    config = signal_scenario(n_candidates=8, seed=1, strength=1.0)
    paths = write_scenario(config, workdir / "scen")

    result = generate(config)
    index = CorpusIndex(result.tweets)
    eligible = filter_eligible(detect_candidates(index), index)
    print(f"{len(eligible)} candidates pass the support filter")

    dictionary = load_dictionary(paths["dictionary.txt"])
    pos = load_pos_lexicon(paths["pos_lexicon.tsv"])
    gaz = load_gazetteer(paths["gazetteer.tsv"])
    resources = FeatureResources(
        dictionary=dictionary,
        ngrams=load_ngram_table(paths["ngrams.tsv"]),
        pos_lexicon=pos,
        gazetteer=gaz,
        lda_iterations=15,
        lda_seed=0,
    )

    observation = ObservationConfig(obs_months=6, horizon_months=10, lda_topics=4)
    vectors, combos, schema, _ = featurize_all(eligible, index, resources, observation)

    vec = vectors[0]
    print(f"\n#{eligible[0].compound.canonical}: {len(schema.names)} features, a few of them:")
    for name in ("char_length", "word_count", "pos_diversity", "clarity_a",
                 "word_overlap", "topic_overlap", "collocation_frequency", "common_users"):
        print(f"  {name:>24} = {vec.values[name]:.4f}")

    labels = [1 if label_candidate(index, c, 10).value == "Popular" else 0 for c in eligible]
    csv_path = workdir / "features.csv"
    write_feature_csv(csv_path, vectors, labels, schema, combos=combos)
    matrix, back_labels, back_schema, _ = read_feature_csv(csv_path)

    original = np.array([v.as_array(schema.names) for v in vectors])
    intact = np.array_equal(matrix, original) and list(back_labels) == labels
    print(f"\nwrote {csv_path}")
    print(f"round trip intact: {intact}")
