"""Hashtag compounding pipeline.

Detects hashtag compounds (#AB formed from existing #A and #B) in a tweet
corpus, labels whether the compound out-frequencies its constituents over
2/6/10-month horizons, extracts socio-linguistic features from the six
months before compounding, and trains linear classifiers to predict the
outcome. Includes a deterministic synthetic-corpus generator so the whole
pipeline is testable at desk scale.

Each name is imported from its module (`from tagmerge.corpus import
ingest_jsonl`); the package re-exports none.
"""

__version__ = "0.1.0"
