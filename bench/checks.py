"""Independent checks of a workload's artifacts.

Ground truth comes from the synth manifest, which is computed from the
planted schedule and not by the detector, and from a plain-Python re-reading
of the raw JSONL corpus. Nothing here calls the code under test. Each check
returns a list of failure messages; an empty list means the artifacts hold.
"""

from __future__ import annotations

import calendar
import csv
import json
import os
import re
import string
from bisect import bisect_left, bisect_right
from datetime import datetime, timezone

HORIZONS = (2, 6, 10)
TOP_N = 100
MIN_CV_ACCURACY = 0.90
N_FEATURES = 66
REPORT_KEYS = ("accuracy", "precision", "recall", "f_score", "roc_area")

_HASHTAG = re.compile(r"#([A-Za-z_][A-Za-z0-9_]*)")


# ---------------------------------------------------------------------------
# raw inputs

def read_manifest(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    for row in rows:
        row["t0"] = int(row["compound_first_seen"])
        row["split_index"] = int(row["split_index"])
        row["support_a"] = int(row["support_a"])
        row["support_b"] = int(row["support_b"])
    return rows


def eligible_rows(manifest: list[dict], min_support: int) -> list[dict]:
    """Manifest rows whose constituents both reach the support threshold, by name."""
    rows = [r for r in manifest if r["support_a"] >= min_support and r["support_b"] >= min_support]
    return sorted(rows, key=lambda r: r["compound"])


def shift_months(ts: int, months: int) -> int:
    """The same UTC time of day `months` calendar months away, day clamped."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    year, month0 = divmod(dt.year * 12 + dt.month - 1 + months, 12)
    day = min(dt.day, calendar.monthrange(year, month0 + 1)[1])
    return int(dt.replace(year=year, month=month0 + 1, day=day).timestamp())


def words(text: str, keep_tags: bool = True) -> list[str]:
    """Whitespace tokens, edge punctuation stripped, lowercased.

    With keep_tags False, tokens that start with '#' or '@' are dropped.
    """
    out = []
    for raw in text.split():
        if not keep_tags and raw[0] in "#@":
            continue
        word = raw.strip(string.punctuation).lower()
        if word:
            out.append(word)
    return out


class RawCorpus:
    """Tweets of the JSONL corpus grouped by the hashtags they carry."""

    def __init__(self, path):
        self.by_tag: dict[str, list[tuple[int, str, dict]]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tweet = json.loads(line)
                for tag in {t.lower() for t in _HASHTAG.findall(tweet["text"])}:
                    self.by_tag.setdefault(tag, []).append((tweet["timestamp"], tweet["id"], tweet))
        self._times = {}
        for tag, items in self.by_tag.items():
            items.sort(key=lambda item: item[:2])
            self._times[tag] = [item[0] for item in items]

    def between(self, tag: str, lo: int, hi: int) -> list[dict]:
        """Tweets carrying the tag with lo < timestamp < hi."""
        times = self._times.get(tag, [])
        items = self.by_tag.get(tag, [])
        return [item[2] for item in items[bisect_right(times, lo):bisect_left(times, hi)]]


def expected_features(corpus: RawCorpus, row: dict, obs_months: int) -> dict[str, float]:
    """The features this module recomputes for one manifest row.

    `topic_vocab_overlap` is |vocab(A) & vocab(B)| over the tokens left once
    hashtags and mentions are removed; it bounds `topic_overlap`.
    """
    t0 = row["t0"]
    lo = shift_months(t0, -obs_months)
    tweets_a = corpus.between(row["partA"], lo, t0)
    tweets_b = corpus.between(row["partB"], lo, t0)
    tokens_a = {w for t in tweets_a for w in words(t["text"])}
    tokens_b = {w for t in tweets_b for w in words(t["text"])}
    plain_a = {w for t in tweets_a for w in words(t["text"], keep_tags=False)}
    plain_b = {w for t in tweets_b for w in words(t["text"], keep_tags=False)}
    users_a = {t["user"] for t in tweets_a}
    users_b = {t["user"] for t in tweets_b}
    smaller = min(len(tokens_a), len(tokens_b))
    collocated = sum(
        1 for t in tweets_a if row["partB"] in {h.lower() for h in _HASHTAG.findall(t["text"])}
    )
    return {
        "char_length": float(len(row["compound"])),
        "unique_users_a": float(len(users_a)),
        "unique_users_b": float(len(users_b)),
        "common_users": float(len(users_a & users_b)),
        "collocation_frequency": float(collocated),
        "word_overlap": len(tokens_a & tokens_b) / smaller if smaller else 0.0,
        "topic_vocab_overlap": float(len(plain_a & plain_b)),
        "min_plain_vocab": float(min(len(plain_a), len(plain_b))),
        "max_plain_vocab": float(max(len(plain_a), len(plain_b))),
    }


# ---------------------------------------------------------------------------
# checks

def _read_tsv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def check_candidates(manifest: list[dict], candidates_path, labeled_path) -> list[str]:
    """Detected candidates and their labels equal the manifest, row for row."""
    failures = []
    expected = sorted(
        (r["compound"], r["partA"], r["partB"], str(r["split_index"]), str(r["t0"]))
        for r in manifest
    )
    for path in (candidates_path, labeled_path):
        got = [
            (r["compound"], r["partA"], r["partB"], r["split_index"], r["compound_first_seen"])
            for r in _read_tsv(path)
        ]
        if got != expected:
            failures.append(f"{os.path.basename(path)}: candidates differ from the manifest")
    by_name = {r["compound"]: r for r in manifest}
    wrong = 0
    for row in _read_tsv(labeled_path):
        truth = by_name.get(row["compound"])
        if truth is None or any(row[f"label_T{h}"] != truth[f"label_T{h}"] for h in HORIZONS):
            wrong += 1
    if wrong:
        failures.append(f"labeled.tsv: {wrong} rows with labels that differ from the manifest")
    return failures


def check_features(
    manifest: list[dict],
    corpus: RawCorpus,
    features_path,
    min_support: int,
    obs_months: int,
    top_n_binds: bool,
) -> list[str]:
    """One row per eligible candidate, T10 labels, and recomputed features.

    Where no constituent document has more than TOP_N distinct plain words,
    topic_overlap must equal the plain-vocabulary overlap whatever the fit;
    where the cut binds, it must lie in [0, min(TOP_N, overlap)].
    """
    failures = []
    with open(features_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    eligible = eligible_rows(manifest, min_support)
    if len(rows) != len(eligible):
        return [f"features.csv: {len(rows)} rows, expected {len(eligible)} eligible candidates"]
    mismatched: dict[str, int] = {}
    doc_size_wrong = 0
    for row, truth in zip(rows, eligible):
        expected = expected_features(corpus, truth, obs_months)
        label = "1" if truth["label_T10"] == "Popular" else "0"
        if row["label"] != label:
            mismatched["label"] = mismatched.get("label", 0) + 1
        for name in ("char_length", "unique_users_a", "unique_users_b", "common_users",
                     "collocation_frequency", "word_overlap"):
            if float(row[name]) != expected[name]:
                mismatched[name] = mismatched.get(name, 0) + 1
        topic = float(row["topic_overlap"])
        overlap = expected["topic_vocab_overlap"]
        if top_n_binds:
            ok = 0.0 <= topic <= min(TOP_N, overlap)
            if expected["min_plain_vocab"] <= TOP_N:
                doc_size_wrong += 1
        else:
            ok = topic == overlap
            if expected["max_plain_vocab"] > TOP_N:
                doc_size_wrong += 1
        if not ok:
            mismatched["topic_overlap"] = mismatched.get("topic_overlap", 0) + 1
    for name, count in sorted(mismatched.items()):
        failures.append(f"features.csv: {name} wrong in {count} of {len(rows)} rows")
    if doc_size_wrong:
        failures.append(
            f"scenario: {doc_size_wrong} candidates whose document sizes contradict the "
            f"workload's top-{TOP_N} premise"
        )
    return failures


def check_reports(out_dir, evaluations, ablations, rankings, feature_names) -> list[str]:
    """CV accuracy, ablation 'all' rows, and complete rankings."""
    failures = []

    def load(name):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    cv = {}
    for mode, model in evaluations:
        report = load(f"eval-{mode}-{model}.json")
        if mode == "cv":
            cv[model] = report
            if report["accuracy"] < MIN_CV_ACCURACY:
                failures.append(f"cv {model}: accuracy {report['accuracy']:.4f} < {MIN_CV_ACCURACY}")
        elif report["protocol"].get("mode") != "holdout":
            failures.append(f"holdout {model}: report protocol is not holdout")
    for model in ablations:
        entry = load(f"ablate-{model}.json")["entries"]["all"]
        if model not in cv:
            failures.append(f"ablate {model}: no plain cv report to compare with")
        elif any(entry[k] != cv[model][k] for k in REPORT_KEYS):
            failures.append(f"ablate {model}: 'all' row differs from the plain cv report")
    for method in rankings:
        names = [r["feature"] for r in _read_tsv(os.path.join(out_dir, f"rank-{method}.tsv"))]
        if len(names) != N_FEATURES or sorted(names) != sorted(feature_names):
            failures.append(f"rank {method}: does not list all {N_FEATURES} features exactly once")
    return failures


def feature_names(features_path) -> list[str]:
    with open(features_path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    return header[:-1]


def check_workload(workload, scen_dir, out_dir, min_support: int, obs_months: int) -> list[str]:
    """Every artifact check of one round's output directory."""
    manifest = read_manifest(os.path.join(scen_dir, "manifest.tsv"))
    corpus = RawCorpus(os.path.join(scen_dir, "corpus.jsonl"))
    features_path = os.path.join(out_dir, "features.csv")
    failures = check_candidates(
        manifest, os.path.join(out_dir, "candidates.tsv"), os.path.join(out_dir, "labeled.tsv")
    )
    failures += check_features(
        manifest, corpus, features_path, min_support, obs_months, workload.top_n_binds
    )
    failures += check_reports(
        out_dir, workload.evaluations, workload.ablations, workload.rankings,
        feature_names(features_path),
    )
    return failures
