"""Independent reference implementations used only by the tests.

These deliberately take different algorithmic routes than the library:
detection joins hashtag pairs instead of scanning split positions,
segmentation enumerates every one of the 2^(n-1) parses, tokenization
re-reads the raw text, window features scan every tweet and join n-grams as
strings, topic words are ranked by a full sort of the vocabulary, model fitting is a plain descent loop on one training set with
no reused buffers and no in-place arithmetic, tied scores are ranked by
walking each run of equal values, and an ablation cross-validates one
cut-down copy of the dataset per feature-group subset.
"""

import string
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

from tagmerge.analysis import ABLATION_COMBOS, AblationReport
from tagmerge.corpus import CorpusIndex, HashtagId, Tweet, hashtag_spellings, observation_window
from tagmerge.features import (
    CLARITY_EPS, NE_SLOT_NAMES, POS_SLOT_NAMES, avg_topic_overlap, entropy,
)
from tagmerge.learn import cross_validate, hinge_loss_grad, logreg_loss_grad
from tagmerge.topicmodel import HashtagDocument, build_documents, fit_lda


def extract_hashtags(text):
    """All hashtags in a text (`hashtag_spellings`), original casing preserved."""
    return list(map(HashtagId.from_display, hashtag_spellings(text)))


def tags_of(tweet):
    """The canonical hashtags that a tweet's text holds."""
    return {h.canonical for h in extract_hashtags(tweet.text)}


def tokenize(text, keep_tags=True, keep_mentions=True):
    """Whitespace tokenization with edge punctuation stripped and lowercasing.

    Pure-punctuation tokens vanish. The '#' and '@' sigils are stripped, so
    hashtag and mention words stay in the stream unless the corresponding
    keep flag is False. `CorpusIndex.token_ids` and `plain_words` must
    agree with it.
    """
    out = []
    for raw in text.split():
        if not keep_tags and raw.startswith("#"):
            continue
        if not keep_mentions and raw.startswith("@"):
            continue
        word = raw.strip(string.punctuation).lower()
        if word:
            out.append(word)
    return out


def oracle_window_features(index, candidate, table, obs_months, n_topics, iterations, seed):
    """The tweet-content and user features of one candidate, read off the
    text of every tweet of the index.

    A window is found by a scan of all tweets, tokens by `tokenize`, and
    n-grams by joining each tweet's 2..5-token runs into strings looked up
    in `table`. The float arithmetic of clarity, diversity and the mean
    n-gram frequency is that of `features`, term for term, so the values
    are equal, not close.
    """
    lo, hi = observation_window(candidate.compound_first_seen, obs_months)
    tweets = index.tweets
    part_a, part_b = candidate.part_a.canonical, candidate.part_b.canonical

    def window(tag):
        return [t for t in tweets if lo < t.timestamp < hi and tag in tags_of(t)]

    def phrases(ws):
        found = set()
        for t in ws:
            toks = tokenize(t.text)
            for n in range(2, 6):
                for i in range(len(toks) - n + 1):
                    phrase = " ".join(toks[i : i + n])
                    if phrase in table.entries:
                        found.add(phrase)
        return found

    vocab = sorted({tok for t in tweets for tok in tokenize(t.text)})
    background = Counter(tok for t in tweets if t.timestamp < hi for tok in tokenize(t.text))
    bg_counts = np.array([background[w] for w in vocab], dtype=np.int64)

    def clarity(counts):
        n_tokens = sum(counts.values())
        if n_tokens == 0:
            return 0.0
        tag_counts = np.array([counts[w] for w in vocab], dtype=np.int64)
        support = bg_counts > 0
        p = (tag_counts[support] + CLARITY_EPS) / (n_tokens + CLARITY_EPS * int(support.sum()))
        q = bg_counts[support] / sum(background.values())
        return float(np.sum(p * np.log(p / q)))

    def audience(ws):
        return ({t.user_id for t in ws}, {m for t in ws for m in t.mentions},
                {t.id for t in ws if t.retweet_of is not None})

    def document(tag, ws):
        words = [w for t in ws for w in tokenize(t.text, keep_tags=False, keep_mentions=False)]
        return HashtagDocument(f"{tag}@{hi}", tag, tuple(words))

    win_a, win_b = window(part_a), window(part_b)
    counts_a = Counter(tok for t in win_a for tok in tokenize(t.text))
    counts_b = Counter(tok for t in win_b for tok in tokenize(t.text))
    ngrams_a, ngrams_b = phrases(win_a), phrases(win_b)
    common = sorted(ngrams_a & ngrams_b)
    (users_a, mentions_a, retweets_a), (users_b, mentions_b, retweets_b) = (
        audience(win_a), audience(win_b))

    def overlap(a, b):
        return len(a & b) / min(len(a), len(b)) if a and b else 0.0

    return {
        "word_overlap": overlap(set(counts_a), set(counts_b)),
        "ngram_overlap": overlap(ngrams_a, ngrams_b),
        "avg_common_ngram_freq": float(np.mean([table.entries[g] for g in common]))
        if common else 0.0,
        "collocation_frequency": float(sum(
            1 for t in win_a if part_b in tags_of(t))),
        "clarity_a": clarity(counts_a),
        "clarity_b": clarity(counts_b),
        "word_diversity_a": entropy(list(counts_a.values())) if counts_a else 0.0,
        "word_diversity_b": entropy(list(counts_b.values())) if counts_b else 0.0,
        "topic_overlap": avg_topic_overlap(
            document(part_a, win_a), document(part_b, win_b), n_topics, iterations, seed),
        "unique_users_a": float(len(users_a)),
        "unique_users_b": float(len(users_b)),
        "common_users": float(len(users_a & users_b)),
        "unique_mentions_a": float(len(mentions_a)),
        "unique_mentions_b": float(len(mentions_b)),
        "common_mentions": float(len(mentions_a & mentions_b)),
        "unique_retweets_a": float(len(retweets_a)),
        "unique_retweets_b": float(len(retweets_b)),
        "common_retweets": float(len(retweets_a & retweets_b)),
    }


def top_words(model, topic, n=100):
    """A topic's n highest-count words over the model's whole vocabulary.

    Ties resolve alphabetically: the order is (-count, word).
    """
    column = model.word_topic[:, topic]
    order = sorted(range(len(model.vocab)), key=lambda i: (-column[i], model.vocab[i]))
    return [model.vocab[i] for i in order[:n]]


def reference_topic_overlap(index, candidate, obs_months, n_topics, iterations, seed, top_n):
    """A candidate's `topic_overlap` from its word documents.

    The two documents are `build_documents`' words. When neither has more
    than `top_n` distinct words, the value is the size of their shared
    vocabulary; else `fit_lda` fits the pair, and per topic each document
    keeps its `top_n` words by a full sort on (-count, word).
    """
    window = observation_window(candidate.compound_first_seen, obs_months)
    docs = build_documents(index, [candidate.part_a.canonical, candidate.part_b.canonical], window)
    vocab_a, vocab_b = (set(doc.tokens) for doc in docs)
    if len(vocab_a) <= top_n and len(vocab_b) <= top_n:
        return float(len(vocab_a & vocab_b))
    model = fit_lda(docs, n_topics=n_topics, iterations=iterations, seed=seed)
    row = {word: i for i, word in enumerate(model.vocab)}

    def top(words, topic):
        column = model.word_topic[:, topic]
        return set(sorted(words, key=lambda w: (-column[row[w]], w))[:top_n])

    shared = sum(len(top(vocab_a, k) & top(vocab_b, k)) for k in range(n_topics))
    return shared / n_topics


def oracle_detect(index):
    """Compound set {(canonical, split_index)} via a pairwise join of hashtags."""
    tags = index.hashtags()
    splits = defaultdict(set)
    for x in tags:
        for y in tags:
            c = x + y
            if len(c) < 6 or not index.has(c):
                continue
            first = index.first_seen(c)
            if index.first_seen(x) < first and index.first_seen(y) < first:
                splits[c].add(len(x))
    out = set()
    for canon, positions in splits.items():
        if len(positions) == 1:
            out.add((canon, next(iter(positions))))
    return out


def oracle_segment_chunk(chunk, dictionary):
    """Best parse by exhaustive enumeration of all split masks.

    Score: most in-vocabulary words, then fewest words, then leftmost
    longest (lexicographically largest tuple of word lengths).
    """
    n = len(chunk)
    best_key = None
    best_parse = None
    for mask in range(1 << (n - 1)):
        parse = []
        start = 0
        for pos in range(1, n):
            if mask & (1 << (pos - 1)):
                parse.append(chunk[start:pos])
                start = pos
        parse.append(chunk[start:])
        inv = sum(1 for w in parse if w.lower() in dictionary.words)
        key = (inv, -len(parse), tuple(len(w) for w in parse))
        if best_key is None or key > best_key:
            best_key, best_parse = key, parse
    return best_parse


_PARTS = ("ab", "cd", "ef", "gh", "abc", "bcd", "cde", "def")


def random_corpus(seed, n_tweets=300):
    """Corpus over a tag pool dense in concatenations, so splits collide."""
    rng = np.random.default_rng([seed, 9090])
    pool = set(_PARTS)
    for x in _PARTS:
        for y in _PARTS:
            if len(x + y) >= 6:
                pool.add(x + y)
    pool = sorted(pool)
    base = 1306886400  # 2011-06-01 UTC
    tweets = []
    for i in range(n_tweets):
        n_tags = int(rng.integers(0, 4))
        chosen = rng.choice(len(pool), size=n_tags, replace=False)
        text = " ".join("#" + pool[int(k)] for k in chosen) or "plain filler text"
        tweets.append(
            Tweet(
                id=f"r{i:05d}",
                timestamp=base + int(rng.integers(0, 200 * 86400)),
                user_id=f"u{int(rng.integers(0, 40))}",
                text=text,
            )
        )
    return CorpusIndex(tweets)


def expression_gradient(kind, weights, bias, matrix, labels, l2):
    """Gradient of the mean regularized loss as one out-of-place expression."""
    n = len(labels)
    z = matrix @ weights + bias
    if kind == "logreg":
        err = 0.5 * (1.0 + np.tanh(0.5 * z)) - labels
        return matrix.T @ err / n + l2 * weights, float(err.mean())
    signed = 2.0 * labels - 1.0
    active = 1.0 - signed * z > 0
    grad_w = -(matrix[active].T @ signed[active]) / n + l2 * weights
    return grad_w, float(-signed[active].sum() / n)


def reference_fit(kind, matrix, labels, config):
    """Weights, bias and losses of plain full-batch descent on the public loss functions.

    Every step builds new arrays; `losses` holds the loss before each epoch
    and after the last one.
    """
    loss_grad = {"logreg": logreg_loss_grad, "linsvm": hinge_loss_grad}[kind]
    rng = np.random.default_rng(config.seed)
    weights = rng.normal(0.0, config.init_scale, size=matrix.shape[1])
    bias = 0.0
    losses = []
    for _ in range(config.epochs):
        loss, grad_w, grad_b = loss_grad(weights, bias, matrix, labels, config.l2)
        losses.append(loss)
        weights = weights - config.learning_rate * grad_w
        bias = bias - config.learning_rate * grad_b
    losses.append(loss_grad(weights, bias, matrix, labels, config.l2)[0])
    return weights, bias, losses


def reference_roc_auc(scores, labels):
    """Area under the ROC curve, ranking each run of tied scores in a loop.

    A run at sorted positions i..j shares the rank 0.5 * (i + j) + 1.0.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def select_groups(dataset, groups):
    """Dataset restricted to the features of the given groups, as a copy.

    Its combos are kept only when a combination slot column is left, so a
    cross validation of it rebinds slots only when it has some.
    """
    keep = [i for i, n in enumerate(dataset.feature_names) if dataset.groups[n] in groups]
    if not keep:
        raise ValueError(f"no features left after selecting groups {groups}")
    names = tuple(dataset.feature_names[i] for i in keep)
    has_slots = not set(names).isdisjoint(POS_SLOT_NAMES + NE_SLOT_NAMES)
    return replace(
        dataset,
        matrix=dataset.matrix[:, keep].copy(),
        feature_names=names,
        groups={n: dataset.groups[n] for n in names},
        binary_mask=dataset.binary_mask[keep],
        combos=dataset.combos if has_slots else None,
    )


def reference_ablate(dataset, kind, n_folds, seed, config):
    """The ablation as one cross validation per subset, each on its own `select_groups` copy."""
    report = AblationReport(kind=kind, n_folds=n_folds, seed=seed)
    for name, groups in ABLATION_COMBOS:
        subset = select_groups(dataset, groups)
        result = cross_validate(subset, kind=kind, n_folds=n_folds, seed=seed, config=config)
        report.reports[name] = result
        report.entries[name] = {
            "groups": list(groups),
            "n_features": len(subset.feature_names),
            "accuracy": result.accuracy,
            "precision": result.precision,
            "recall": result.recall,
            "f_score": result.f_score,
            "roc_area": result.roc_area,
        }
    return report
