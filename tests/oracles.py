"""Independent reference implementations used only by the tests.

These deliberately take different algorithmic routes than the library:
detection joins hashtag pairs instead of scanning split positions,
segmentation enumerates every one of the 2^(n-1) parses, tokenization
re-reads the raw text, topic words are ranked by a full sort of the
vocabulary, and model fitting is a plain descent loop with no reused
buffers and no in-place arithmetic.
"""

import string
from collections import defaultdict

import numpy as np

from tagmerge.corpus import CorpusIndex, Tweet
from tagmerge.learn import hinge_loss_grad, logreg_loss_grad


def tokenize(text, keep_tags=True, keep_mentions=True):
    """Whitespace tokenization with edge punctuation stripped and lowercasing.

    Pure-punctuation tokens vanish. The '#' and '@' sigils are stripped, so
    hashtag and mention words stay in the stream unless the corresponding
    keep flag is False. `CorpusIndex.tokens_of` and `plain_tokens_of` must
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


def top_words(model, topic, n=100):
    """A topic's n highest-count words over the model's whole vocabulary.

    Ties resolve alphabetically: the order is (-count, word).
    """
    column = model.word_topic[:, topic]
    order = sorted(range(len(model.vocab)), key=lambda i: (-column[i], model.vocab[i]))
    return [model.vocab[i] for i in order[:n]]


def oracle_detect(index, window=None):
    """Compound set {(canonical, split_index)} via a pairwise join of hashtags."""
    if window is None:
        if not len(index):
            return set()
        window = (index.coverage_start, index.coverage_end)
    lo, hi = window
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
        if len(positions) == 1 and lo <= index.first_seen(canon) <= hi:
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
