"""Build a tiny index by hand and poke at its time queries.

Run: python3 demos/01_corpus_basics.py
"""

from tagmerge.corpus import CorpusIndex, Tweet, month_start, shift_months

T0 = month_start("2011-03")

tweets = [
    Tweet(id="t1", timestamp=T0 + 3600, user_id="ana", text="#Snow keeps falling"),
    Tweet(id="t2", timestamp=T0 + 7200, user_id="bo", text="#snow plows out again"),
    Tweet(id="t3", timestamp=shift_months(T0, 1), user_id="ana", text="#day off at last"),
    Tweet(id="t4", timestamp=shift_months(T0, 2) + 60, user_id="cy", text="#SnowDay no school!"),
    Tweet(id="t5", timestamp=shift_months(T0, 2) + 120, user_id="bo", text="#snowday sledding @ana"),
]

index = CorpusIndex(tweets)

print(f"{len(index)} tweets, vocabulary: {', '.join(index.hashtags())}")
print(f"coverage: {index.coverage_start} .. {index.coverage_end} (months {index.months})")

# canonical form is lowercase; the first display form seen is remembered
print(f"first #snowday spelling: {index.hashtag_id('snowday').display!r}")
print(f"first seen at {index.first_seen('snowday')} (t4, not t5)")

for month in index.months:
    print(f"  {month}: snow={index.monthly_frequency('snow', month)}"
          f" snowday={index.monthly_frequency('snowday', month)}")

# window queries are open on both sides: a tweet at either edge is excluded,
# so nothing at the compounding instant leaks into pre-compounding history
frm = T0
to = shift_months(frm, 1)
print(f"day in ({frm}, {to}): {index.count_between('day', frm, to)} (t3 sits on the edge)")

# timestamps are whole seconds, so (frm, to] is the open window (frm, to + 1)
print(f"day in ({frm}, {to}]: {index.count_between('day', frm, to + 1)}")

t4 = index.first_seen("snowday")
print(f"snow strictly inside ({frm}, {t4}): {index.count_between('snow', frm, t4)}")
