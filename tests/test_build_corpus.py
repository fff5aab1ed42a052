"""Every build and every limit in the corpus reproduces its record bit for
bit.

tests/build_corpus.py lists the cases and regenerates the records.
"""

import json
import time

from build_corpus import CORPUS, LIMIT_CORPUS, corpus, limit_corpus


def _compare(path, run):
    expected = json.loads(path.read_text())
    start = time.process_time()
    got = run()
    elapsed = time.process_time() - start
    assert [e["case"] for e in got] == [e["case"] for e in expected]
    moved = [g["case"] for g, e in zip(got, expected) if g != e]
    assert not moved, f"{len(moved)} cases moved, first {moved[0]!r}"
    assert elapsed < 1.0, f"the corpus took {elapsed:.2f} s of CPU"


def test_builds_match_the_corpus():
    _compare(CORPUS, corpus)


def test_limits_match_the_corpus():
    _compare(LIMIT_CORPUS, limit_corpus)
