"""Every build in the corpus reproduces its record bit for bit.

tests/build_corpus.py lists the cases and regenerates the record.
"""

import json
import time

from build_corpus import CORPUS, corpus


def test_builds_match_the_corpus():
    expected = json.loads(CORPUS.read_text())
    start = time.process_time()
    got = corpus()
    elapsed = time.process_time() - start
    assert [e["case"] for e in got] == [e["case"] for e in expected]
    moved = [g["case"] for g, e in zip(got, expected) if g != e]
    assert not moved, f"{len(moved)} cases moved, first {moved[0]!r}"
    assert elapsed < 1.0, f"the corpus took {elapsed:.2f} s of CPU"
