"""The observable outputs of every calculus and subcommand, pinned by one digest."""

from __future__ import annotations

import equivalence

# what `python3 tests/equivalence.py 40` prints; it reads the same with
# PYTHONHASHSEED 1, 2, 3 and 7, and CI runs it on Python 3.10 and 3.11.  A
# change that alters behaviour on purpose updates it and lists the outputs
# that changed.
DIGEST_40 = "aa03ef3fd3899be7385ffed1249c252f9b1003d005fa4b16b74d0fbd31375776"


def test_the_equivalence_digest_holds():
    assert equivalence.digests(40)[1] == DIGEST_40
