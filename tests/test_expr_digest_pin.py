"""Stores written by earlier releases keep hitting.

Every incremental-store key builds on :func:`expr_digest`, a canonical
serialization of the FS syntax tree.  A change to the syntax classes
that alters any digest would silently turn every persisted entry into
a miss, so the digests of the whole compiled corpus are pinned here.
Changing them on purpose means bumping ``STORE_VERSION`` and
re-recording the literal.
"""

import hashlib

from repro import Rehearsal
from repro.corpus import CASES, load_source
from repro.service.incremental import STORE_VERSION, expr_digest

#: SHA-256 over ``manifest\tnode\tdigest\n`` for every compiled corpus
#: program, manifests by name and nodes by ``str``.
CORPUS_DIGESTS = "e1a7c40c339a0e6995c8649a383d662bc171b1f4dc38ccceccb1a7135012f348"
CORPUS_PROGRAMS = 68


def test_corpus_expr_digests_are_pinned():
    h = hashlib.sha256()
    count = 0
    for name in sorted(CASES):
        _, programs = Rehearsal().compile(load_source(name))
        for node in sorted(programs, key=str):
            h.update(f"{name}\t{node}\t{expr_digest(programs[node])}\n".encode())
            count += 1
    assert count == CORPUS_PROGRAMS
    assert h.hexdigest() == CORPUS_DIGESTS
    assert STORE_VERSION == 3
