"""Workload inputs, each a pure function of the workload seed.

Nothing here reads a clock, the environment or a process-wide random
state: the same seed gives byte-identical manifests, edit scripts,
arrival schedules and request mixes on every machine, and the program
under test only ever sees what these functions return.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.corpus import CASES, FIXED_VARIANTS, load_source

#: All 19 corpus manifests: 13 paper benchmarks + 6 fixed variants.
CORPUS: List[str] = sorted(CASES) + sorted(FIXED_VARIANTS)

#: Manifests whose verdict is "deterministic and idempotent": the
#: bases of every content edit (7 deterministic benchmarks + 6 fixes).
EDIT_BASES: List[str] = [
    name for name in CORPUS if name in FIXED_VARIANTS or CASES[name].deterministic
]

#: Daemon request mix per block of ten requests: tier reads,
#: verdict-cache re-POSTs and fresh one-resource edits.
MIX: Tuple[Tuple[str, int], ...] = (("get", 7), ("repost", 2), ("edit", 1))

_CONTENT = re.compile(r'content\s*=>\s*"')


def derive(seed: int, *labels: object) -> int:
    """A 64-bit integer determined by ``seed`` and ``labels`` alone."""
    text = repr((int(seed),) + labels).encode("utf8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def rng(seed: int, *labels: object) -> random.Random:
    return random.Random(derive(seed, *labels))


def hash_seed(seed: int, *labels: object) -> str:
    """A ``PYTHONHASHSEED`` value for one spawned process."""
    return str(derive(seed, "hash-seed", *labels) % 4294967296)


def expected_verdict(name: str) -> Tuple[bool, Optional[bool]]:
    """(deterministic, idempotent) from the corpus inventory, never
    from the tool: fixed variants and deterministic benchmarks are
    idempotent; idempotence is not defined (None) on the others."""
    if name in FIXED_VARIANTS:
        return True, True
    deterministic = CASES[name].deterministic
    return deterministic, (True if deterministic else None)


def verdict_error(name: str, row: dict) -> Optional[str]:
    """Why a verdict row (the ``ManifestResult`` dict form) for corpus
    manifest ``name`` — or an edit of it — is wrong; None if right."""
    deterministic, idempotent = expected_verdict(name)
    if row.get("status") == "error":
        return f"{name}: error row: {row.get('error')}"
    if row.get("deterministic") is not deterministic:
        return f"{name}: deterministic={row.get('deterministic')}, expected {deterministic}"
    if idempotent is not None and row.get("idempotent") is not idempotent:
        return f"{name}: idempotent={row.get('idempotent')}, expected {idempotent}"
    return None


def corpus_order(seed: int, pass_index: int) -> List[str]:
    """The order in which one corpus pass visits the 19 manifests."""
    order = list(CORPUS)
    rng(seed, "corpus-order", pass_index).shuffle(order)
    return order


@dataclass(frozen=True)
class Edit:
    """A one-resource content edit of a corpus manifest."""

    base: str
    source: str
    token: str


def edit_source(source: str, which: int, token: str) -> str:
    """``source`` with a comment line prepended to the body of its
    ``which``-th ``content`` string: the file's content changes, its
    path, type and ordering do not, so the verdict is the base's."""
    matches = list(_CONTENT.finditer(source))
    if not matches:
        raise ValueError("manifest has no content attribute to edit")
    at = matches[which % len(matches)].end()
    return source[:at] + f"# edit {token}\\n" + source[at:]


def edit_stream(seed: int, stream: str) -> Iterator[Edit]:
    """The endless edits of one stream (``cli``, ``daemon-light`` ...).

    Bases are dealt from a deck reshuffled every cycle, so every base
    (jpa and amavis included) recurs at the same rate in any run of
    at least one cycle; the edited literal and the token vary per
    edit, so no two edits of a stream share a source.
    """
    draw = rng(seed, "edit-script", stream)
    sources = {base: load_source(base) for base in EDIT_BASES}
    for index in itertools.count():
        if index % len(EDIT_BASES) == 0:
            deck = list(EDIT_BASES)
            draw.shuffle(deck)
        base = deck.pop()
        token = f"{stream}-{seed}-{index}"
        yield Edit(base, edit_source(sources[base], draw.randrange(8), token), token)


def edit_script(seed: int, stream: str, count: int) -> List[Edit]:
    """The first ``count`` edits of :func:`edit_stream`."""
    return list(itertools.islice(edit_stream(seed, stream), count))


def arrival_schedule(seed: int, phase: str, rate: float, seconds: float) -> List[float]:
    """Arrival times (seconds from the phase start) at a constant
    ``rate`` requests per second over ``seconds``, from a seeded
    offset: an open loop at a fixed offered rate, whose bursts come
    only from the system under test."""
    gap = 1.0 / rate
    at = rng(seed, "arrivals", phase).uniform(0.0, gap)
    times: List[float] = []
    while at < seconds:
        times.append(at)
        at += gap
    return times


def request_mix(seed: int, phase: str, count: int) -> List[Tuple[str, str]]:
    """``count`` daemon requests as (kind, corpus target) pairs.

    ``get`` reads the verdict of a corpus manifest by key, ``repost``
    sends a corpus source again (a verdict-cache hit) and ``edit``
    posts the phase's next fresh edit (its target is unused).  Kinds
    are dealt in shuffled blocks of ten, so every run of a phase has
    the same mix.
    """
    draw = rng(seed, "mix", phase)
    block = [kind for kind, share in MIX for _ in range(share)]
    out: List[Tuple[str, str]] = []
    while len(out) < count:
        draw.shuffle(block)
        out.extend((kind, draw.choice(CORPUS)) for kind in block)
    return out[:count]
