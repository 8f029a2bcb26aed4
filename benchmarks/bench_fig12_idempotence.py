"""Fig. 12 — idempotence-check time per benchmark.

The idempotence check runs on deterministic manifests only (§5), so
the fixed variants stand in for the six non-deterministic benchmarks,
mirroring the paper's "for each non-deterministic program, we
developed a fix and verified that Rehearsal reports that it is
deterministic and idempotent".  Expected shape: uniformly fast —
no permutation exploration is involved, and every subject is proved
by rewriting without a SAT query (a few ms each).
"""

import pytest

from repro.analysis.idempotence import check_idempotence
from repro.core.pipeline import Rehearsal
from repro.corpus import BENCHMARK_NAMES, idempotence_subject, load_source


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_fig12_idempotence(benchmark, name):
    subject = idempotence_subject(name)
    tool = Rehearsal()
    graph, programs = tool.compile(load_source(subject))

    result = benchmark.pedantic(
        check_idempotence, args=(graph, programs), rounds=1, iterations=1
    )
    benchmark.extra_info["subject"] = subject
    assert result.idempotent
