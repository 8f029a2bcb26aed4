"""Spans around the program's public calls, recorded from outside.

:func:`install` wraps each layer's public entry point (the functions
and methods in :data:`FUNCTION_SITES` and :data:`METHOD_SITES`) so that
every call records a span — name, start, end, parent span, request id
and a few counters read off the return value — in a :class:`Tracer`
held in memory.  Nothing inside ``src/`` changes; the wrappers replace
module attributes at the binding sites the pipeline calls through.
:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span name -> (module, attribute) binding sites of a plain function.
FUNCTION_SITES: Dict[str, List[Tuple[str, str]]] = {
    "puppet.parse": [
        ("repro.core.pipeline", "parse_manifest"),
        ("repro.analysis.lint.engine", "parse_manifest"),
    ],
    "determinism": [("repro.core.pipeline", "check_determinism")],
    "idempotence": [
        ("repro.core.pipeline", "check_idempotence"),
        ("repro.service.incremental", "check_idempotence_incremental"),
    ],
    "lint": [("repro.analysis.lint", "lint_source")],
}

#: Span name -> (module, class, method).
METHOD_SITES: Dict[str, Tuple[str, str, str]] = {
    "puppet.evaluate": ("repro.puppet.evaluator", "Evaluator", "evaluate"),
    "puppet.graph": ("repro.puppet.catalog", "Catalog", "build_graph"),
    "resources.compile": ("repro.resources.compiler", "ResourceCompiler", "compile"),
    "verify": ("repro.core.pipeline", "Rehearsal", "verify"),
    "batch": ("repro.service.orchestrator", "BatchVerifier", "verify_sources"),
    "store.root_lookup": ("repro.service.incremental", "DetIncremental", "lookup_root"),
}


def _verify_attrs(report) -> dict:
    det = report.determinism
    if det is None:
        return {"resources": report.resource_count}
    s = det.stats
    return {
        "resources": report.resource_count,
        "branches": s.branches_explored,
        "memo_hits": s.memo_hits,
        "prefilter_proved": int(s.prefilter_proved),
        "sat_queries": s.sat_queries,
        "encode_ms": s.encode_seconds * 1000.0,
        "vars": s.sat_vars,
        "clauses": s.sat_clauses,
        "solve_ms": s.solve_seconds * 1000.0,
        "conflicts": s.sat_conflicts,
        "decisions": s.sat_decisions,
        "subtree_reuse_hits": s.subtree_reuse_hits,
        "cnf_cache_hits": s.cnf_cache_hits,
        "commute_cache_hits": s.commute_cache_hits,
    }


#: Span name -> counters read off the wrapped call's return value.
ATTRS: Dict[str, Callable[[object], dict]] = {
    "verify": _verify_attrs,
    "store.root_lookup": lambda served: {"hit": int(served is not None)},
}


class Tracer:
    """In-memory span recorder; one per process, written out once."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_request(self, request: Optional[str]) -> None:
        self._local.request = request

    def wrap(self, name: str, fn: Callable, request_of=None) -> Callable:
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if request_of is not None and not stack:
                local.request = request_of(args)
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                record = [
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    getattr(local, "request", None),
                    attrs_of(result) if attrs_of and result is not None else {},
                ]
                with self._lock:
                    self.spans.append(record)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf8") as handle:
            json.dump(self.spans, handle)


def _first_source_name(args) -> Optional[str]:
    """Request id of a ``verify_sources(self, sources)`` call."""
    sources = args[1] if len(args) > 1 else None
    try:
        items = list(sources.items()) if hasattr(sources, "items") else list(sources)
        return str(items[0][0])
    except (TypeError, IndexError):
        return None


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public layer entry point with ``tracer``'s spans;
    returns a function that puts the originals back."""
    originals = []

    def replace(target, attr: str, name: str, request_of=None) -> None:
        original = getattr(target, attr)
        originals.append((target, attr, original))
        setattr(target, attr, tracer.wrap(name, original, request_of))

    for name, sites in FUNCTION_SITES.items():
        for module_name, attr in sites:
            replace(importlib.import_module(module_name), attr, name)
    for name, (module_name, cls_name, method) in METHOD_SITES.items():
        cls = getattr(importlib.import_module(module_name), cls_name)
        replace(cls, method, name, _first_source_name if name == "batch" else None)

    def restore() -> None:
        for target, attr, original in reversed(originals):
            setattr(target, attr, original)

    return restore


def read_spans(path: str) -> List[list]:
    with open(path, encoding="utf8") as handle:
        return json.load(handle)


#: Per-layer metrics computed from spans, all per operation (one
#: manifest verify, CLI step or daemon request, as the workload says).
SPAN_METRICS = (
    "puppet.parse_ms",
    "puppet.evaluate_ms",
    "puppet.graph_ms",
    "puppet.resources",
    "resources.compile_ms",
    "determinism.ms",
    "determinism.branches",
    "determinism.memo_hits",
    "determinism.prefilter_proved",
    "determinism.sat_queries",
    "encode.ms",
    "encode.vars",
    "encode.clauses",
    "sat.solve_ms",
    "sat.conflicts",
    "sat.decisions",
    "idempotence.ms",
    "lint.ms",
    "batch.overhead_ms",
    "store.subtree_reuse_hits",
    "store.cnf_cache_hits",
    "store.commute_cache_hits",
    "store.root_hit_ratio",
)


def layer_metrics(spans: List[list], operations: int) -> Dict[str, float]:
    """Sum spans into per-operation layer metrics.

    Leaf layers report their whole span time.  ``lint.ms`` and
    ``batch.overhead_ms`` report self time — the span minus its child
    spans — because lint re-runs the front end and ``verify_sources``
    wraps the whole pipeline.  The ``store.*`` counters are left out
    when no verify consulted the incremental store.
    """
    total: Dict[str, float] = {}
    child: Dict[int, float] = {}
    counters: Dict[str, float] = {}
    for span_id, name, start, end, parent, _request, attrs in spans:
        total[name] = total.get(name, 0.0) + (end - start) * 1000.0
        if parent:
            child[parent] = child.get(parent, 0.0) + (end - start) * 1000.0
        for key, value in attrs.items():
            counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0.0) + value
    self_ms: Dict[str, float] = {}
    for span_id, name, start, end, *_ in spans:
        own = (end - start) * 1000.0 - child.get(span_id, 0.0)
        self_ms[name] = self_ms.get(name, 0.0) + own
    verifies = sum(1 for span in spans if span[1] == "verify")
    ops = max(operations, 1)

    def per_op(value: float) -> float:
        return value / ops

    out = {
        "puppet.parse_ms": per_op(total.get("puppet.parse", 0.0)),
        "puppet.evaluate_ms": per_op(total.get("puppet.evaluate", 0.0)),
        "puppet.graph_ms": per_op(total.get("puppet.graph", 0.0)),
        "puppet.resources": per_op(counters.get("verify.resources", 0.0)),
        "resources.compile_ms": per_op(total.get("resources.compile", 0.0)),
        "determinism.ms": per_op(total.get("determinism", 0.0)),
        "idempotence.ms": per_op(total.get("idempotence", 0.0)),
        "lint.ms": per_op(self_ms.get("lint", 0.0)),
        "batch.overhead_ms": per_op(self_ms.get("batch", 0.0)),
    }
    counted = [
        ("determinism.branches", "branches"),
        ("determinism.memo_hits", "memo_hits"),
        ("determinism.prefilter_proved", "prefilter_proved"),
        ("determinism.sat_queries", "sat_queries"),
        ("encode.ms", "encode_ms"),
        ("encode.vars", "vars"),
        ("encode.clauses", "clauses"),
        ("sat.solve_ms", "solve_ms"),
        ("sat.conflicts", "conflicts"),
        ("sat.decisions", "decisions"),
    ]
    if any(span[1] == "store.root_lookup" for span in spans):
        counted += [
            ("store.subtree_reuse_hits", "subtree_reuse_hits"),
            ("store.cnf_cache_hits", "cnf_cache_hits"),
            ("store.commute_cache_hits", "commute_cache_hits"),
        ]
        hits = counters.get("store.root_lookup.hit", 0.0)
        out["store.root_hit_ratio"] = hits / verifies if verifies else 0.0
    for metric, key in counted:
        out[metric] = per_op(counters.get(f"verify.{key}", 0.0))
    return out
