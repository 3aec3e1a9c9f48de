"""Outside-in tracing of forestalg's public functions.

Each function is wrapped at the binding its caller looks up, such as
`forestalg.decide.ktype_algebra` for the call inside `decide.relation_s`, and
never at the binding a function uses to call itself, so recursion inside a
layer (`witness_forest` calling itself) is one span.  A span records its
parent, the op it ran under, its wall time, its self time (wall time minus
its children's), sizes read from the return value and the exception type it
raised.  Spans are recorded only while an op runs, not while its answer is
checked, and nothing is wrapped while tracing is off.
"""

from __future__ import annotations

import functools
import itertools
import math
from time import perf_counter


def _alg_sizes(alg):
    return {"h": alg.h_size, "v": alg.v_size}


# metric prefix -> (module, attribute) bindings and a reader of sizes from
# (args, result)
BINDINGS = {
    "algebra.validate_algebra": (
        [("algebra", "validate_algebra")],
        lambda args, out: _alg_sizes(out),
    ),
    "algebra.transformation_algebra": (
        [("ktypes", "transformation_algebra")],
        lambda args, out: _alg_sizes(out[0]),
    ),
    "algebra.syntactic_algebra": (
        [("decide", "syntactic_algebra")],
        lambda args, out: _alg_sizes(out.algebra),
    ),
    "algebra.wreath_generated": (
        [("decide", "wreath_generated")],
        lambda args, out: _alg_sizes(out.algebra),
    ),
    "algebra.accepts": (
        [("algebra.Recognizer", "accepts")],
        lambda args, out: {"nodes": args[1].size},
    ),
    "ktypes.ktype_algebra": (
        [("decide", "ktype_algebra"), ("ktypes", "ktype_algebra")],
        lambda args, out: _alg_sizes(out.algebra),
    ),
    "derived.pair_closure": (
        [("decide", "pair_closure"), ("derived", "pair_closure")],
        lambda args, out: {"pairs": len(out.h_pairs) + len(out.v_pairs)},
    ),
    "derived.witness_replay": (
        [("decide", "witness_forest"), ("decide", "witness_context")],
        lambda args, out: {"nodes": out.size},
    ),
    "derived.derived_category": (
        [("derived", "derived_category")],
        lambda args, out: {"symbols": out.category.harr_size + out.category.arr_size},
    ),
    "derived.dct_forward": ([("derived", "dct_forward")], None),
    "category.canonical_flat_cover": (
        [("category", "canonical_flat_cover")],
        lambda args, out: {"symbols": out[1]["symbols"]},
    ),
    "category.verify_covering": (
        [("category", "verify_covering"), ("derived", "verify_covering")],
        None,
    ),
    "category.validate_category": (
        [("category", "validate_category"), ("derived", "validate_category")],
        None,
    ),
    "decide.decide_lt": (
        [("decide", "decide_lt")],
        lambda args, out: {
            "steps": out.counters.get("search_steps", 0),
            "truncated": int(bool(out.counters.get("search_truncated"))),
        },
    ),
    "decide.relation_r": ([("decide", "relation_r")], None),
    "decide.relation_s": ([("decide", "relation_s")], None),
    "decide.verify_violation_at": (
        [("decide", "verify_violation_at")],
        lambda args, out: {"confirmed": int(out is not None)},
    ),
    "decide.lt_wreath_recognizer": ([("decide", "lt_wreath_recognizer")], None),
    "terms.parse_forest": (
        [("terms", "parse_forest")],
        lambda args, out: {"nodes": out.size},
    ),
}


# metric name -> unit, in report order; each wrapped function also reports
# `.calls`.  Times, calls and counts are per pass over the corpus.
PER_LAYER = {
    "algebra.validate_algebra.total_s": "s",
    "algebra.validate_algebra.max_v": "count",
    "algebra.transformation_algebra.self_s": "s",
    "algebra.syntactic_algebra.total_s": "s",
    "algebra.wreath_generated.self_s": "s",
    "algebra.wreath_generated.v_size": "count",
    "algebra.accepts.total_s": "s",
    "algebra.accepts.nodes_per_s": "1/s",
    "ktypes.ktype_algebra.self_s": "s",
    "ktypes.ktype_algebra.h_size": "count",
    "ktypes.ktype_algebra.v_size": "count",
    "derived.pair_closure.total_s": "s",
    "derived.pair_closure.pairs": "count",
    "derived.witness_replay.total_s": "s",
    "derived.derived_category.self_s": "s",
    "derived.dct_forward.self_s": "s",
    "category.canonical_flat_cover.total_s": "s",
    "category.canonical_flat_cover.symbols": "count",
    "category.verify_covering.total_s": "s",
    "category.validate_category.total_s": "s",
    "decide.decide_lt.self_s": "s",
    "decide.relation_r.total_s": "s",
    "decide.relation_r.budget_errors": "count",
    "decide.relation_s.self_s": "s",
    "decide.relation_s.budget_errors": "count",
    "decide.verify_violation_at.confirmed_ratio": "ratio",
    "decide.search.steps": "count",
    "decide.search.truncated": "count",
    "decide.lt_wreath_recognizer.self_s": "s",
    "terms.parse_forest.total_s": "s",
    "terms.parse_forest.nodes_per_s": "1/s",
}
for _prefix in BINDINGS:
    PER_LAYER[_prefix + ".calls"] = "count"
PER_LAYER["trace.overhead"] = "ratio"


def _resolve(fa, path):
    obj = fa
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span recorder; `install` wraps the bindings, `uninstall` restores them."""

    def __init__(self):
        self.spans = []  # (id, parent id, op, name, start, wall, self, sizes, error)
        self.op = None  # the running op; None while answers are checked
        self._open = []  # per open span: [id, time covered by children]
        self._ids = itertools.count()
        self._saved = []

    def install(self, fa):
        for name, (bindings, sizes) in BINDINGS.items():
            for owner_path, attr in bindings:
                owner = _resolve(fa, owner_path)
                original = getattr(owner, attr, None)
                if original is None:  # a binding the package no longer has
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, sizes))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        # an op interrupted inside a wrapper may leave its frame open
        self._open.clear()

    def _wrap(self, fn, name, sizes):
        spans, open_, ids = self.spans, self._open, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            frame = [next(ids), 0.0]
            parent = open_[-1][0] if open_ else None
            open_.append(frame)
            error = None
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                wall = perf_counter() - start
                if open_ and open_[-1] is frame:
                    open_.pop()
                    if open_:
                        open_[-1][1] += wall
                got = None
                if sizes is not None and error is None:
                    try:
                        got = sizes(args, out)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        got = None
                spans.append(
                    (frame[0], parent, self.op, name, start, wall, wall - frame[1], got, error)
                )

        return traced


# size metrics: the largest value of a size read from the layer's results
_LARGEST = {
    "algebra.validate_algebra.max_v": "v",
    "algebra.wreath_generated.v_size": "v",
    "ktypes.ktype_algebra.h_size": "h",
    "ktypes.ktype_algebra.v_size": "v",
    "derived.pair_closure.pairs": "pairs",
    "category.canonical_flat_cover.symbols": "symbols",
}


def per_layer(spans, passes, overhead):
    """The PER_LAYER metrics from the spans of `passes` traced passes."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
    out = {}

    def put(metric, value):
        out[metric] = {"value": value, "unit": PER_LAYER[metric]}

    def sizes(name, key):
        return [s[7][key] for s in by_name.get(name, ()) if s[7] and key in s[7]]

    def rate(name):
        done = [s for s in by_name.get(name, ()) if s[7] and "nodes" in s[7]]
        wall = sum(s[5] for s in done)
        return sum(s[7]["nodes"] for s in done) / wall if wall > 0 else 0.0

    for name in BINDINGS:
        group = by_name.get(name, ())
        put(name + ".calls", len(group) / passes)
        for field, idx in (("total_s", 5), ("self_s", 6)):
            if name + "." + field in PER_LAYER:
                put(name + "." + field, math.fsum(s[idx] for s in group) / passes)
        if name + ".budget_errors" in PER_LAYER:
            put(name + ".budget_errors", sum(s[8] == "BudgetError" for s in group) / passes)
    for metric, key in _LARGEST.items():
        put(metric, max(sizes(metric.rsplit(".", 1)[0], key), default=0))
    put("algebra.accepts.nodes_per_s", rate("algebra.accepts"))
    put("terms.parse_forest.nodes_per_s", rate("terms.parse_forest"))
    verified = len(by_name.get("decide.verify_violation_at", ()))
    confirmed = sum(sizes("decide.verify_violation_at", "confirmed"))
    put("decide.verify_violation_at.confirmed_ratio", confirmed / verified if verified else 0.0)
    put("decide.search.steps", sum(sizes("decide.decide_lt", "steps")) / passes)
    put("decide.search.truncated", sum(sizes("decide.decide_lt", "truncated")) / passes)
    put("trace.overhead", overhead)
    return {name: out[name] for name in PER_LAYER}
