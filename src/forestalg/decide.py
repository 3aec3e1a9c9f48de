"""Deciding local testability of a regular forest language.

The pipeline works over the syntactic algebra.  An idempotent horizontal
monoid is necessary; after that, two identities quantified over realizability
relations decide the property:

  (i)  over pairs (a(r), a(s)) with the depth-k root types of r included in
       those of s:   a((r+s)t + ru) = a(st + ru)
  (ii) over pairs (a(r), a(p)) with the root types of rp equal to those of r:
       a(rpq + rpq') = a(rq + rpq')

If both hold over the exact relations at some level k, the language is
locally testable with level at most k+1; the relations shrink as k grows, so
holding at a small k settles every larger one.  A violation is conclusive
only once its side condition is re-verified on concrete replayed terms at
k* = |H|^2 + 1, the worst-case level.

Both relations at depth k are read off one level: the closure of the
realizable (syntactic value, root-type set) pairs, the half-arrows of the
derived category, taken against the depth-k root-type quotient elementwise,
so its transformation monoid is never built.  R pairs the values whose
root-type sets are included; S pairs a value with a context value that keeps
its root-type set.  Read over the pair closure's values, (i) is that
category's horizontal absorption and (ii) its loop removal, and both
checkers, these and `category.check_identities`, run on one orbit-class
engine.  When a level exceeds the budget, R saturates from typed-tree value
tables over the level of depth k-1 if that level fit (this requires
idempotence), and is "unavailable" otherwise: only identity (ii) is checked
there, and the level cannot give LT.  S falls back to the exact S of the
last level that fit, since S shrinks as k grows.
Exactness at k* itself is out of reach for nontrivial algebras (the type
spaces grow non-elementarily), so the pipeline is sound but partial in the
middle and exact at the extremes.

Lemma.  Call a tree K deep when its longest root-to-leaf path has K nodes.
Let H be idempotent and every tree of r at most K deep.  Then root_types(r, K)
<= root_types(s, K) gives r+s the value of s, and root_types(rp, K) =
root_types(r, K) gives rp the value of r.
Proof.  A depth-K type holds the atom iff its tree is more than K deep, and
otherwise fixes the tree up to the order and repetition of siblings, which a
commutative idempotent H does not count: trees of one such type have one
value (by induction on depth).  (i) Each tree of r has the type, so the value,
of a tree of s, and adding that value to s again changes nothing.  (ii) If the
hole of p lay below a root of p, the root of rp above it would hold a copy of
every tree of r strictly inside, so it would be deeper than each tree of r;
yet it has the type of a tree of r, which fixes its depth (and with r empty,
rp has a root and r none).  So rp = r+f with root_types(f, K) <=
root_types(r, K), types of trees at most K deep, and (i) applies.  []
So a violation whose side condition holds at k* needs a tree of r more than
k* deep: every instance over terms of at most k* nodes holds, and with
|H| = 1 no identity can fail.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import terms
from .algebra import (
    BudgetError,
    FlatMaskAlgebra,
    Morphism,
    Recognizer,
    SyntacticResult,
    WreathOps,
    syntactic_algebra,
    wreath_generated,
)
from .category import _absorption_failure, _loop_failure
from .derived import pair_closure, witness_context, witness_forest
from .ktypes import (
    _apply_letter_root,
    _root_type_ops,
    classes_predicate,
    ktype_algebra,
    root_types,
    truncate,
    type_render,
)
from .terms import apply_context

__all__ = [
    "Relation",
    "relation_r",
    "relation_s",
    "LtVerdict",
    "DecideBudgets",
    "decide_lt",
    "separating_context",
    "WreathRecognizer",
    "lt_wreath_recognizer",
]


# ---------------------------------------------------------------------------
# The realizability relations, read off one pair closure per level


@dataclass
class DecideBudgets:
    """`max_k`: the deepest level k whose relations decide_lt checks.
    `closure_budget`: the bound on each level's pair closure, past which R
    saturates from the level below and S stands in from the last that fit."""

    max_k: int = 2
    closure_budget: int = 300000


def _level(syn: SyntacticResult, k, budget):
    """The closure of the realizable (syntactic value, depth-k root-type set)
    pairs against the elementwise root-type ops, with no quotient tables;
    raises BudgetError when the root-type sets or the closure exceed it."""
    ops = _root_type_ops(syn.recognizer.alphabet, k, budget)
    letters = {a: ops.encode(tau) for a, tau in ops.letters.items()}
    beta = Morphism(ops, syn.recognizer.alphabet, letters)
    return pair_closure(syn.recognizer.morphism, beta, budget=budget)


class _Replayed(Mapping):
    """Read-only pair -> witness terms that keeps one derivation handle per
    pair and replays the terms each time a pair is read."""

    def __init__(self, handles, replay):
        self._handles = handles
        self._replay = replay

    def __getitem__(self, key):
        return self._replay(self._handles[key])

    def __contains__(self, key):
        return key in self._handles

    def __iter__(self):
        return iter(self._handles)

    def __len__(self):
        return len(self._handles)


@dataclass
class Relation:
    kind: str  # "R" or "S"
    k: int
    strategy: str  # "exact-closure" | "saturation"; every relation is exact
    pairs: frozenset
    # pair -> (Forest, Forest) for R, (Forest, Context) for S; each relation
    # keeps one derivation handle per pair and replays it on read, through
    # witness_forest and witness_context on the pair closure: exact-closure
    # keeps pair closure indices, saturation the sum and generator it adds
    witnesses: Mapping


def _relation_r_exact(k, pa):
    states = pa.beta.algebra.states
    # by_state[st] = value -> first pair index realizing it with root-type set st
    by_state = {}
    for i, (h, st) in enumerate(pa.h_pairs):
        by_state.setdefault(st, {}).setdefault(h, i)
    handles = {}
    for st_s, s_values in by_state.items():
        below = {}  # values realizable with a subset of the root types of st_s
        for st_r, r_values in by_state.items():
            if states[st_r] <= states[st_s]:
                for h_r, i_r in r_values.items():
                    below.setdefault(h_r, i_r)
        for h_s, i_s in s_values.items():
            for h_r, i_r in below.items():
                handles.setdefault((h_r, h_s), (i_r, i_s))
    # the replay helper is looked up in this module when a pair is read, so a
    # wrapper installed on decide.witness_forest sees every replay
    wit = _Replayed(handles, lambda h: (witness_forest(pa, h[0]), witness_forest(pa, h[1])))
    return Relation("R", k, "exact-closure", frozenset(handles), wit)


def _relation_r_saturation(syn: SyntacticResult, k, pa):
    """R at depth k from the level of depth k-1 (depth 0 at k = 0); requires
    an idempotent horizontal monoid."""
    alg = syn.algebra
    m = syn.recognizer.morphism
    # typed-tree value table at depth k: a(s) has the depth-k type (a, depth-
    # (k-1) root types of s), and at k = 0 every tree has the atom type
    by_type = {}  # tree type -> value -> (pair index of s, a) for a tree a(s)
    for i, (h, st) in enumerate(pa.h_pairs):
        for a in sorted(syn.recognizer.alphabet):
            trees = by_type.setdefault((a, st) if k else None, {})
            trees.setdefault(alg.act[h][m.letters[a]], (i, a))
    # generators: (0, w) for every value w (every syntactic H value is
    # realizable) and the pairs of two trees of one type
    gens = {(alg.zero, w): None for w in range(alg.h_size)}
    for trees in by_type.values():
        for h, r in trees.items():
            for g, s in trees.items():
                gens.setdefault((h, g), (r, s))
    # H is idempotent, so R is the set of sums of subsets of the generators;
    # each sum keeps (the sum it extends, the generator it adds) as its handle
    handles = {(alg.zero, alg.zero): None}
    for gh, gg in gens:
        for h, g in list(handles):
            handles.setdefault((alg.add[h][gh], alg.add[g][gg]), ((h, g), (gh, gg)))

    def replay(handle):
        r_trees, s_trees = [], []
        while handle is not None:
            pair, gen = handle
            handle = handles[pair]
            if gens[gen] is None:
                s_trees.extend(syn.h_terms[gen[1]].trees)
            else:
                (i, a), (j, b) = gens[gen]
                r_trees.append(terms.Tree(a, witness_forest(pa, i)))
                s_trees.append(terms.Tree(b, witness_forest(pa, j)))
        return terms.Forest(r_trees), terms.Forest(s_trees)

    return Relation("R", k, "saturation", frozenset(handles), _Replayed(handles, replay))


def relation_r(rec, k, strategy="exact-closure", budget=DecideBudgets().closure_budget):
    """The realizability relation for identity (i) at depth k, read off the
    pair closure of depth k ("exact-closure") or saturated from the one of
    depth k-1 ("saturation")."""
    syn = rec if isinstance(rec, SyntacticResult) else syntactic_algebra(rec)
    if strategy == "exact-closure":
        return _relation_r_exact(k, _level(syn, k, budget))
    if strategy == "saturation":
        if not syn.algebra.h_idempotent():
            raise ValueError("saturation strategy requires an idempotent horizontal monoid")
        return _relation_r_saturation(syn, k, _level(syn, max(k - 1, 0), budget))
    raise ValueError("unknown strategy %r" % strategy)


def _relation_s_exact(k, pa):
    # column hk of the stacked depth-k V maps: where each V pair sends set hk
    v1s, vks = zip(*pa.v_pairs)
    v1s, vks = np.array(v1s, dtype=np.int64), pa.beta.algebra.read(vks)
    keeping = {}  # hk -> (v1, first vi keeping hk with that v1), by vi
    handles = {}
    for hi, (h1, hk) in enumerate(pa.h_pairs):
        if hk not in keeping:
            vis = np.flatnonzero(vks[:, hk] == hk)
            _, firsts = np.unique(v1s[vis], return_index=True)
            keeping[hk] = [(int(v1s[vi]), int(vi)) for vi in vis[np.sort(firsts)]]
        for v1, vi in keeping[hk]:
            handles.setdefault((h1, v1), (hi, vi))
    wit = _Replayed(handles, lambda h: (witness_forest(pa, h[0]), witness_context(pa, h[1])))
    return Relation("S", k, "exact-closure", frozenset(handles), wit)


def relation_s(rec, k, budget=DecideBudgets().closure_budget):
    """The realizability relation for identity (ii) at depth k."""
    syn = rec if isinstance(rec, SyntacticResult) else syntactic_algebra(rec)
    return _relation_s_exact(k, _level(syn, k, budget))


# ---------------------------------------------------------------------------
# The identities


def _add_act(alg):
    return (
        np.array(alg.add, dtype=np.int64).reshape(alg.h_size, alg.h_size),
        np.array(alg.act, dtype=np.int64).reshape(alg.h_size, alg.v_size),
    )


def _by_first(rel: Relation):
    """The pairs of rel in sorted order, grouped as (r, [each x of a pair (r, x)])."""
    return ((r, [x for _, x in group]) for r, group in groupby(sorted(rel.pairs), key=itemgetter(0)))


def _check_identity_i(syn, rel: Relation):
    hit = _absorption_failure(*_add_act(syn.algebra), _by_first(rel))
    if hit is None:
        return None
    r, s, vt, vu = hit
    return ("i", *rel.witnesses[(r, s)], syn.v_terms[vt], syn.v_terms[vu])


def _check_identity_ii(syn, rel: Relation):
    hit = _loop_failure(*_add_act(syn.algebra), _by_first(rel))
    if hit is None:
        return None
    r, p, vq, vq2 = hit
    return ("ii", *rel.witnesses[(r, p)], syn.v_terms[vq], syn.v_terms[vq2])


def separating_context(syn: SyntacticResult, h1, h2):
    """A context whose application separates two distinct syntactic values by
    acceptance; exists by minimality of the syntactic algebra."""
    alg = syn.algebra
    accept = syn.recognizer.accept
    for v in range(alg.v_size):
        if (alg.act[h1][v] in accept) != (alg.act[h2][v] in accept):
            return syn.v_terms[v]
    return None


def _separator(syn: SyntacticResult, left, right, h_left, h_right):
    """The rendered separating context of the values h_left of left and
    h_right of right, checked to flip acceptance on the two terms."""
    w = separating_context(syn, h_left, h_right)
    assert w is not None
    accepts = syn.recognizer.accepts
    assert accepts(apply_context(left, w)) != accepts(apply_context(right, w))
    return w.render()


def verify_violation_at(syn: SyntacticResult, witness, kstar):
    """Re-verify an identity violation on its concrete terms at level kstar:
    the side condition is recomputed on the replayed terms, and the
    inequation is re-evaluated; returns the self-contained evidence dict or
    None if the witness does not survive at kstar."""
    m = syn.recognizer.morphism
    kind = witness[0]
    if kind == "i":
        _, r, s, t, u = witness
        if not (root_types(r, kstar) <= root_types(s, kstar)):
            return None
        lhs = apply_context(r + s, t) + apply_context(r, u)
        rhs = apply_context(s, t) + apply_context(r, u)
    else:
        _, r, p, q, q2 = witness
        rp = apply_context(r, p)
        if root_types(rp, kstar) != root_types(r, kstar):
            return None
        lhs = apply_context(rp, q) + apply_context(rp, q2)
        rhs = apply_context(r, q) + apply_context(rp, q2)
    hl, hr = m.eval_forest(lhs), m.eval_forest(rhs)
    if hl == hr:
        return None
    return {
        "kind": kind,
        "terms": [x.render() for x in witness[1:]],
        "lhs": lhs.render(),
        "rhs": rhs.render(),
        "separator": _separator(syn, lhs, rhs, hl, hr),
        "kstar": kstar,
    }


# ---------------------------------------------------------------------------
# The pipeline


@dataclass
class LtVerdict:
    kind: str  # "LT" | "NotLT" | "Unknown"
    level: int | None
    reason: str | None
    kstar: int
    evidence: dict
    progress: list
    counters: dict

    def as_json(self):
        return {
            "verdict": self.kind,
            "level": self.level,
            "reason": self.reason,
            "kstar": self.kstar,
            "evidence": self.evidence,
            "progress": self.progress,
            "counters": self.counters,
        }


def _nonidempotent_evidence(syn: SyntacticResult, h):
    r = syn.h_terms[h]
    doubled = r + r
    return {
        "value": h,
        "term": r.render(),
        "doubled": doubled.render(),
        "separator": _separator(syn, r, doubled, h, syn.algebra.add[h][h]),
    }


def decide_lt(rec: Recognizer, budgets: DecideBudgets | None = None) -> LtVerdict:
    """The decision pipeline.  LT verdicts carry the level and the identity
    transcript over exact relations.  NotLT evidence comes from
    nonidempotence or from a level's witness that verifies at k*; by the
    lemma of the module docstring, such a witness needs a tree of r more
    than k* deep.  When no level settles it, the verdict is Unknown with the
    full progress report, never a silent truncation."""
    budgets = budgets or DecideBudgets()
    syn = syntactic_algebra(rec)
    alg = syn.algebra
    kstar = alg.h_size * alg.h_size + 1
    counters = {"h_size": alg.h_size, "v_size": alg.v_size}
    progress = []

    bad = alg.h_nonidempotent_witness()
    if bad is not None:
        evidence = _nonidempotent_evidence(syn, bad)
        return LtVerdict("NotLT", None, "nonidempotent", kstar, evidence, progress, counters)

    best_exact_s = None
    last_level = None  # the level of depth k-1, if it fit the budget
    for k in range(0, budgets.max_k + 1):
        try:
            level = _level(syn, k, budgets.closure_budget)
        except BudgetError:
            level = None
        if level is not None:
            rel_r = _relation_r_exact(k, level)
            rel_s = best_exact_s = _relation_s_exact(k, level)
            s_strategy = "exact-closure"
        else:
            # R saturates from depth k-1; S shrinks as k grows, so the exact S
            # of the last level that fit stands in for it
            rel_r = None
            if last_level is not None:
                rel_r = _relation_r_saturation(syn, k, last_level)
            rel_s = best_exact_s
            s_strategy = "exact-closure@k=%d" % rel_s.k if rel_s is not None else "unavailable"
        last_level = level
        entry = {
            "k": k,
            "r_strategy": rel_r.strategy if rel_r is not None else "unavailable",
            "s_strategy": s_strategy,
            "r_size": len(rel_r.pairs) if rel_r is not None else None,
            "s_size": len(rel_s.pairs) if rel_s is not None else None,
        }

        witness = _check_identity_i(syn, rel_r) if rel_r is not None else None
        if witness is None and rel_s is not None:
            witness = _check_identity_ii(syn, rel_s)
        if witness is not None:
            entry["outcome"] = "violated"
            progress.append(entry)
            got = verify_violation_at(syn, witness, kstar)
            if got is not None:
                return LtVerdict("NotLT", None, "identity-witness", kstar, got, progress, counters)
            entry["witness_failed_at_kstar"] = True
            continue
        if rel_r is not None and rel_s is not None:
            # identity (ii) held over an exact S at level j <= k, which
            # contains S at level k, so both identities hold at level k
            entry["outcome"] = "holds"
            progress.append(entry)
            evidence = {
                "k": k,
                "r_strategy": rel_r.strategy,
                "r_size": len(rel_r.pairs),
                "s_level": rel_s.k,
                "s_size": len(rel_s.pairs),
            }
            return LtVerdict("LT", k + 1, "identities-hold", kstar, evidence, progress, counters)
        entry["outcome"] = "inconclusive"
        progress.append(entry)

    return LtVerdict("Unknown", None, "budgets-exhausted", kstar, {}, progress, counters)


# ---------------------------------------------------------------------------
# The wreath recognizer for a union of k-local classes


@dataclass
class WreathRecognizer:
    recognizer: Recognizer
    delta: Morphism  # the factoring morphism into WreathOps(outer, inner)
    inner: object  # the depth-k quotient handle
    pi_ok: bool
    type_ids: tuple  # outer bit index -> node type id


def lt_wreath_recognizer(alphabet, k, accept, budget=20000) -> WreathRecognizer:
    """Recognize a union of k-local classes by a morphism into
    (flat node-type-set algebra) o (depth-k root-type algebra), with the
    inner projection equal to the depth-k morphism letterwise.

    `accept` is a predicate over (node type ids, root type ids at k-1) or an
    iterable of representative forests.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alphabet = terms.make_alphabet(alphabet)
    if not callable(accept):
        accept = classes_predicate(list(accept), k)
    ka = ktype_algebra(alphabet, k, budget=budget)
    # realizable node types and the flat subset algebra over them, as masks
    type_ids = sorted({t for st in ka.states for t in st}, key=type_render)
    n_types = len(type_ids)
    type_bit = {t: i for i, t in enumerate(type_ids)}
    outer = FlatMaskAlgebra(n_types)

    letters = {}
    for a in sorted(alphabet):
        f = []
        for st in ka.states:
            (new_type,) = _apply_letter_root(a, st, k)
            f.append(1 << type_bit[new_type])
        letters[a] = (tuple(f), ka.morphism.letters[a])
    delta = Morphism(WreathOps(outer, ka.algebra), alphabet, letters)

    wp = wreath_generated(outer, ka.algebra, [letters[a] for a in sorted(alphabet)], budget=budget)
    morphism = Morphism(
        wp.algebra, alphabet, {a: wp.v_index[letters[a]] for a in sorted(alphabet)}
    )
    pi_ok = all(wp.v_pairs[morphism.letters[a]][1] == ka.morphism.letters[a] for a in alphabet)
    pi_ok = pi_ok and wp.pi_check()

    accept_set = set()
    for i, (mask, hk) in enumerate(wp.h_pairs):
        nodes = frozenset(type_ids[b] for b in range(n_types) if mask & (1 << b))
        roots = frozenset(truncate(t, k - 1) for t in ka.states[hk])
        if accept(nodes, roots):
            accept_set.add(i)
    recognizer = Recognizer(morphism, frozenset(accept_set))
    return WreathRecognizer(recognizer, delta, ka, pi_ok, tuple(type_ids))
