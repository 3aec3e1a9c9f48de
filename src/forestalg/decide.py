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

R has two exact strategies, kept deliberately independent: a closure over
joint (value, root-type-set) pairs, and a saturation from typed-tree value
tables at depth k-1 (requires idempotence).  S is the exact closure of the
pair (syntactic, depth-k type) morphism; once it exceeds the budget, the exact
S of the last level that fit stands in for it, since S shrinks as k grows.
Once both R strategies exceed the budget, R is "unavailable" at that level:
only identity (ii) is checked there, and the level cannot give LT.
Exactness at k* itself is out of reach for nontrivial algebras (the type
spaces grow non-elementarily), so the pipeline is sound but partial in the
middle and exact at the extremes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import terms
from .algebra import (
    BudgetError,
    Morphism,
    Recognizer,
    SyntacticResult,
    flat_algebra,
    syntactic_algebra,
    wreath_generated,
)
from .derived import WreathMorphism, pair_closure, witness_context, witness_forest
from .ktypes import (
    _apply_letter_root,
    _require_root_sets_fit,
    classes_predicate,
    ktype_algebra,
    root_types,
    truncate,
    type_render,
)
from .terms import apply_context, enumerate_contexts, enumerate_forests

__all__ = [
    "Relation",
    "relation_r",
    "relation_s",
    "LtVerdict",
    "DecideBudgets",
    "decide_lt",
    "h_idempotent_necessary",
    "separating_context",
    "WreathRecognizer",
    "lt_wreath_recognizer",
]


def h_idempotent_necessary(rec: Recognizer) -> bool:
    """Necessary condition: the syntactic horizontal monoid is idempotent."""
    return syntactic_algebra(rec).algebra.h_idempotent()


# ---------------------------------------------------------------------------
# Realizable type machinery on integer-coded types.
#
# Depth-j types over a sorted alphabet are coded as integers: the depth-0
# atom is 0; a depth-j type (a, S) is a_index << N_{j-1} | S, where S is a
# bitmask over depth-(j-1) codes.  Every subset of realizable types is
# realizable side by side, so level j has exactly |A| * 2^(N_{j-1}) codes.


def _level_sizes(n_letters, k, cap):
    sizes = [1]
    for _ in range(k):
        nxt = n_letters * (1 << sizes[-1])
        if nxt > cap:
            raise BudgetError(
                "type space exceeds budget at this depth",
                {"level_size": nxt, "cap": cap},
            )
        sizes.append(nxt)
    return sizes


class _TypeCoder:
    def __init__(self, alphabet, k, cap=1 << 17):
        self.letters = sorted(alphabet)
        self.k = k
        self.sizes = _level_sizes(len(self.letters), k, cap)
        # truncation tables: level j code -> level j-1 code
        self.trunc = [None]
        for j in range(1, k + 1):
            prev_bits = self.sizes[j - 1]
            table = []
            for code in range(self.sizes[j]):
                a_idx, s = divmod(code, 1 << prev_bits)
                if j == 1:
                    table.append(0)  # every depth-1 type truncates to the atom
                else:
                    mask = 0
                    rest = s
                    while rest:
                        low = rest & -rest
                        mask |= 1 << self.trunc[j - 1][low.bit_length() - 1]
                        rest ^= low
                    table.append(a_idx * (1 << self.sizes[j - 2]) + mask)
            self.trunc.append(table)

    def trunc_mask(self, j, mask):
        """Image of a level-j type-set mask one level down."""
        out = 0
        table = self.trunc[j]
        while mask:
            low = mask & -mask
            out |= 1 << table[low.bit_length() - 1]
            mask ^= low
        return out

    def apply_letter(self, a_idx, mask):
        """Root-type-set of adjoin(s, a) from the root-type-set of s."""
        if self.k == 0:
            return 1  # the single atom
        return 1 << (a_idx * (1 << self.sizes[self.k - 1]) + self.trunc_mask(self.k, mask))


def _joint_closure(morphism: Morphism, coder: _TypeCoder, budget):
    """All realizable (value, root-type-set mask) pairs at depth k, with
    derivations: ("zero",) | ("tree", parent pair, letter) | ("sum", pair,
    tree pair).  All masks are realizable; it fails up front if they exceed budget."""
    _require_root_sets_fit(len(coder.letters), coder.k, budget)
    alg = morphism.algebra
    letters = coder.letters
    zero = (alg.zero, 0)
    pairs = {zero: ("zero",)}
    trees = []
    tree_set = set()
    work = [zero]
    while work:
        p = work.pop()
        h, mask = p
        for i, a in enumerate(letters):
            t = (alg.act[h][morphism.letters[a]], coder.apply_letter(i, mask))
            if t not in pairs:
                pairs[t] = ("tree", p, a)
                work.append(t)
            if t not in tree_set:
                tree_set.add(t)
                trees.append(t)
                # a fresh tree pair combines with everything known
                for q in list(pairs):
                    cand = (alg.add[q[0]][t[0]], q[1] | t[1])
                    if cand not in pairs:
                        pairs[cand] = ("sum", q, t)
                        work.append(cand)
        for t in trees:
            cand = (alg.add[h][t[0]], mask | t[1])
            if cand not in pairs:
                pairs[cand] = ("sum", p, t)
                work.append(cand)
        if len(pairs) > budget:
            raise BudgetError("joint closure exceeded budget", {"pairs": len(pairs)})
    return pairs


def _replay_joint(pairs, p):
    d = pairs[p]
    if d[0] == "zero":
        return terms.EMPTY
    if d[0] == "tree":
        return _replay_joint(pairs, d[1]).adjoin(d[2])
    return _replay_joint(pairs, d[1]) + _replay_joint(pairs, d[2])


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
    # pair -> (Forest, Forest) for R, (Forest, Context) for S; exact-closure
    # replays the terms on read, saturation keeps them
    witnesses: Mapping


def _relation_r_exact(syn: SyntacticResult, alphabet, k, budget):
    coder = _TypeCoder(alphabet, k)
    m = syn.recognizer.morphism
    pairs = _joint_closure(m, coder, budget)
    # group: A[mask] = set of values realizable with exactly that root set
    a_of = {}
    for (h, mask) in pairs:
        a_of.setdefault(mask, set()).add(h)
    # B[mask] = values realizable with a subset root set, by a subset-sum
    # (zeta) transform over the level-k codes, one bit at a time; a single
    # pass is complete.  Representatives are kept for witness replay.
    b_of = {}
    rep = {}
    for (h, mask) in pairs:
        b_of.setdefault(mask, set()).add(h)
        rep.setdefault((mask, h), (h, mask))
    for bit in range(coder.sizes[k]):
        for mask in list(b_of):
            if mask & (1 << bit):
                continue
            up = mask | (1 << bit)
            tgt = b_of.setdefault(up, set())
            for h in b_of[mask]:
                if h not in tgt:
                    tgt.add(h)
                    rep[(up, h)] = rep[(mask, h)]
    handles = {}
    for mask, hs in a_of.items():
        subs = b_of.get(mask, ())
        for h_s in hs:
            for h_r in subs:
                if (h_r, h_s) not in handles:
                    handles[(h_r, h_s)] = (rep[(mask, h_r)], (h_s, mask))
    wit = _Replayed(handles, lambda h: (_replay_joint(pairs, h[0]), _replay_joint(pairs, h[1])))
    return Relation("R", k, "exact-closure", frozenset(handles), wit)


def _relation_r_saturation(syn: SyntacticResult, alphabet, k, budget):
    alg = syn.algebra
    if not alg.h_idempotent():
        raise ValueError("saturation strategy requires an idempotent horizontal monoid")
    letters = sorted(alphabet)
    m = syn.recognizer.morphism
    # level k-1 realizable (root set, value) table
    coder = _TypeCoder(alphabet, max(k - 1, 0))
    p_pairs = _joint_closure(m, coder, budget)
    # typed-tree value table at depth k: W[(a_idx, child mask)] = values
    w_values = {}
    w_witness = {}
    for (h, mask) in p_pairs:
        for i, a in enumerate(letters):
            t = (i, mask if k > 1 else (1 if mask else 0)) if k >= 1 else (0, 0)
            value = alg.act[h][m.letters[a]]
            w_values.setdefault(t, set())
            if value not in w_values[t]:
                w_values[t].add(value)
                w_witness[(t, value)] = _replay_joint(p_pairs, (h, mask)).adjoin(a)
    base = set()
    wit = {}
    zero_key = (alg.zero, alg.zero)
    base.add(zero_key)
    wit[zero_key] = (terms.EMPTY, terms.EMPTY)
    for t, values in w_values.items():
        for h in values:
            for g in values:
                key = (h, g)
                if key not in base:
                    base.add(key)
                    wit[key] = (w_witness[(t, h)], w_witness[(t, g)])
    # close under componentwise addition and right augmentation by any
    # realizable value (every syntactic H value is realizable); every element
    # is a sum of base pairs plus (0, w), so adding base pairs alone closes it
    # under all sums
    aug = [(h, syn.h_terms[h]) for h in range(alg.h_size)]
    work = list(base)
    rel = set(base)
    while work:
        (h, g) = work.pop()
        for (h2, g2) in list(base):
            cand = (alg.add[h][h2], alg.add[g][g2])
            if cand not in rel:
                rel.add(cand)
                w1 = wit[(h, g)]
                w2 = wit[(h2, g2)]
                wit[cand] = (w1[0] + w2[0], w1[1] + w2[1])
                work.append(cand)
        for (w, term) in aug:
            cand = (h, alg.add[g][w])
            if cand not in rel:
                rel.add(cand)
                w1 = wit[(h, g)]
                wit[cand] = (w1[0], w1[1] + term)
                work.append(cand)
    return Relation("R", k, "saturation", frozenset(rel), wit)


def relation_r(rec, k, strategy="exact-closure", budget=300000):
    """The realizability relation for identity (i) at depth k."""
    syn = rec if isinstance(rec, SyntacticResult) else syntactic_algebra(rec)
    if strategy == "exact-closure":
        return _relation_r_exact(syn, syn.recognizer.alphabet, k, budget)
    if strategy == "saturation":
        return _relation_r_saturation(syn, syn.recognizer.alphabet, k, budget)
    raise ValueError("unknown strategy %r" % strategy)


def _relation_s_exact(syn, alphabet, k, budget):
    ka = ktype_algebra(alphabet, k, budget=budget)
    pa = pair_closure(syn.recognizer.morphism, ka.morphism, budget=budget)
    kalg = ka.algebra
    handles = {}
    for hi, (h1, hk) in enumerate(pa.h_pairs):
        for vi, (v1, vk) in enumerate(pa.v_pairs):
            if kalg.act[hk][vk] == hk and (h1, v1) not in handles:
                handles[(h1, v1)] = (hi, vi)
    # the replay helpers are looked up in this module when a pair is read, so
    # a wrapper installed on decide.witness_forest sees every replay
    wit = _Replayed(handles, lambda h: (witness_forest(pa, h[0]), witness_context(pa, h[1])))
    return Relation("S", k, "exact-closure", frozenset(handles), wit)


def relation_s(rec, k, budget=100000):
    """The realizability relation for identity (ii) at depth k."""
    syn = rec if isinstance(rec, SyntacticResult) else syntactic_algebra(rec)
    return _relation_s_exact(syn, syn.recognizer.alphabet, k, budget)


# ---------------------------------------------------------------------------
# The identities


def _first_violation(add, left, right, cols):
    """First (row, col) in row-major order with add[left][col] !=
    add[right][col], over the rows where left and right differ, or None."""
    rows = np.flatnonzero(left != right)
    if not rows.size:
        return None
    bad = add[left[rows]][:, cols] != add[right[rows]][:, cols]
    hits = np.flatnonzero(bad)
    if not hits.size:
        return None
    row, col = divmod(int(hits[0]), len(cols))
    return int(rows[row]), col


def _add_act(alg):
    return (
        np.array(alg.add, dtype=np.int64).reshape(alg.h_size, alg.h_size),
        np.array(alg.act, dtype=np.int64).reshape(alg.h_size, alg.v_size),
    )


def _check_identity_i(syn, rel: Relation):
    add, act = _add_act(syn.algebra)
    for (hr, hs) in sorted(rel.pairs):
        # act[hr + hs][vt] + act[hr][vu] versus act[hs][vt] + act[hr][vu]
        hit = _first_violation(add, act[add[hr, hs]], act[hs], act[hr])
        if hit is not None:
            vt, vu = hit
            r_term, s_term = rel.witnesses[(hr, hs)]
            return ("i", r_term, s_term, syn.v_terms[vt], syn.v_terms[vu])
    return None


def _check_identity_ii(syn, rel: Relation):
    add, act = _add_act(syn.algebra)
    for (hr, vp) in sorted(rel.pairs):
        # act[rp][vq] + act[rp][vq2] versus act[hr][vq] + act[rp][vq2]
        rp = act[hr, vp]
        hit = _first_violation(add, act[rp], act[hr], act[rp])
        if hit is not None:
            vq, vq2 = hit
            r_term, p_term = rel.witnesses[(hr, vp)]
            return ("ii", r_term, p_term, syn.v_terms[vq], syn.v_terms[vq2])
    return None


def separating_context(syn: SyntacticResult, h1, h2):
    """A context whose application separates two distinct syntactic values by
    acceptance; exists by minimality of the syntactic algebra."""
    alg = syn.algebra
    accept = syn.recognizer.accept
    for v in range(alg.v_size):
        if (alg.act[h1][v] in accept) != (alg.act[h2][v] in accept):
            return syn.v_terms[v]
    return None


def verify_violation_at(syn: SyntacticResult, witness, kstar):
    """Re-verify an identity violation on its concrete terms at level kstar:
    the side condition is recomputed on the replayed terms, and the
    inequation is re-evaluated; returns the self-contained evidence dict or
    None if the witness does not survive at kstar."""
    m = syn.recognizer.morphism
    alg = syn.algebra
    kind = witness[0]
    if kind == "i":
        _, r, s, t, u = witness
        if not (root_types(r, kstar) <= root_types(s, kstar)):
            return None
        lhs = apply_context(r + s, t) + apply_context(r, u)
        rhs = apply_context(s, t) + apply_context(r, u)
    else:
        _, r, p, q, q2 = witness
        if root_types(apply_context(r, p), kstar) != root_types(r, kstar):
            return None
        rp = apply_context(r, p)
        lhs = apply_context(rp, q) + apply_context(rp, q2)
        rhs = apply_context(r, q) + apply_context(rp, q2)
    hl, hr = m.eval_forest(lhs), m.eval_forest(rhs)
    if hl == hr:
        return None
    w = separating_context(syn, hl, hr)
    assert w is not None
    assert syn.recognizer.accepts(apply_context(lhs, w)) != syn.recognizer.accepts(
        apply_context(rhs, w)
    )
    return {
        "kind": kind,
        "terms": [x.render() for x in witness[1:]],
        "lhs": lhs.render(),
        "rhs": rhs.render(),
        "separator": w.render(),
        "kstar": kstar,
    }


# ---------------------------------------------------------------------------
# The pipeline


@dataclass
class DecideBudgets:
    max_k: int = 2
    closure_budget: int = 300000
    search_bound: int = 3
    search_cap: int = 200000


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
    alg = syn.algebra
    r = syn.h_terms[h]
    doubled = r + r
    w = separating_context(syn, h, alg.add[h][h])
    assert w is not None
    assert syn.recognizer.accepts(apply_context(r, w)) != syn.recognizer.accepts(
        apply_context(doubled, w)
    )
    return {
        "value": h,
        "term": r.render(),
        "doubled": doubled.render(),
        "separator": w.render(),
    }


def _direct_witness_search(syn: SyntacticResult, kstar, budgets, counters):
    """Bounded search over enumerated terms for identity violations whose
    side condition holds at kstar; any hit is conclusive NotLT evidence.

    It runs on syntactic values: each term is evaluated once, root types are
    computed once per r and per rp, and each (r, s) or (r, p) is tested over
    all its (t, u) or (q, q') at once on the tables.  Only the first hit is
    replayed into terms, and re-verified by `verify_violation_at`.
    `search_steps` counts the candidates of the term-level loops in their
    order: one per t with (r+s)t = st, else one per (t, u), and one per
    (q, q'); past `search_cap` the search stops at cap + 1."""
    m = syn.recognizer.morphism
    add, act = _add_act(syn.algebra)
    forests = list(enumerate_forests(syn.recognizer.alphabet, budgets.search_bound))
    contexts = list(enumerate_contexts(syn.recognizer.alphabet, budgets.search_bound))
    h_of = [m.eval_forest(s) for s in forests]
    v_of = np.array([m.eval_context(p) for p in contexts], dtype=np.int64)
    types = [root_types(s, kstar) for s in forests]
    n = len(contexts)

    def block(left, right, cols, equal_rows_cost_one):
        # rows (r+s)t vs st with columns ru, or rows rpq vs rq with columns rpq'
        left, right = act[left, v_of], act[right, v_of]
        cost = np.where((left == right) & equal_rows_cost_one, 1, n)
        hit = _first_violation(add, left, right, act[cols, v_of])
        if hit is None:
            return int(cost.sum()), None
        return int(cost[: hit[0]].sum()) + hit[1] + 1, hit

    def candidates():
        for i, r in enumerate(forests):
            for j, s in enumerate(forests):
                if types[i] <= types[j]:
                    yield ("i", r, s), (int(add[h_of[i], h_of[j]]), h_of[j], h_of[i], True)
        for i, r in enumerate(forests):
            for p, vp in zip(contexts, v_of):
                if root_types(apply_context(r, p), kstar) == types[i]:
                    rp = int(act[h_of[i], vp])
                    yield ("ii", r, p), (rp, h_of[i], rp, False)

    blocks = {}  # a block's steps and first hit depend on its values only
    steps = 0
    for head, key in candidates():
        if key not in blocks:
            blocks[key] = block(*key)
        cost, hit = blocks[key]
        if steps + cost > budgets.search_cap:
            counters["search_steps"] = max(steps, budgets.search_cap) + 1
            counters["search_truncated"] = True
            return None
        if hit is not None:
            return verify_violation_at(syn, head + (contexts[hit[0]], contexts[hit[1]]), kstar)
        steps += cost
    counters["search_steps"] = steps
    return None


def decide_lt(rec: Recognizer, budgets: DecideBudgets | None = None) -> LtVerdict:
    """The decision pipeline.  LT verdicts carry the level and the identity
    transcript over exact relations; NotLT verdicts carry either the
    nonidempotence pair or concrete terms re-verified at k*; budget
    exhaustion yields Unknown with the full progress report, never a silent
    truncation."""
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
    for k in range(0, budgets.max_k + 1):
        entry = {"k": k}
        try:
            rel_r = relation_r(syn, k, "exact-closure", budget=budgets.closure_budget)
            entry["r_strategy"] = "exact-closure"
        except BudgetError:
            try:
                rel_r = relation_r(syn, k, "saturation", budget=budgets.closure_budget)
                entry["r_strategy"] = "saturation"
            except BudgetError:
                rel_r = None
                entry["r_strategy"] = "unavailable"
        try:
            rel_s = relation_s(syn, k, budget=budgets.closure_budget)
            best_exact_s = rel_s
            entry["s_strategy"] = "exact-closure"
        except BudgetError:
            rel_s = best_exact_s
            entry["s_strategy"] = (
                "exact-closure@k=%d" % rel_s.k if rel_s is not None else "unavailable"
            )
        entry["r_size"] = len(rel_r.pairs) if rel_r is not None else None
        entry["s_size"] = len(rel_s.pairs) if rel_s is not None else None

        witness = _check_identity_i(syn, rel_r) if rel_r is not None else None
        if witness is None and rel_s is not None:
            witness = _check_identity_ii(syn, rel_s)
        if witness is not None:
            entry["outcome"] = "violated"
            progress.append(entry)
            got = verify_violation_at(syn, witness, kstar)
            if got is not None:
                return LtVerdict(
                    "NotLT", None, "identity-witness", kstar, got, progress, counters
                )
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
            return LtVerdict(
                "LT", k + 1, "identities-hold", kstar, evidence, progress, counters
            )
        entry["outcome"] = "inconclusive"
        progress.append(entry)

    got = _direct_witness_search(syn, kstar, budgets, counters)
    if got is not None:
        return LtVerdict("NotLT", None, "identity-witness", kstar, got, progress, counters)
    return LtVerdict("Unknown", None, "budgets-exhausted", kstar, {}, progress, counters)


# ---------------------------------------------------------------------------
# The wreath recognizer for a union of k-local classes


@dataclass
class WreathRecognizer:
    recognizer: Recognizer
    delta: WreathMorphism  # the factoring morphism, letterwise
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
    # realizable node types and the flat subset algebra over them
    type_ids = sorted({t for st in ka.states for t in st}, key=type_render)
    n_types = len(type_ids)
    if 1 << n_types > budget:
        raise BudgetError(
            "flat factor needs 2^%d elements" % n_types, {"types": n_types, "budget": budget}
        )
    type_bit = {t: i for i, t in enumerate(type_ids)}
    size = 1 << n_types
    outer = flat_algebra([[i | j for j in range(size)] for i in range(size)], 0)

    letters = {}
    for a in sorted(alphabet):
        f = []
        for st in ka.states:
            (new_type,) = _apply_letter_root(a, st, k)
            f.append(1 << type_bit[new_type])
        letters[a] = (tuple(f), ka.morphism.letters[a])
    delta = WreathMorphism(outer, ka.algebra, alphabet, letters)

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
