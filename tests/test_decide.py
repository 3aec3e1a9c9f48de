"""Tests of the decision pipeline's relations and search.

The reference builders below are the eager versions of the exact-closure
strategies: they replay witness terms for every pair while the relation is
built.  The relations must have the same pairs and the same keys, and each
key must read back the same terms, though they are replayed only on read.
"""

import itertools

import pytest

from forestalg import decide, ktypes, samples
from forestalg.algebra import syntactic_algebra
from forestalg.decide import (
    DecideBudgets,
    _direct_witness_search,
    _joint_closure,
    _replay_joint,
    _TypeCoder,
    relation_r,
    relation_s,
)
from forestalg.derived import pair_closure, witness_context, witness_forest


def test_truncated_search_records_its_steps():
    # contains-a is locally testable, so no step can end the search early
    syn = syntactic_algebra(samples.contains_a())
    counters = {}
    budgets = DecideBudgets(search_bound=2, search_cap=5)
    assert _direct_witness_search(syn, 5, budgets, counters) is None
    assert counters == {"search_steps": 6, "search_truncated": True}


# --- eager reference builders ------------------------------------------------


def ref_relation_r_exact(syn, k, budget=300000):
    coder = _TypeCoder(syn.recognizer.alphabet, k)
    pairs = _joint_closure(syn.recognizer.morphism, coder, budget)
    a_of = {}
    for (h, mask) in pairs:
        a_of.setdefault(mask, set()).add(h)
    size = coder.sizes[k]
    b_of = {}
    rep = {}
    for (h, mask) in pairs:
        b_of.setdefault(mask, set()).add(h)
        rep.setdefault((mask, h), (h, mask))
    for bit in range(size):
        for mask in list(b_of):
            if mask & (1 << bit):
                continue
            up = mask | (1 << bit)
            if up in a_of or up in b_of:
                tgt = b_of.setdefault(up, set())
                for h in b_of[mask]:
                    if h not in tgt:
                        tgt.add(h)
                        rep[(up, h)] = rep[(mask, h)]
    changed = True
    while changed:
        changed = False
        for mask in list(b_of):
            for bit in range(size):
                if mask & (1 << bit):
                    continue
                up = mask | (1 << bit)
                if up not in b_of:
                    continue
                for h in b_of[mask]:
                    if h not in b_of[up]:
                        b_of[up].add(h)
                        rep[(up, h)] = rep[(mask, h)]
                        changed = True
    wit = {}
    for mask, hs in a_of.items():
        subs = b_of.get(mask, ())
        for h_s in hs:
            for h_r in subs:
                key = (h_r, h_s)
                if key not in wit:
                    wit[key] = (
                        _replay_joint(pairs, rep[(mask, h_r)]),
                        _replay_joint(pairs, (h_s, mask)),
                    )
    return frozenset(wit), wit


def ref_relation_s_exact(syn, k, budget=100000):
    ka = ktypes.ktype_algebra(syn.recognizer.alphabet, k, budget=budget)
    pa = pair_closure(syn.recognizer.morphism, ka.morphism, budget=budget)
    out = {}
    for hi, (h1, hk) in enumerate(pa.h_pairs):
        for vi, (v1, vk) in enumerate(pa.v_pairs):
            if ka.algebra.act[hk][vk] == hk:
                key = (h1, v1)
                if key not in out:
                    out[key] = (witness_forest(pa, hi), witness_context(pa, vi))
    return frozenset(out), out


# --- inputs ------------------------------------------------------------------


def _even_node_types(nodes, roots):
    return len(nodes) % 2 == 0


def _one_root_type(nodes, roots):
    return len(roots) == 1


def _recognizers():
    yield samples.contains_a()
    yield samples.parity_a()
    yield samples.contains_a_redundant()
    yield samples.empty_language()
    yield samples.a_has_b_child("ab")
    for alphabet, pred in itertools.product(("a", "ab"), (_even_node_types, _one_root_type)):
        yield ktypes.lt_recognizer(alphabet, 1, pred).recognizer


SYNTACTIC = [syntactic_algebra(rec) for rec in _recognizers()]


def _assert_matches(rel, ref):
    ref_pairs, ref_wit = ref
    assert rel.pairs == ref_pairs
    assert list(rel.witnesses) == list(ref_wit)
    assert len(rel.witnesses) == len(ref_wit)
    for key, terms_ in ref_wit.items():
        assert key in rel.witnesses
        assert rel.witnesses[key] == terms_


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("index", range(len(SYNTACTIC)))
def test_relation_r_exact_matches_eager_reference(index, k):
    syn = SYNTACTIC[index]
    _assert_matches(relation_r(syn, k, "exact-closure"), ref_relation_r_exact(syn, k))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("index", range(len(SYNTACTIC)))
def test_relation_s_exact_matches_eager_reference(index, k):
    syn = SYNTACTIC[index]
    _assert_matches(relation_s(syn, k, "exact-closure"), ref_relation_s_exact(syn, k))


def test_building_relations_replays_no_terms(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapped

    for name in ("witness_forest", "witness_context", "_replay_joint"):
        monkeypatch.setattr(decide, name, counting(getattr(decide, name)))
    syn = SYNTACTIC[-1]
    rel_s = relation_s(syn, 1)
    rel_r = relation_r(syn, 1, "exact-closure")
    assert calls == []
    # a read replays through the module's bindings
    key = next(iter(rel_s.witnesses))
    assert rel_s.witnesses[key] == ref_relation_s_exact(syn, 1)[1][key]
    assert {"witness_forest", "witness_context"} <= set(calls)
    calls.clear()
    rel_r.witnesses[next(iter(rel_r.witnesses))]
    assert "_replay_joint" in calls

