"""Tests of the decision pipeline's relations, search and budget guards.

The reference for exact R is an independent builder: a closure over joint
(value, root-type-set mask) pairs on integer-coded depth-k types, followed by
a subset-sum over the masks.  R read off the pair closure must have the same
pairs, and every witness it replays must realize its pair and meet the side
condition.  The reference for exact S is its eager version, which replays
witness terms for every pair while the relation is built; the relations must
have the same pairs and the same keys, and each key must read back the same
terms, though they are replayed only on read.  The reference search is the
term-level loop that the value-level `_direct_witness_search` must
reproduce: same result, same counters.
"""

import itertools

import pytest

from automata import (
    DERIVED_CASES,
    a_above_b,
    at_most_one_node_type,
    even_node_types,
    leaf_depth,
    one_root_type,
)
from forestalg import algebra, decide, ktypes, samples, terms
from forestalg.algebra import BudgetError, Generated, syntactic_algebra
from forestalg.category import check_identities
from forestalg.decide import (
    DecideBudgets,
    _check_identity_i,
    _check_identity_ii,
    _direct_witness_search,
    decide_lt,
    relation_r,
    relation_s,
    verify_violation_at,
)
from forestalg.derived import derived_category, pair_closure, witness_context, witness_forest
from forestalg.ktypes import root_types
from forestalg.terms import apply_context, enumerate_contexts, enumerate_forests


def test_truncated_search_records_its_steps():
    # contains-a is locally testable, so no step can end the search early
    syn = syntactic_algebra(samples.contains_a())
    counters = {}
    budgets = DecideBudgets(search_bound=2, search_cap=5)
    assert _direct_witness_search(syn, 5, budgets, counters) is None
    assert counters == {"search_steps": 6, "search_truncated": True}


# --- reference builders ------------------------------------------------------


# Depth-j types over a sorted alphabet are coded as integers: the depth-0 atom
# is 0; a depth-j type (a, S) is a_index << N_{j-1} | S, where S is a bitmask
# over depth-(j-1) codes.  Every subset of realizable types is realizable side
# by side, so level j has exactly |A| * 2^(N_{j-1}) codes.


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


def _joint_closure(morphism, coder, budget):
    """All realizable (value, root-type-set mask) pairs at depth k, with
    derivations: ("zero",) | ("tree", parent pair, letter) | ("sum", pair,
    tree pair)."""
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


def ref_relation_r_exact(syn, k, budget=300000):
    """The pairs of exact R: values grouped by root-type mask, spread to every
    superset mask until nothing changes, then paired within each mask."""
    coder = _TypeCoder(syn.recognizer.alphabet, k)
    pairs = _joint_closure(syn.recognizer.morphism, coder, budget)
    a_of = {}
    for (h, mask) in pairs:
        a_of.setdefault(mask, set()).add(h)
    b_of = {mask: set(hs) for mask, hs in a_of.items()}
    changed = True
    while changed:
        changed = False
        for mask in list(b_of):
            for bit in range(coder.sizes[k]):
                up = mask | (1 << bit)
                if up != mask and up in b_of and not b_of[mask] <= b_of[up]:
                    b_of[up] |= b_of[mask]
                    changed = True
    return frozenset((h_r, h_s) for mask, hs in a_of.items() for h_s in hs for h_r in b_of[mask])


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


def _recognizers():
    yield samples.contains_a()
    yield samples.parity_a()
    yield samples.contains_a_redundant()
    yield samples.empty_language()
    yield samples.a_has_b_child("ab")
    for alphabet, pred in itertools.product(("a", "ab"), (even_node_types, one_root_type)):
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
    m = syn.recognizer.morphism
    rel = relation_r(syn, k, "exact-closure")
    assert rel.pairs == ref_relation_r_exact(syn, k)
    assert set(rel.witnesses) == rel.pairs
    for (h_r, h_s), (r, s) in rel.witnesses.items():
        assert (m.eval_forest(r), m.eval_forest(s)) == (h_r, h_s)
        assert root_types(r, k) <= root_types(s, k)


@pytest.mark.parametrize("k", [0, 1])
def test_reference_joint_closure_replays_its_pairs(k):
    # the reference is checked on its own: every derivation replays to a
    # forest with its value and its root-type mask
    n = 0
    for syn in SYNTACTIC:
        coder = _TypeCoder(syn.recognizer.alphabet, k)
        pairs = _joint_closure(syn.recognizer.morphism, coder, 300000)
        for (h, mask) in pairs:
            forest = _replay_joint(pairs, (h, mask))
            assert (syn.recognizer.morphism.eval_forest(forest), _coder_mask(coder, forest)) == (h, mask)
            n += 1
    assert n > 2 * len(SYNTACTIC)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("index", range(len(SYNTACTIC)))
def test_relation_s_exact_matches_eager_reference(index, k):
    syn = SYNTACTIC[index]
    _assert_matches(relation_s(syn, k), ref_relation_s_exact(syn, k))


def test_building_relations_replays_no_terms(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapped

    for name in ("witness_forest", "witness_context"):
        monkeypatch.setattr(decide, name, counting(getattr(decide, name)))
    syn = SYNTACTIC[-1]
    rel_s = relation_s(syn, 1)
    rel_r = relation_r(syn, 1, "exact-closure")
    rel_sat = relation_r(syn, 1, "saturation")
    assert calls == []
    # a read replays through the module's bindings
    key = next(iter(rel_s.witnesses))
    assert rel_s.witnesses[key] == ref_relation_s_exact(syn, 1)[1][key]
    assert {"witness_forest", "witness_context"} <= set(calls)
    calls.clear()
    rel_r.witnesses[next(iter(rel_r.witnesses))]
    assert calls == ["witness_forest", "witness_forest"]
    # a saturation pair that is not a sum of (0, w) pairs alone holds a tree
    # replayed from the pair closure of depth 0
    calls.clear()
    zero = syn.algebra.zero
    rel_sat.witnesses[min(pair for pair in rel_sat.pairs if pair[0] != zero)]
    assert calls and set(calls) == {"witness_forest"}


# --- the witness search --------------------------------------------------------


def ref_direct_witness_search(syn, kstar, budgets, counters):
    """The term-level search: every candidate is built as terms and checked
    by verify_violation_at."""
    alphabet = syn.recognizer.alphabet
    m = syn.recognizer.morphism
    bound = budgets.search_bound
    forests = list(enumerate_forests(alphabet, bound))
    contexts = list(enumerate_contexts(alphabet, bound))
    types = {s: root_types(s, kstar) for s in forests}
    steps = 0
    for r in forests:
        for s in forests:
            if not (types[r] <= types[s]):
                continue
            for t in contexts:
                lt = m.eval_forest(apply_context(r + s, t))
                rt = m.eval_forest(apply_context(s, t))
                if lt == rt:
                    steps += 1
                    if steps > budgets.search_cap:
                        counters["search_steps"] = steps
                        counters["search_truncated"] = True
                        return None
                    continue
                for u in contexts:
                    steps += 1
                    if steps > budgets.search_cap:
                        counters["search_steps"] = steps
                        counters["search_truncated"] = True
                        return None
                    witness = ("i", r, s, t, u)
                    got = verify_violation_at(syn, witness, kstar)
                    if got is not None:
                        return got
    for r in forests:
        for p in contexts:
            if root_types(apply_context(r, p), kstar) != root_types(r, kstar):
                continue
            for q in contexts:
                for q2 in contexts:
                    steps += 1
                    if steps > budgets.search_cap:
                        counters["search_steps"] = steps
                        counters["search_truncated"] = True
                        return None
                    witness = ("ii", r, p, q, q2)
                    got = verify_violation_at(syn, witness, kstar)
                    if got is not None:
                        return got
    counters["search_steps"] = steps
    return None


# name -> (recognizer, k* values, search_bound): truncated searches, complete
# searches without a hit, and hits in identity (i) and in identity (ii)
SEARCH_CASES = {
    "contains_a": (samples.contains_a(), (1, 2, 5), 1),
    "a_has_b_child": (samples.a_has_b_child("ab"), (1, 2, 5), 1),
    "parity_a": (samples.parity_a(), (1, 2, 5), 2),
    "leaf_depth_a_2": (leaf_depth("a", 2, 0), (1, 2, 5), 2),
    "leaf_depth_a_3_bound3": (leaf_depth("a", 3, 1), (1,), 3),
    "leaf_depth_ab_2": (leaf_depth("ab", 2, 1), (1, 2, 5), 1),
    "a_above_b_ab": (a_above_b("ab"), (1, 2, 5), 1),
    "a_above_b_abc": (a_above_b("abc"), (1, 2, 5), 1),
}
SEARCH_SYN = {name: syntactic_algebra(rec) for name, (rec, _, _) in SEARCH_CASES.items()}
# the reference builds terms for every step, so caps stay small
REFERENCE_CAP = 1000


def _search_end(syn, kstar, bound):
    """Steps to the first hit (the least cap that finds it) and whether there
    is one, else the steps of the whole search."""
    counters = {}
    budgets = DecideBudgets(search_bound=bound, search_cap=1 << 40)
    if _direct_witness_search(syn, kstar, budgets, counters) is None:
        return counters["search_steps"], False
    lo, hi = 0, 1 << 40
    while lo < hi:
        mid = (lo + hi) // 2
        budgets = DecideBudgets(search_bound=bound, search_cap=mid)
        if _direct_witness_search(syn, kstar, budgets, {}) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo, True


@pytest.mark.parametrize(
    "name,kstar",
    [(name, kstar) for name, (_, kstars, _) in SEARCH_CASES.items() for kstar in kstars],
)
def test_search_matches_term_level_reference(name, kstar):
    syn = SEARCH_SYN[name]
    bound = SEARCH_CASES[name][2]
    end, hit = _search_end(syn, kstar, bound)
    caps = {0, 1, 7, end - 1, end, end + 1}
    for cap in sorted(c for c in caps if 0 <= c <= REFERENCE_CAP):
        budgets = DecideBudgets(search_bound=bound, search_cap=cap)
        want_counters, got_counters = {}, {}
        want = ref_direct_witness_search(syn, kstar, budgets, want_counters)
        got = _direct_witness_search(syn, kstar, budgets, got_counters)
        assert got == want, (cap, got, want)
        assert got_counters == want_counters, cap
        if hit and cap >= end:
            assert got is not None and got_counters == {}


def test_search_cases_reach_both_identities_and_straddle_the_cap():
    kinds = set()
    straddled = 0
    for name, (_, kstars, bound) in SEARCH_CASES.items():
        for kstar in kstars:
            end, hit = _search_end(SEARCH_SYN[name], kstar, bound)
            straddled += end <= REFERENCE_CAP
            if hit:
                budgets = DecideBudgets(search_bound=bound, search_cap=end)
                kinds.add(_direct_witness_search(SEARCH_SYN[name], kstar, budgets, {})["kind"])
    assert kinds == {"i", "ii"}
    assert straddled >= 15


def test_search_verifies_only_the_hit(monkeypatch):
    calls = []
    verify = decide.verify_violation_at

    def counting(*args):
        calls.append(args[1])
        return verify(*args)

    monkeypatch.setattr(decide, "verify_violation_at", counting)
    syn = SEARCH_SYN["leaf_depth_a_2"]
    got = _direct_witness_search(syn, 1, DecideBudgets(search_bound=2), {})
    assert got["kind"] == "ii" and len(calls) == 1
    calls.clear()
    counters = {}
    assert _direct_witness_search(syn, 2, DecideBudgets(search_bound=2), counters) is None
    assert calls == [] and counters == {"search_steps": 648}


# --- LT verdicts -----------------------------------------------------------------


def _decide_inputs():
    yield from _recognizers()
    yield samples.universal_language()
    yield samples.a_has_b_child("abc")
    yield ktypes.lt_recognizer("a", 2, even_node_types).recognizer
    yield ktypes.lt_recognizer("abc", 1, one_root_type).recognizer
    # idempotent and not LT: a verdict must not say LT
    yield leaf_depth("a", 2, 0)
    yield leaf_depth("ab", 3, 1)


def test_lt_verdicts_pass_both_identity_checks():
    budgets = DecideBudgets()
    n_lt = 0
    for rec in _decide_inputs():
        verdict = decide_lt(rec, budgets)
        if verdict.kind != "LT":
            continue
        n_lt += 1
        ev = verdict.evidence
        syn = syntactic_algebra(rec)
        rel_r = relation_r(syn, ev["k"], ev["r_strategy"], budget=budgets.closure_budget)
        rel_s = relation_s(syn, ev["s_level"], budget=budgets.closure_budget)
        assert (len(rel_r.pairs), len(rel_s.pairs)) == (ev["r_size"], ev["s_size"])
        assert _check_identity_i(syn, rel_r) is None
        assert _check_identity_ii(syn, rel_s) is None
    assert n_lt >= 8


def _differential_inputs():
    yield samples.contains_a()
    yield samples.parity_a()
    yield samples.parity_a("a")
    yield samples.a_has_b_child("ab")
    yield samples.empty_language()
    yield samples.universal_language()
    for alphabet, pred in itertools.product(
        ("a", "ab"), (even_node_types, one_root_type, at_most_one_node_type)
    ):
        yield ktypes.lt_recognizer(alphabet, 1, pred).recognizer


def test_decide_lt_agrees_with_the_oracle_and_its_separators_flip_acceptance():
    # LT at level L: no two forests of at most 6 nodes that are L-locally
    # equivalent differ in acceptance; NotLT: the separator, put around the
    # two sides of the evidence, gives one accepted forest and one rejected
    kinds = []
    for rec in _differential_inputs():
        verdict = decide_lt(rec)
        kinds.append(verdict.kind)
        ev = verdict.evidence
        if verdict.kind == "LT":
            assert ktypes.lt_oracle(rec, verdict.level, 6) is None
        elif verdict.kind == "NotLT":
            sides = ("term", "doubled") if verdict.reason == "nonidempotent" else ("lhs", "rhs")
            w = terms.parse_context(ev["separator"], rec.alphabet)
            left, right = (terms.parse_forest(ev[side], rec.alphabet) for side in sides)
            assert rec.accepts(apply_context(left, w)) != rec.accepts(apply_context(right, w))
    assert (kinds.count("LT"), kinds.count("NotLT")) == (10, 2)


# --- the derived category's identities -------------------------------------------

@pytest.mark.parametrize(
    "name,k", [(name, k) for name, (_, ks) in DERIVED_CASES.items() for k in ks]
)
def test_derived_category_identities_agree_with_decide_identities(name, k):
    # the category's loop removal, horizontal absorption and horizontal
    # idempotence hold exactly when decide's two identities hold at depth k
    syn = syntactic_algebra(DERIVED_CASES[name][0]())
    ka = ktypes.ktype_algebra(syn.recognizer.alphabet, k)
    dc = derived_category(pair_closure(syn.recognizer.morphism, ka.morphism))
    both = _check_identity_i(syn, relation_r(syn, k)) is None
    both = both and _check_identity_ii(syn, relation_s(syn, k)) is None
    assert check_identities(dc.category).all_hold() == both


# --- the depth-k type coder --------------------------------------------------------


def _type_code(coder, tid):
    """The coder's integer code of a type interned by ktypes."""
    depth = ktypes.type_depth(tid)
    if depth == 0:
        return 0
    mask = 0
    for child in ktypes.type_children(tid):
        mask |= 1 << _type_code(coder, child)
    return coder.letters.index(ktypes.type_label(tid)) * (1 << coder.sizes[depth - 1]) + mask


def _coder_mask(coder, forest):
    mask = 0
    for tree in forest.trees:
        child = _coder_mask(coder, tree.children)
        mask |= coder.apply_letter(coder.letters.index(tree.label), child)
    return mask


@pytest.mark.parametrize("k", [1, 2])
def test_type_coder_agrees_with_root_types(k):
    coder = _TypeCoder("ab", k)
    n = 0
    for forest in enumerate_forests("ab", 6):
        want = 0
        for tid in root_types(forest, k):
            want |= 1 << _type_code(coder, tid)
        assert _coder_mask(coder, forest) == want, forest
        n += 1
    assert n > 1000


# --- closures over root-type sets fail up front ------------------------------------

# (alphabet, k) -> T, the number of depth-k types
N_TYPES = {("a", 0): 1, ("a", 1): 2, ("a", 2): 4, ("ab", 0): 1, ("ab", 1): 4, ("ab", 2): 32}
FEASIBLE = [key for key, t in N_TYPES.items() if t <= 4]


def _outcome(build):
    try:
        return "built", build()
    except BudgetError as exc:
        return "budget", str(exc), exc.stats


def _never(*args):
    raise AssertionError("a closure step ran")


def _guard_types(alphabet, k, budget):
    """T of the shallowest depth j <= k whose 4^T root-type set unions exceed
    the budget: the types stat of the guard's BudgetError."""
    return min(t for (a, j), t in N_TYPES.items() if a == alphabet and j <= k and 4**t > budget)


@pytest.mark.parametrize("alphabet,k", list(N_TYPES))
def test_ktype_algebra_below_two_to_the_t_fails_before_discovery(alphabet, k, monkeypatch):
    # H's union table has 4^T entries, so the guard refuses below 4^T; below
    # 2^T it may already stop at a shallower depth
    monkeypatch.setattr(ktypes, "_discover", _never)
    n_types = N_TYPES[(alphabet, k)]
    assert _guard_types(alphabet, k, (1 << 2 * n_types) - 1) == n_types
    for budget in ((1 << n_types) - 1, (1 << 2 * n_types) - 1):
        with pytest.raises(BudgetError) as exc:
            ktypes.ktype_algebra(alphabet, k, budget=budget)
        assert exc.value.stats["types"] == _guard_types(alphabet, k, budget)
        assert exc.value.stats["budget"] == budget


@pytest.mark.parametrize("alphabet,k", FEASIBLE)
def test_ktype_algebra_budget_check_changes_nothing_else(alphabet, k, monkeypatch):
    n_types = N_TYPES[(alphabet, k)]
    unions = 1 << 2 * n_types
    budgets = [unions - 1, unions, unions + 1, 20000]
    checked = [_outcome(lambda: ktypes.ktype_algebra(alphabet, k, budget=b)) for b in budgets]
    monkeypatch.setattr(ktypes, "_require_root_sets_fit", lambda *args: None)
    unchecked = [_outcome(lambda: ktypes.ktype_algebra(alphabet, k, budget=b)) for b in budgets]
    # below 4^T the check refuses, though the closures might fit; at or
    # above it nothing changes
    assert checked[0][0] == "budget"
    assert checked[1:] == unchecked[1:]
    assert len(checked[-1][1].states) == 1 << n_types


def _joint_inputs(alphabet):
    return [syntactic_algebra(samples.contains_a(alphabet)), syntactic_algebra(leaf_depth(alphabet, 2, 0))]


# relation_r's joint (value, root-type set) closure is the pair closure of its
# level, whose guard runs in ktypes._root_type_ops, as in ktype_algebra


@pytest.mark.parametrize("alphabet,k", list(N_TYPES))
def test_joint_closure_below_two_to_the_t_fails_before_any_step(alphabet, k, monkeypatch):
    monkeypatch.setattr(ktypes, "_discover", _never)
    monkeypatch.setattr(decide, "pair_closure", _never)
    n_types = N_TYPES[(alphabet, k)]
    for syn in _joint_inputs(alphabet):
        for budget in ((1 << n_types) - 1, (1 << 2 * n_types) - 1):
            with pytest.raises(BudgetError) as exc:
                relation_r(syn, k, budget=budget)
            assert exc.value.stats["types"] == _guard_types(alphabet, k, budget)


@pytest.mark.parametrize("alphabet,k", FEASIBLE)
def test_joint_closure_budget_check_changes_nothing_else(alphabet, k, monkeypatch):
    n_types = N_TYPES[(alphabet, k)]
    unions = 1 << 2 * n_types
    budgets = [unions - 1, unions, unions + 1, 300000]
    for syn in _joint_inputs(alphabet):

        def run():
            return [
                _outcome(lambda: (lambda rel: (rel.pairs, dict(rel.witnesses)))(relation_r(syn, k, budget=b)))
                for b in budgets
            ]

        checked = run()
        with monkeypatch.context() as patch:
            patch.setattr(ktypes, "_require_root_sets_fit", lambda *args: None)
            unchecked = run()
        assert checked[0][0] == "budget"
        assert checked[1:] == unchecked[1:]
        assert checked[-1][0] == "built"


@pytest.mark.parametrize("alphabet", ["abcde", "abcdefghi"])
def test_five_to_nine_letters_are_refused_at_depth_one(alphabet, monkeypatch):
    # at k = 1 there are T = 2|A| types: their 2^T sets fit the default
    # budget, their 4^T unions do not
    with monkeypatch.context() as patch:
        patch.setattr(ktypes, "_discover", _never)
        with pytest.raises(BudgetError) as exc:
            ktypes.ktype_algebra(alphabet, 1, budget=DecideBudgets().closure_budget)
        assert exc.value.stats["types"] == 2 * len(alphabet)
    verdict = decide_lt(samples.a_has_b_child(alphabet))
    assert verdict.kind == "Unknown"
    assert [(e["r_strategy"], e["s_strategy"]) for e in verdict.progress] == [
        ("exact-closure", "exact-closure"),
        ("saturation", "exact-closure@k=0"),
        ("unavailable", "exact-closure@k=0"),
    ]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_saturation_relation_is_closed_under_sums(k):
    # the fold adds each generator once; sums of any two pairs must be in it,
    # and every pair must replay to terms that realize it
    n = 0
    for syn in SYNTACTIC + [SEARCH_SYN["leaf_depth_ab_2"], SEARCH_SYN["a_above_b_abc"]]:
        if not syn.algebra.h_idempotent():
            continue
        add = syn.algebra.add
        rel = relation_r(syn, k, "saturation")
        for (h1, g1), (h2, g2) in itertools.product(rel.pairs, repeat=2):
            assert (add[h1][h2], add[g1][g2]) in rel.pairs
        assert set(rel.witnesses) == rel.pairs
        m = syn.recognizer.morphism
        for (h_r, h_s), (r, s) in rel.witnesses.items():
            assert (m.eval_forest(r), m.eval_forest(s)) == (h_r, h_s)
            assert root_types(r, k) <= root_types(s, k)
        n += 1
    assert n >= 9


@pytest.mark.parametrize("k", [0, 1, 2])
def test_saturation_r_equals_exact_r_where_both_fit(k):
    n = 0
    for syn in SYNTACTIC + list(SEARCH_SYN.values()):
        if not syn.algebra.h_idempotent():
            continue
        try:
            exact = relation_r(syn, k, "exact-closure")
        except BudgetError:
            continue
        assert relation_r(syn, k, "saturation").pairs == exact.pairs
        n += 1
    assert n >= (4 if k == 2 else 15)


def test_decide_ends_unknown_when_no_exact_r_fits():
    # at k = 2 over ten letters neither exact R fits the budget; the round
    # checks identity (ii) only and cannot give LT
    verdict = decide_lt(samples.a_has_b_child("abcdefghij"))
    assert verdict.kind == "Unknown"
    (entry,) = [e for e in verdict.progress if e["k"] == 2]
    assert entry["r_strategy"] == "unavailable"
    assert entry["r_size"] is None
    assert entry["s_size"] is not None


# --- levels and witness replay -------------------------------------------------------


def test_levels_build_neither_the_ktype_algebra_nor_a_transformation_monoid(monkeypatch):
    rec = samples.a_has_b_child("abcd")

    def refuse(*args, **kwargs):
        raise AssertionError("a level built the depth-k quotient's tables")

    for module, name in [(ktypes, "ktype_algebra"), (decide, "ktype_algebra")] + [
        (module, "transformation_algebra") for module in (algebra, ktypes)
    ]:
        monkeypatch.setattr(module, name, refuse)
    verdict = decide_lt(rec)
    assert (verdict.kind, verdict.level) == ("LT", 2)


def ref_witness_forest(gen, i):
    """The recursive replay, which replays a shared sub-derivation at each
    place it is used."""
    d = gen.h_derivs[i]
    if d[0] == "zero":
        return terms.EMPTY
    if d[0] == "add":
        return ref_witness_forest(gen, d[1]) + ref_witness_forest(gen, d[2])
    return apply_context(ref_witness_forest(gen, d[1]), ref_witness_context(gen, d[2]))


def ref_witness_context(gen, j):
    d = gen.v_derivs[j]
    if d[0] == "one":
        return terms.HOLE
    if d[0] == "letter":
        letter = terms.Context(terms.EMPTY, (d[2], terms.HOLE))
        return terms.compose(ref_witness_context(gen, d[1]), letter)
    return terms.compose(ref_witness_context(gen, d[1]), terms.Context(ref_witness_forest(gen, d[2]), None))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_replay_renders_the_recursive_replay_on_every_level(k):
    n = 0
    for syn in SYNTACTIC + list(SEARCH_SYN.values()):
        try:
            pa = decide._level(syn, k, DecideBudgets().closure_budget)
        except BudgetError:
            continue
        for i in range(len(pa.h_pairs)):
            assert witness_forest(pa, i).render() == ref_witness_forest(pa, i).render()
        for j in range(len(pa.v_pairs)):
            assert witness_context(pa, j).render() == ref_witness_context(pa, j).render()
        n += 1
    assert n >= (4 if k == 2 else 15)


def test_a_derivation_ten_thousand_steps_deep_replays_and_renders():
    n = 10**4
    h_derivs = (("zero",),) + tuple(("act", i, 1) for i in range(n))
    v_derivs = (("one",),) + tuple(("letter", j, "a") for j in range(n))
    gen = Generated((), (), {}, {}, h_derivs, v_derivs)
    s = witness_forest(gen, n)
    assert s.size == n
    assert s.render() == "a(" * (n - 1) + "a" + ")" * (n - 1)
    p = witness_context(gen, n)
    assert p.size == n
    assert p.render() == "a(" * n + "[]" + ")" * n
