import random

import pytest

from forestalg import ktypes, samples
from forestalg.algebra import BudgetError, validate_algebra
from forestalg.ktypes import (
    ATOM,
    classes_predicate,
    klt_equivalent,
    klt_signature,
    ktype_algebra,
    lt_oracle,
    lt_recognizer,
    node_types,
    root_types,
    same_root_types,
    truncate,
    type_depth,
    type_render,
)
from forestalg.terms import (
    EMPTY,
    apply_context,
    enumerate_contexts,
    enumerate_forests,
    make_alphabet,
    parse_forest,
)

AB = make_alphabet("ab")
A = make_alphabet("a")


def f(text, alphabet=AB):
    return parse_forest(text, alphabet)


# --- type computation ---------------------------------------------------------


def test_root_types_empty():
    for k in range(4):
        assert root_types(EMPTY, k) == frozenset()


def test_root_types_depth_one():
    got = root_types(f("a+a(b)"), 1)
    assert {type_render(t) for t in got} == {"a{}", "a{*}"}
    assert all(type_depth(t) == 1 for t in got)


def test_node_types_depth_one():
    got = node_types(f("a(b)"), 1)
    assert {type_render(t) for t in got} == {"a{*}", "b{}"}


def test_depth_zero_types():
    assert node_types(f("a(b)+a"), 0) == frozenset({ATOM})
    assert root_types(f("a"), 0) == frozenset({ATOM})


def test_truncate():
    [t2] = root_types(f("a(b)"), 2)
    assert type_render(t2) == "a{b{}}"
    t1 = truncate(t2, 1)
    assert type_render(t1) == "a{*}"
    assert truncate(t2, 2) == t2
    assert truncate(t2, 0) == ATOM
    assert truncate(t1, 1) == t1
    with pytest.raises(ValueError):
        truncate(t1, 2)


def test_truncate_commutes_with_formation():
    for s in enumerate_forests(AB, 4):
        r3 = root_types(s, 3)
        r2 = root_types(s, 2)
        assert frozenset(truncate(t, 2) for t in r3) == r2


def _chain(depth, seed):
    """A chain `depth` nodes deep with seeded labels and a leaf sibling below
    every tenth level: its steps from the root down, (label, leaf child
    beside the chain or None), the label of the bottom node, and its text."""
    rng = random.Random(seed)
    steps = [
        (rng.choice("ab"), rng.choice("ab") if i % 10 == 0 else None) for i in range(depth - 1)
    ]
    bottom = rng.choice("ab")
    opens = [a + "(" + (b + "+" if b else "") for a, b in steps]
    return steps, bottom, "".join(opens) + bottom + ")" * len(steps)


def _ref_type(tree, k):
    """The rendered depth-k type of a tree, by the recursive definition."""
    if k == 0:
        return "*"
    kids = sorted({_ref_type(c, k - 1) for c in tree.children.trees})
    return "%s{%s}" % (tree.label, ",".join(kids))


def _ref_node_types(forest, k):
    out = set()
    for t in forest.trees:
        out.add(_ref_type(t, k))
        out |= _ref_node_types(t.children, k)
    return out


def _renders(tids):
    return {type_render(t) for t in tids}


def test_short_chains_match_the_recursive_definition():
    for depth in range(1, 40):
        _, _, text = _chain(depth, seed=depth)
        s = f(text)
        for k in range(depth + 2):
            assert _renders(root_types(s, k)) == {_ref_type(t, k) for t in s.trees}
            assert _renders(node_types(s, k)) == _ref_node_types(s, k)


def test_deep_chain_types():
    # 3000 deep, like the chains of the construct benchmark
    steps, bottom, text = _chain(3000, seed=0)
    s = f(text)
    internal = {a + "{*}" for a, _ in steps}
    leaves = {bottom + "{}"} | {b + "{}" for _, b in steps if b}
    assert _renders(node_types(s, 1)) == internal | leaves
    nodes, roots = klt_signature(s, 1)
    assert _renders(nodes) == internal | leaves and roots == {ATOM}
    # the root's depth-600 type, built bottom-up: the node `level` steps
    # down has depth 600 - level, and its children one less
    k = 600
    below = "*"
    for level in range(k - 1, -1, -1):
        label, leaf = steps[level]
        kids = {below}
        if leaf:
            kids.add("*" if level == k - 1 else leaf + "{}")
        below = "%s{%s}" % (label, ",".join(sorted(kids)))
    assert _renders(root_types(s, k)) == {below}


def test_deep_type_truncates():
    # the root's depth-600 type of a chain 3000 deep
    _, _, text = _chain(3000, seed=1)
    s = f(text)
    (t,) = root_types(s, 600)
    for j in (599, 400, 100, 1, 0):
        assert {truncate(t, j)} == root_types(s, j)


# --- the equivalences ----------------------------------------------------------


def test_same_root_types_reflexive():
    for s in enumerate_forests(AB, 3):
        assert same_root_types(s, s, 2)


def test_klt_equivalent_examples():
    assert klt_equivalent(f("a+a"), f("a"), 1)
    assert not klt_equivalent(f("a(b)"), f("b(a)"), 2)


def test_klt_refines_with_k():
    fs = list(enumerate_forests(AB, 4))
    for s in fs:
        for t in fs:
            if klt_equivalent(s, t, 2):
                assert klt_equivalent(s, t, 1)


def test_congruence_properties():
    fs = list(enumerate_forests(AB, 3))
    cs = list(enumerate_contexts(AB, 2))
    for k in (0, 1, 2):
        for s in fs:
            for t in fs:
                if same_root_types(s, t, k):
                    for u in fs[:6]:
                        assert same_root_types(s + u, t + u, k)
                    for p in cs:
                        assert same_root_types(apply_context(s, p), apply_context(t, p), k)


# --- quotient algebra -----------------------------------------------------------


def test_ktype_algebra_depth_zero():
    ka = ktype_algebra(A, 0)
    assert ka.algebra.h_size == 2  # empty / nonempty
    assert ka.value_of(EMPTY) != ka.value_of(f("a", A))


def test_ktype_algebra_single_letter_k1():
    ka = ktype_algebra(A, 1)
    assert ka.algebra.h_size == 4
    renders = sorted(ka.state_render(i) for i in range(4))
    assert renders == ["{a{*},a{}}", "{a{*}}", "{a{}}", "{}"]


def test_ktype_algebra_two_letters_k1():
    ka = ktype_algebra(AB, 1)
    assert ka.algebra.h_size == 16


def test_ktype_algebra_budget():
    with pytest.raises(BudgetError):
        ktype_algebra(AB, 2, budget=50)


def test_ktype_algebra_validates():
    ka = ktype_algebra(AB, 1)
    alg = ka.algebra
    # re-validate from the raw tables, and H must be idempotent (union)
    assert validate_algebra(alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins) == alg
    assert alg.h_idempotent()


def test_ktype_morphism_agrees_with_direct_recursion():
    # two independent computation paths for the root-type value
    for k, alphabet in [(0, AB), (1, AB), (2, A)]:
        ka = ktype_algebra(alphabet, k)
        for s in enumerate_forests(alphabet, 5):
            assert ka.states[ka.value_of(s)] == root_types(s, k)


@pytest.mark.parametrize(
    "alphabet, k", [("a", 0), ("a", 1), ("a", 2), ("ab", 0), ("ab", 1), ("abc", 0), ("abc", 1)]
)
def test_root_type_ops_agree_with_the_ktype_algebra_tables(alphabet, k):
    # decide's levels use the elementwise ops; each of their V maps is the
    # encoded act column of one element of the validated quotient
    ka = ktype_algebra(alphabet, k)
    alg = ka.algebra
    ops = ktypes._root_type_ops(ka.alphabet, k, 20000)
    assert ops.states == ka.states
    hs, vs = range(alg.h_size), range(alg.v_size)
    column = [ops.encode(tuple(alg.act[h][v] for h in hs)) for v in vs]
    assert ops.read(column).T.tolist() == [list(row) for row in alg.act]
    v_of = {c: v for v, c in enumerate(column)}
    assert len(v_of) == alg.v_size
    assert (ops.h_zero, v_of[ops.v_one]) == (alg.zero, alg.one)
    assert {a: v_of[ops.encode(g)] for a, g in ops.letters.items()} == ka.morphism.letters
    assert [[ops.h_add(x, y) for y in hs] for x in hs] == [list(row) for row in alg.add]
    assert [[ops.act_(x, column[v]) for v in vs] for x in hs] == [list(row) for row in alg.act]
    mul = [[v_of[ops.v_mul(column[u], column[w])] for w in vs] for u in vs]
    assert mul == [list(row) for row in alg.mul]
    ins = [[v_of[ops.ins_(column[u], x)] for x in hs] for u in vs]
    assert ins == [list(row) for row in alg.ins]


# --- locally testable recognizers -------------------------------------------------


def test_lt_recognizer_contains_a():
    def has_a(nodes, roots):
        return any(type_render(t).startswith("a{") for t in nodes)

    machine = lt_recognizer(AB, 1, has_a)
    oracle = samples.contains_a()
    for s in enumerate_forests(AB, 5):
        assert machine.recognizer.accepts(s) == oracle.accepts(s)


def a_with_b_child_type(t):
    return ktypes.type_label(t) == "a" and any(
        ktypes.type_label(c) == "b" for c in ktypes.type_children(t)
    )


def test_lt_recognizer_a_has_b_child():
    # the full signature closure at k=2 over two letters enumerates the
    # reachable 2-local classes and blows the budget; the predicate only
    # checks for a-with-b-child types, so project the node set to one key
    machine = lt_recognizer(
        AB,
        2,
        lambda nodes, roots: "hit" in nodes,
        node_view=lambda t: "hit" if a_with_b_child_type(t) else None,
    )
    oracle = samples.a_has_b_child()
    for s in enumerate_forests(AB, 5):
        assert machine.recognizer.accepts(s) == oracle.accepts(s)


def test_lt_recognizer_full_signature_closure_blows_budget_at_k2():
    with pytest.raises(BudgetError):
        lt_recognizer(AB, 2, lambda nodes, roots: False, budget=500)


def test_lt_recognizer_accept_nothing():
    machine = lt_recognizer(AB, 1, lambda nodes, roots: False)
    for s in enumerate_forests(AB, 4):
        assert not machine.recognizer.accepts(s)


def test_lt_recognizer_from_representatives():
    machine = lt_recognizer(AB, 1, [f("a")])
    # accepts exactly the class of "a": every forest of only-a-leaf roots
    assert machine.recognizer.accepts(f("a+a"))
    assert not machine.recognizer.accepts(f("a(a)"))
    assert not machine.recognizer.accepts(f("a+b"))


def test_lt_recognizer_acceptance_is_signature_invariant():
    machine = lt_recognizer(AB, 1, [f("a"), f("a+b(a)")])
    seen = {}
    for s in enumerate_forests(AB, 5):
        sig = klt_signature(s, 1)
        v = machine.recognizer.accepts(s)
        assert seen.setdefault(sig, v) == v


# --- state discovery --------------------------------------------------------------


def ref_discover(initial, letter_step, alphabet, budget):
    """The closure `_discover` replaced: each popped state meets every state
    known then, so the work is quadratic in the states."""
    states = {initial}
    order = [initial]
    work = [initial]
    letters = sorted(alphabet)

    def admit(st):
        if st not in states:
            states.add(st)
            order.append(st)
            work.append(st)
            if len(states) > budget:
                raise BudgetError(
                    "state closure exceeded budget",
                    {"states": len(states), "budget": budget},
                )

    while work:
        st = work.pop()
        for a in letters:
            admit(letter_step(a, st))
        for other in list(order):
            admit(ktypes._state_add(st, other))
    return sorted(states, key=ktypes._state_order_key)


def _never(nodes, roots):
    return False


def _discovery_inputs():
    """The (initial, letter step, alphabet, budget) inputs that the root-type
    quotients and the LT machines built in these tests hand to `_discover`."""
    calls = []
    discover = ktypes._discover

    def record(*args):
        calls.append(args)
        return discover(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ktypes, "_discover", record)
        levels = [("a", 0), ("a", 1), ("a", 2), ("ab", 0), ("ab", 1), ("abc", 0), ("abc", 1)]
        for alphabet, k in levels:
            ktype_algebra(alphabet, k)
        for alphabet, k in [("a", 1), ("ab", 1), ("abc", 1), ("a", 2)]:
            lt_recognizer(alphabet, k, _never)
        view = lambda t: "hit" if a_with_b_child_type(t) else None
        lt_recognizer(AB, 2, lambda nodes, roots: "hit" in nodes, node_view=view)
        with pytest.raises(BudgetError):
            lt_recognizer(AB, 2, _never, budget=500)
    return calls


DISCOVERY_INPUTS = _discovery_inputs()


@pytest.mark.parametrize("index", range(len(DISCOVERY_INPUTS)))
def test_discover_matches_the_pairwise_reference(index):
    args = DISCOVERY_INPUTS[index]
    try:
        want = ref_discover(*args)
    except BudgetError as e:
        with pytest.raises(BudgetError) as got:
            ktypes._discover(*args)
        assert (str(got.value), got.value.stats) == (str(e), e.stats)
        return
    assert ktypes._discover(*args) == want


@pytest.mark.parametrize("alphabet, k", [("a", 3), ("ab", 2)])
def test_discover_runs_out_of_budget_after_little_work(alphabet, k, monkeypatch):
    # each state meets each tree state once; the pairwise closure made about
    # 8.0M additions before raising here
    calls = []
    state_add = ktypes._state_add

    def counted(x, y):
        calls.append(None)
        return state_add(x, y)

    monkeypatch.setattr(ktypes, "_state_add", counted)
    with pytest.raises(BudgetError) as exc:
        lt_recognizer(alphabet, k, _never)
    assert exc.value.stats == {"states": 4001, "budget": 4000}
    assert len(calls) < 10**5


# --- oracle -----------------------------------------------------------------------


def test_oracle_parity_witness():
    got = lt_oracle(samples.parity_a(), 1, 4)
    assert got is not None
    s, t = got
    assert klt_equivalent(s, t, 1)
    assert samples.parity_a().accepts(s) != samples.parity_a().accepts(t)


def test_oracle_contains_a_no_witness():
    for k in (1, 2):
        assert lt_oracle(samples.contains_a(), k, 6) is None


def test_oracle_empty_language():
    assert lt_oracle(samples.empty_language(), 1, 4) is None
