"""Differential tests of the numpy table kernels against the loop versions
they replaced.

The reference functions below are the plain quantifier loops: they define
which violation is "first".  The kernels must raise the same law with the
same witness indices, build the same transformation algebras up to the
numbering of V (and run out of budget exactly when the reference's full
monoid does) and return the same identity witness.  The syntactic algebra
read off arrays must equal the elementwise one, and the derived category
built per start object must equal the one built by scanning all pairs.

The constructions validate nothing themselves, so every algebra and
category they build here is run through the exhaustive validators.
"""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from automata import (
    DERIVED_CASES,
    a_above_b,
    count_xor_depth,
    even_node_types,
    leaf_depth,
    one_root_type,
)
from forestalg import algebra, decide, ktypes, samples
from forestalg.algebra import (
    AlgebraLawError,
    BudgetError,
    Recognizer,
    _check_monoid,
    direct_product,
    generate,
    transformation_algebra,
    validate_algebra,
    wreath,
)
from forestalg.category import one_object_category, validate_category
from forestalg.decide import (
    Relation,
    _check_identity_i,
    _check_identity_ii,
    relation_r,
    relation_s,
)
from forestalg.derived import derived_category, pair_closure

# --- reference loops ---------------------------------------------------------


def ref_check_monoid(size, table, unit, name, commutative):
    if len(table) != size or any(len(row) != size for row in table):
        raise AlgebraLawError(name + "-shape", (), "table is not %d x %d" % (size, size))
    for row in table:
        for x in row:
            if not (0 <= x < size):
                raise AlgebraLawError(name + "-shape", (x,), "entry out of range")
    for x in range(size):
        if table[unit][x] != x or table[x][unit] != x:
            raise AlgebraLawError(name + "-identity", (x,), "unit law fails")
    for x in range(size):
        for y in range(size):
            if commutative and table[x][y] != table[y][x]:
                raise AlgebraLawError(name + "-commutativity", (x, y), "xy != yx")
            for z in range(size):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise AlgebraLawError(name + "-associativity", (x, y, z), "(xy)z != x(yz)")


def ref_validate(h_add, zero, v_mul, one, act, ins):
    h_size = len(h_add)
    v_size = len(v_mul)
    ref_check_monoid(h_size, h_add, zero, "h", commutative=True)
    ref_check_monoid(v_size, v_mul, one, "v", commutative=False)
    if len(act) != h_size or any(len(row) != v_size for row in act):
        raise AlgebraLawError("action-shape", (), "act is not %d x %d" % (h_size, v_size))
    for row in act:
        for x in row:
            if not (0 <= x < h_size):
                raise AlgebraLawError("action-shape", (x,), "entry out of range")
    for h in range(h_size):
        if act[h][one] != h:
            raise AlgebraLawError("action-identity", (h,), "h.1 != h")
        for v1 in range(v_size):
            for v2 in range(v_size):
                if act[act[h][v1]][v2] != act[h][v_mul[v1][v2]]:
                    raise AlgebraLawError("action-composition", (h, v1, v2), "(hv1)v2 != h(v1v2)")
    for v1 in range(v_size):
        for v2 in range(v1 + 1, v_size):
            if all(act[h][v1] == act[h][v2] for h in range(h_size)):
                raise AlgebraLawError("faithfulness", (v1, v2), "distinct v act identically")
    if len(ins) != v_size or any(len(row) != h_size for row in ins):
        raise AlgebraLawError("insertion-shape", (), "ins is not %d x %d" % (v_size, h_size))
    for v in range(v_size):
        for h in range(h_size):
            w = ins[v][h]
            if not (0 <= w < v_size):
                raise AlgebraLawError("insertion-shape", (v, h), "entry out of range")
            for g in range(h_size):
                if act[g][w] != h_add[act[g][v]][h]:
                    raise AlgebraLawError("insertion", (v, h, g), "g.ins(v,h) != g.v + h")


def ref_derive_ins(h_size, add, v_size, act):
    """The insertion table as `validate_algebra` derived it before: for every
    (v, h), the V elements w with g.w = g.v + h for all g, one at a time."""
    ins = []
    for v in range(v_size):
        row = []
        for h in range(h_size):
            target = [add[act[g][v]][h] for g in range(h_size)]
            found = [w for w in range(v_size) if all(act[g][w] == target[g] for g in range(h_size))]
            if not found:
                raise AlgebraLawError("insertion-missing", (v, h), "no element realizes g.v + h")
            assert len(found) == 1  # the action was found faithful first
            row.append(found[0])
        ins.append(row)
    return ins


def ref_transformation_algebra(h_add, zero, letter_maps, budget=100000):
    """Returns (mul, one, act, ins, letters, derivations)."""
    n = len(h_add)
    ident = tuple(range(n))
    gens = [(ident, ("one",))]
    letter_of = {}
    for a in sorted(letter_maps):
        tau = tuple(letter_maps[a])
        letter_of[a] = tau
        gens.append((tau, ("letter", a)))
    for g in range(n):
        gens.append((tuple(h_add[h][g] for h in range(n)), ("addh", g)))
    v_index = {}
    v_elems = []
    v_derivs = []

    def admit(tau, deriv):
        if tau not in v_index:
            v_index[tau] = len(v_elems)
            v_elems.append(tau)
            v_derivs.append(deriv)
            return True
        return False

    queue = []
    for tau, deriv in gens:
        if admit(tau, deriv):
            queue.append(tau)
    while queue:
        tau = queue.pop(0)
        ti = v_index[tau]
        for sigma in list(v_elems):
            si = v_index[sigma]
            for comp, deriv in (
                (tuple(sigma[tau[h]] for h in range(n)), ("mul", ti, si)),
                (tuple(tau[sigma[h]] for h in range(n)), ("mul", si, ti)),
            ):
                if admit(comp, deriv):
                    queue.append(comp)
                    if len(v_elems) > budget:
                        raise BudgetError(
                            "transformation monoid exceeded budget",
                            {"v": len(v_elems), "budget": budget},
                        )
    mul = [[v_index[tuple(w[u[h]] for h in range(n))] for w in v_elems] for u in v_elems]
    act = [[u[h] for u in v_elems] for h in range(n)]
    ins = [
        [v_index[tuple(h_add[u[h]][g] for h in range(n))] for g in range(n)]
        for u in v_elems
    ]
    letters = {a: v_index[tau] for a, tau in letter_of.items()}
    return mul, v_index[ident], act, ins, letters, tuple(v_derivs)


def ref_check_identity_i(syn, rel):
    alg = syn.algebra
    for (hr, hs) in sorted(rel.pairs):
        hrs = alg.add[hr][hs]
        for vt in range(alg.v_size):
            left_t = alg.act[hrs][vt]
            right_t = alg.act[hs][vt]
            if left_t == right_t:
                continue
            for vu in range(alg.v_size):
                ru = alg.act[hr][vu]
                if alg.add[left_t][ru] != alg.add[right_t][ru]:
                    r_term, s_term = rel.witnesses[(hr, hs)]
                    return ("i", r_term, s_term, syn.v_terms[vt], syn.v_terms[vu])
    return None


def ref_check_identity_ii(syn, rel):
    alg = syn.algebra
    for (hr, vp) in sorted(rel.pairs):
        rp = alg.act[hr][vp]
        for vq in range(alg.v_size):
            rpq = alg.act[rp][vq]
            rq = alg.act[hr][vq]
            if rpq == rq:
                continue
            for vq2 in range(alg.v_size):
                tail = alg.act[rp][vq2]
                if alg.add[rpq][tail] != alg.add[rq][tail]:
                    r_term, p_term = rel.witnesses[(hr, vp)]
                    return ("ii", r_term, p_term, syn.v_terms[vq], syn.v_terms[vq2])
    return None


def ref_tables(ops, h_elems, h_index, v_elems, v_index):
    """The add, act, mul and ins tables of the elements under `ops`,
    computed elementwise: row x and column y hold the index of x op y."""
    elems, index = {"h": h_elems, "v": v_elems}, {"h": h_index, "v": v_index}
    return [
        [[index[result][getattr(ops, op)(x, y)] for y in elems[right]] for x in elems[left]]
        for left, op, right, result, *_ in algebra._OPS
    ]


def ref_syntactic_algebra(rec):
    """(algebra, h_map, v_map, accept, letters, h_terms, v_terms) of the
    syntactic algebra with its classes found by signature tuples and its
    tables computed elementwise, then validated."""
    alg, accept = rec.algebra, rec.accept
    gen = generate(alg, rec.morphism.letters, budget=alg.h_size + alg.v_size)
    hs, vs = sorted(gen.h_index), sorted(gen.v_index)
    h_class, h_reps = algebra._classes(hs, lambda h: tuple(alg.act[h][v] in accept for v in vs))
    v_class, v_reps = algebra._classes(vs, lambda v: tuple(h_class[alg.act[h][v]] for h in hs))
    add, act, mul, ins = ref_tables(alg, h_reps, h_class, v_reps, v_class)
    syn = validate_algebra(add, h_class[alg.zero], mul, v_class[alg.one], act, ins)
    letters = {a: v_class[rec.morphism.letters[a]] for a in rec.alphabet}
    done = {}
    h_terms = tuple(algebra._replay(gen, "h", gen.h_index[h], done) for h in h_reps)
    v_terms = tuple(algebra._replay(gen, "v", gen.v_index[v], done) for v in v_reps)
    new_accept = frozenset(h_class[h] for h in hs if h in accept)
    return syn, h_class, v_class, new_accept, letters, h_terms, v_terms


def ref_derived_tables(dc):
    """comp, act and ins of a derived category, each entry found by scanning
    all pairs of arrows, and of half-arrows and arrows, for those that
    meet."""
    pa, cat = dc.pa, dc.category
    a1, a2 = pa.alpha.algebra, pa.beta.algebra
    reps = [pa.v_pairs[i] for i in dc.arrow_rep]
    comp, act, ins = {}, {}, {}
    for u, (u1, u2) in enumerate(reps):
        for w, (w1, w2) in enumerate(reps):
            if cat.arr_start[w] == cat.arr_end[u]:
                prod = pa.v_index[a1.mul[u1][w1], a2.mul[u2][w2]]
                comp[u, w] = dc.arrow_of[prod, cat.arr_start[u]]
        for ci, (h1, h2) in enumerate(pa.h_pairs):
            ins[u, ci] = dc.arrow_of[pa.v_index[a1.ins[u1][h1], a2.ins[u2][h2]], cat.arr_start[u]]
    for ci, (h1, h2) in enumerate(pa.h_pairs):
        for u, (u1, u2) in enumerate(reps):
            if cat.arr_start[u] == cat.harr_end[ci]:
                act[ci, u] = pa.h_index[a1.act[h1][u1], a2.act[h2][u2]]
    return comp, act, ins


# --- inputs ------------------------------------------------------------------


PREDICATES = (even_node_types, one_root_type)


def _captured_automata():
    """The (h_add, zero, letter_maps, budget) inputs that the sample
    recognizers and small lt_recognizer machines hand to
    transformation_algebra."""
    calls = []

    def record(h_add, zero, letter_maps, budget=100000):
        calls.append((h_add, zero, letter_maps, budget))
        return transformation_algebra(h_add, zero, letter_maps, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samples, "transformation_algebra", record)
        mp.setattr(ktypes, "transformation_algebra", record)
        samples.a_has_b_child("ab")
        samples.a_has_b_child("abc")
        for alphabet, pred in itertools.product(("a", "ab"), PREDICATES):
            ktypes.lt_recognizer(alphabet, 1, pred)
    return calls


AUTOMATA = _captured_automata()


def _tables(alg):
    return (alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins)


VALID = [_tables(transformation_algebra(*args)[0]) for args in AUTOMATA] + [
    _tables(samples.flat_z3()),
    _tables(samples.flat_trunc3()),
]


def _outcome(fn, *args):
    try:
        fn(*args)
    except AlgebraLawError as e:
        return (e.law, e.where)
    return None


def _lists(table):
    return [list(row) for row in table]


# --- law checks --------------------------------------------------------------


def test_valid_inputs_pass_both():
    assert len(AUTOMATA) == 6
    for tables in VALID:
        assert _outcome(ref_validate, *tables) is None
        assert _outcome(validate_algebra, *tables) is None


def test_derived_insertion_matches_the_reference():
    # a missing insertion: H = {0, 1} under "or" and V = {1}, with no element
    # that sends every g to g + 1
    lone = ([[0, 1], [1, 1]], 0, [[0]], 0, [[0], [1]])
    assert _outcome(validate_algebra, *lone) == ("insertion-missing", (0, 1))
    assert _outcome(ref_derive_ins, 2, lone[0], 1, lone[4]) == ("insertion-missing", (0, 1))
    for add, zero, mul, one, act, ins in VALID:
        derived = validate_algebra(add, zero, mul, one, act)
        assert derived.ins == ins
        assert list(map(list, ins)) == ref_derive_ins(len(add), add, len(mul), act)


# codomain of each table: index 0 is H, 1 is V
_CODOMAIN = {"add": 0, "mul": 1, "act": 0, "ins": 1}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_single_corrupted_entry_reports_the_reference_violation(data):
    add, zero, mul, one, act, ins = data.draw(st.sampled_from(VALID))
    add, mul, act, ins = map(_lists, (add, mul, act, ins))
    tables = {"add": add, "mul": mul, "act": act, "ins": ins}
    name = data.draw(st.sampled_from(sorted(tables)))
    table = tables[name]
    i = data.draw(st.integers(0, len(table) - 1))
    j = data.draw(st.integers(0, len(table[i]) - 1))
    bound = (len(add), len(mul))[_CODOMAIN[name]]
    values = st.one_of(st.integers(-1, bound), st.just(2**70))
    table[i][j] = data.draw(values.filter(lambda x: x != table[i][j]))
    want = _outcome(ref_validate, add, zero, mul, one, act, ins)
    assert _outcome(validate_algebra, add, zero, mul, one, act, ins) == want
    if name == "add":
        assert _outcome(_check_monoid, len(add), add, zero, "h", True) == _outcome(
            ref_check_monoid, len(add), add, zero, "h", True
        )
    if name == "mul":
        assert _outcome(_check_monoid, len(mul), mul, one, "v", False) == _outcome(
            ref_check_monoid, len(mul), mul, one, "v", False
        )


def _inflate(tables, copies, perm):
    """The algebra with V replaced by V x Z_copies, the second factor acting
    trivially on H, and V relabelled by perm: every law holds except
    faithfulness."""
    add, zero, mul, one, act, ins = tables
    n = len(mul) * copies
    inv = {old: new for new, old in enumerate(perm)}

    def code(v, c):
        return inv[v * copies + c]

    new_mul = [[None] * n for _ in range(n)]
    new_act = [[None] * n for _ in range(len(add))]
    new_ins = [[None] * len(add) for _ in range(n)]
    for v, c in itertools.product(range(len(mul)), range(copies)):
        for w, d in itertools.product(range(len(mul)), range(copies)):
            new_mul[code(v, c)][code(w, d)] = code(mul[v][w], (c + d) % copies)
        for h in range(len(add)):
            new_act[h][code(v, c)] = act[h][v]
            new_ins[code(v, c)][h] = code(ins[v][h], c)
    return add, zero, new_mul, code(one, 0), new_act, new_ins


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_faithfulness_reports_the_first_pair(data):
    # V grows by the factor copies; small bases keep the reference loops quick
    tables = data.draw(st.sampled_from([t for t in VALID if len(t[2]) <= 12]))
    copies = data.draw(st.integers(2, 3))
    perm = data.draw(st.permutations(range(len(tables[2]) * copies)))
    inflated = _inflate(tables, copies, perm)
    want = _outcome(ref_validate, *inflated)
    assert want is not None and want[0] == "faithfulness"
    assert _outcome(validate_algebra, *inflated) == want


# --- transformation algebra --------------------------------------------------


def _assert_same_transformation_algebra(h_add, zero, letter_maps, budget):
    # the same algebra as the reference's full monoid, up to a renumbering of
    # V read off each element's act column; H keeps the numbering it is given.
    # The closure interleaves states and V elements, so a raise pins only
    # that one element too many was admitted, not where the split lies.
    n = len(h_add)
    mul, one, act, ins, ref_letters, _ = ref_transformation_algebra(
        h_add, zero, letter_maps, 10**9
    )
    if n + len(mul) > budget:
        with pytest.raises(BudgetError) as got:
            transformation_algebra(h_add, zero, letter_maps, budget)
        stats = got.value.stats
        assert str(got.value) == "generated closure exceeded budget"
        assert sorted(stats) == ["budget", "h", "v"] and stats["budget"] == budget
        assert stats["h"] + stats["v"] == budget + 1
        assert 1 <= stats["h"] <= n and stats["v"] >= 1
        return
    alg, letters, gen = transformation_algebra(h_add, zero, letter_maps, budget)
    # the function validates only its inputs; the laws are checked here
    assert validate_algebra(alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins) == alg
    assert (alg.h_size, alg.add, alg.zero) == (n, tuple(map(tuple, h_add)), zero)
    column = [tuple(row[v] for row in alg.act) for v in range(alg.v_size)]
    ref_column = [tuple(row[v] for row in act) for v in range(len(mul))]
    assert gen.v_elems == tuple(column)
    assert sorted(column) == sorted(ref_column)
    ref_of = {c: v for v, c in enumerate(ref_column)}
    to_ref = [ref_of[c] for c in column]
    assert to_ref[alg.one] == one
    assert {a: to_ref[v] for a, v in letters.items()} == ref_letters
    assert {a: column[v] for a, v in letters.items()} == {
        a: tuple(m) for a, m in letter_maps.items()
    }
    vs, hs = range(alg.v_size), range(n)
    assert [[to_ref[alg.mul[u][w]] for w in vs] for u in vs] == [
        [mul[to_ref[u]][to_ref[w]] for w in vs] for u in vs
    ]
    assert [[to_ref[alg.ins[u][h]] for h in hs] for u in vs] == [
        [ins[to_ref[u]][h] for h in hs] for u in vs
    ]


@pytest.mark.parametrize("args", AUTOMATA, ids=range(len(AUTOMATA)))
def test_transformation_algebra_matches_reference(args):
    _assert_same_transformation_algebra(*args)


_STATE_MONOIDS = [
    [[0, 1], [1, 1]],
    [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    [[min(i + j, 2) for j in range(3)] for i in range(3)],
    [[i | j for j in range(4)] for i in range(4)],
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_automata_match_reference(data):
    h_add = data.draw(st.sampled_from(_STATE_MONOIDS))
    n = len(h_add)
    letters = data.draw(st.sampled_from(["a", "ab"]))
    letter_maps = {
        a: data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for a in letters
    }
    budget = data.draw(st.sampled_from([3, 8, 20, 100000]))
    _assert_same_transformation_algebra(h_add, 0, letter_maps, budget)


# --- identity checks ---------------------------------------------------------


def _recognizers():
    yield samples.contains_a()
    yield samples.parity_a()
    yield samples.a_has_b_child("ab")
    for alphabet, pred in itertools.product(("a", "ab"), PREDICATES):
        yield ktypes.lt_recognizer(alphabet, 1, pred).recognizer


SYNTACTIC = [algebra.syntactic_algebra(rec) for rec in _recognizers()]


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("index", range(len(SYNTACTIC)))
def test_identity_witnesses_match_reference(index, k):
    syn = SYNTACTIC[index]
    rel_r = relation_r(syn, k)
    rel_s = relation_s(syn, k)
    assert _check_identity_i(syn, rel_r) == ref_check_identity_i(syn, rel_r)
    assert _check_identity_ii(syn, rel_s) == ref_check_identity_ii(syn, rel_s)


@pytest.mark.parametrize("index", range(len(SYNTACTIC)))
def test_identity_witnesses_match_reference_on_all_pairs(index):
    # every pair, realizable or not, so that violations are plentiful
    syn = SYNTACTIC[index]
    hs = range(syn.algebra.h_size)
    vs = range(syn.algebra.v_size)
    pairs_r = frozenset(itertools.product(hs, hs))
    pairs_s = frozenset(itertools.product(hs, vs))
    rel_r = Relation("R", 0, "all", pairs_r, {p: p for p in pairs_r})
    rel_s = Relation("S", 0, "all", pairs_s, {p: p for p in pairs_s})
    assert _check_identity_i(syn, rel_r) == ref_check_identity_i(syn, rel_r)
    assert _check_identity_ii(syn, rel_s) == ref_check_identity_ii(syn, rel_s)


# leaf depth mod m and a-above-b violate both identities at every depth; at
# depth 2 over two or more letters no exact level fits, so R saturates from
# depth 1 and S is the exact S of depth 1, as in decide_lt
VIOLATING = {
    **{
        "leaf-depth-%s-m%d" % (alphabet, m): algebra.syntactic_algebra(leaf_depth(alphabet, m, 1))
        for alphabet in ("a", "ab")
        for m in (2, 3, 4)
    },
    "a-above-b-abc": algebra.syntactic_algebra(a_above_b("abc")),
}


def _relations(syn, k):
    try:
        return relation_r(syn, k), relation_s(syn, k)
    except BudgetError:
        return relation_r(syn, k, "saturation"), relation_s(syn, k - 1)


def _by_value(pairs):
    """A relation whose witnesses are its pairs, so a check names the pair
    it reports."""
    pairs = frozenset(pairs)
    return Relation("R", 0, "all", pairs, {p: p for p in pairs})


def _assert_same_violations(syn, check, ref, pairs, rounds):
    # each round drops the pair reported last, so later pairs come first
    pairs = set(pairs)
    for _ in range(rounds):
        rel = _by_value(pairs)
        want = ref(syn, rel)
        assert check(syn, rel) == want
        if want is None:
            return
        pairs.remove(want[1:3])


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(VIOLATING))
def test_identity_witnesses_match_reference_on_violated_relations(name, k):
    syn = VIOLATING[name]
    rel_r, rel_s = _relations(syn, k)
    for check, ref, rel in (
        (_check_identity_i, ref_check_identity_i, rel_r),
        (_check_identity_ii, ref_check_identity_ii, rel_s),
    ):
        want = ref(syn, rel)
        assert want is not None
        assert check(syn, rel) == want
        _assert_same_violations(syn, check, ref, rel.pairs, 8)


@pytest.mark.parametrize("name", sorted(VIOLATING))
def test_identity_checks_on_empty_and_one_pair_relations(name):
    syn = VIOLATING[name]
    rel_r, rel_s = _relations(syn, 1)
    for check, ref, rel in (
        (_check_identity_i, ref_check_identity_i, rel_r),
        (_check_identity_ii, ref_check_identity_ii, rel_s),
    ):
        assert check(syn, _by_value(())) is None
        outcomes = set()
        for pair in sorted(rel.pairs)[:: 1 + len(rel.pairs) // 100]:
            one = _by_value([pair])
            want = ref(syn, one)
            assert check(syn, one) == want
            outcomes.add(want is None)
        assert outcomes == {True, False}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_identity_checks_match_reference_on_random_union_automata(data):
    # states are the subsets of a 2- or 3-element set, added by union, with
    # random letter maps; the checks run on the automaton's own algebra over
    # all pairs, with the context indices standing in for their terms
    n = 1 << data.draw(st.sampled_from([2, 3]))
    letter_maps = {
        a: data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        for a in data.draw(st.sampled_from(["a", "ab"]))
    }
    union = [[x | y for y in range(n)] for x in range(n)]
    try:
        alg = transformation_algebra(union, 0, letter_maps, budget=300)[0]
    except BudgetError:
        assume(False)
    syn = SimpleNamespace(algebra=alg, v_terms=range(alg.v_size))
    hs, vs = range(alg.h_size), range(alg.v_size)
    _assert_same_violations(
        syn, _check_identity_i, ref_check_identity_i, itertools.product(hs, hs), 4
    )
    _assert_same_violations(
        syn, _check_identity_ii, ref_check_identity_ii, itertools.product(hs, vs), 4
    )


# --- constructions obey every law --------------------------------------------


def _algebra_tables(alg):
    return (alg.h_size, alg.add, alg.zero, alg.v_size, alg.mul, alg.one, alg.act, alg.ins)


def _assert_valid(alg):
    assert validate_algebra(alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins) == alg


def _seeded_accept(alphabet, k):
    machine = ktypes.lt_recognizer(alphabet, k, lambda nodes, roots: False)
    rng = random.Random("%s:%d" % (alphabet, k))
    accept = frozenset(i for i in range(len(machine.states)) if rng.random() < 0.5)
    return Recognizer(machine.recognizer.morphism, accept)


def _syntactic_inputs():
    """The sample recognizers, and recognizers shaped like the benchmark's
    decide families: its non-LT automata and depth-k machines with seeded
    accept sets."""
    for name in ("contains_a", "parity_a", "contains_a_redundant", "empty_language"):
        yield name, getattr(samples, name)
    yield "universal_language", samples.universal_language
    yield "parity_a-a", lambda: samples.parity_a("a")
    for alphabet in ("ab", "abc"):
        yield "a_has_b_child-" + alphabet, lambda a=alphabet: samples.a_has_b_child(a)
        yield "count-xor-depth-" + alphabet, lambda a=alphabet: count_xor_depth(a, 3, 1, 3, 2)
    yield "count-xor-depth-a", lambda: count_xor_depth("a", 3, 1, 3, 2)
    for alphabet, moduli in (("a", (2, 3, 4)), ("ab", (2, 3))):
        for m in moduli:
            yield "leaf-depth-%s-m%d" % (alphabet, m), lambda a=alphabet, m=m: leaf_depth(a, m, 1)
    yield "a-above-b-abc", lambda: a_above_b("abc")
    for alphabet, k in (("a", 2), ("ab", 1), ("abc", 1)):
        yield "lt-%s-k%d-seeded" % (alphabet, k), lambda a=alphabet, k=k: _seeded_accept(a, k)


def _check_syntactic(make):
    rec = make()
    syn = algebra.syntactic_algebra(rec)
    _assert_valid(syn.algebra)
    ref, h_map, v_map, accept, letters, h_terms, v_terms = ref_syntactic_algebra(rec)
    assert _algebra_tables(syn.algebra) == _algebra_tables(ref)
    assert (syn.h_map, syn.v_map) == (h_map, v_map)
    assert (syn.recognizer.accept, syn.recognizer.morphism.letters) == (accept, letters)
    assert (tuple(syn.h_terms), tuple(syn.v_terms)) == (h_terms, v_terms)


def _check_wreath_recognizer(alphabet, k):
    _assert_valid(decide.lt_wreath_recognizer(alphabet, k, even_node_types).recognizer.algebra)


def _check_products(outer, inner):
    _assert_valid(direct_product(outer, inner)[0])
    _assert_valid(direct_product(inner, outer)[0])
    _assert_valid(wreath(outer, inner).algebra)


def _check_one_object(alg):
    cat = one_object_category(alg)
    assert validate_category(cat) is cat


def _check_derived(make, k):
    syn = algebra.syntactic_algebra(make())
    ka = ktypes.ktype_algebra(syn.recognizer.alphabet, k)
    dc = derived_category(pair_closure(syn.recognizer.morphism, ka.morphism))
    assert validate_category(dc.category) is dc.category
    cat = dc.category
    assert (cat.comp, cat.act, cat.ins) == ref_derived_tables(dc)


# exhaustive validation is too slow for these derived categories: on a 2-core
# host it takes 22 s on the 1453 arrows of leaf depth mod 3 over {a,b} at
# k = 1, and over 60 s on leaf depth mod 4 over {a} at k = 2 (2165 arrows)
# and on a above b over {a,b,c} at k = 1 (7405 arrows)
UNVALIDATED = {("leaf-depth-ab-m3", 1), ("leaf-depth-a-m4", 2), ("a-above-b-abc", 1)}

_FLAT = ("trivial_algebra", "flat_or", "flat_z2", "flat_z3", "flat_trunc3", "flat_diamond")

CONSTRUCTIONS = {
    **{"syntactic-" + name: (_check_syntactic, make) for name, make in _syntactic_inputs()},
    **{
        "wreath_generated-%s-k%d" % (alphabet, k): (_check_wreath_recognizer, alphabet, k)
        for alphabet, k in (("ab", 1), ("a", 1), ("a", 2))
    },
    **{
        "products-%s-%s" % (outer, inner): (
            _check_products, getattr(samples, outer)(), getattr(samples, inner)()
        )
        for outer, inner in itertools.product(_FLAT[:3], _FLAT)
    },
    **{"one_object_category-" + name: (_check_one_object, getattr(samples, name)()) for name in _FLAT},
    **{
        "derived-%s-k%d" % (name, k): (_check_derived, make, k)
        for name, (make, ks) in DERIVED_CASES.items()
        for k in ks
        if (name, k) not in UNVALIDATED
    },
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_obey_every_law(name):
    # syntactic algebras also match the elementwise reference, and derived
    # categories the reference scans, table for table
    check, *args = CONSTRUCTIONS[name]
    check(*args)
