"""Differential tests of the numpy table kernels against the loop versions
they replaced.

The reference functions below are the plain quantifier loops: they define
which violation is "first".  The kernels must raise the same law with the
same witness indices, build the same transformation algebras up to the
numbering of V (and run out of budget exactly when the reference's full
monoid does) and return the same identity witness.  The syntactic algebra
read off arrays must equal the elementwise one, and the derived category
read off the pair closure's rows must equal the one that multiplies every
entry elementwise, and its tables the ones multiplied out from the
representative pairs.
Decide's levels, closed over `AutomatonOps`'s byte tables, must equal the
closures over the tuple maps of `RefAutomatonOps`.

The constructions validate nothing themselves, so every algebra and
category they build here is run through the exhaustive validators.
"""

import dataclasses
import functools
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from automata import (
    DERIVED_CASES,
    LARGE_IDENTITY_CASES,
    a_above_b,
    count_xor_depth,
    even_node_types,
    leaf_depth,
    one_root_type,
    seeded_accept,
)
from forestalg import algebra, decide, derived, ktypes, samples
from forestalg.algebra import (
    AlgebraLawError,
    BudgetError,
    PairOps,
    _check_monoid,
    direct_product,
    generate,
    transformation_algebra,
    validate_algebra,
    wreath,
)
from forestalg.category import (
    ForestCategory,
    IdentityReport,
    check_identities,
    one_object_category,
    validate_category,
)
from forestalg.decide import (
    DecideBudgets,
    Relation,
    _check_identity_i,
    _check_identity_ii,
    relation_r,
    relation_s,
)
from forestalg.derived import DerivedCategory, derived_category, pair_closure

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


def ref_validate_category(cat):
    """The loops of `validate_category` before its tables were positional,
    with its one insertion law, on the entries read through the accessors.
    The laws on the objects and on the ends of the arrows are left out, as
    the corruptions below keep them, and so are the domain laws, which
    positional tables cannot break."""
    arrs, harrs = cat.arr_size, cat.harr_size
    ref_check_monoid(harrs, cat.harr_add, cat.harr_one, "halfarrows", commutative=True)
    comp = {(u, v): cat.compose(u, v) for u in range(arrs) for v in cat.arrows_from(cat.arr_end[u])}
    act = {(c, u): cat.act_on(c, u) for c in range(harrs) for u in cat.arrows_from(cat.harr_end[c])}
    ins = {(u, c): cat.insert(u, c) for u in range(arrs) for c in range(harrs)}
    for law, table, size in (
        ("composition-shape", comp, arrs),
        ("action-shape", act, harrs),
        ("insertion-shape", ins, arrs),
    ):
        for key, value in table.items():
            if not 0 <= value < size:
                raise AlgebraLawError(law, key, "entry out of range")
    for c in range(harrs):
        for d in range(harrs):
            if cat.harr_end[cat.harr_add[c][d]] != cat.obj_add[cat.harr_end[c]][cat.harr_end[d]]:
                raise AlgebraLawError("end-homomorphism", (c, d), "end(c+d) != end(c)+end(d)")
    for (u, v), w in comp.items():
        if cat.arr_start[w] != cat.arr_start[u] or cat.arr_end[w] != cat.arr_end[v]:
            raise AlgebraLawError("composition-endpoints", (u, v), "bad endpoints")
    for u in range(arrs):
        for v in cat.arrows_from(cat.arr_end[u]):
            for w in cat.arrows_from(cat.arr_end[v]):
                if comp[(comp[(u, v)], w)] != comp[(u, comp[(v, w)])]:
                    raise AlgebraLawError("composition-associativity", (u, v, w), "not associative")
    for x in range(cat.obj_size):
        e = cat.identity[x]
        for u in range(arrs):
            if cat.arr_end[u] == x and comp[(u, e)] != u:
                raise AlgebraLawError("identity-right", (u, x), "u . id != u")
            if cat.arr_start[u] == x and comp[(e, u)] != u:
                raise AlgebraLawError("identity-left", (u, x), "id . u != u")
    for (c, u), d in act.items():
        if cat.harr_end[d] != cat.arr_end[u]:
            raise AlgebraLawError("action-endpoints", (c, u), "bad end")
    for c in range(harrs):
        x = cat.harr_end[c]
        if act[(c, cat.identity[x])] != c:
            raise AlgebraLawError("action-identity", (c,), "c . id != c")
        for u in cat.arrows_from(x):
            for w in cat.arrows_from(cat.arr_end[u]):
                if act[(act[(c, u)], w)] != act[(c, comp[(u, w)])]:
                    raise AlgebraLawError("action-associativity", (c, u, w), "not associative")
    for u in range(arrs):
        for v in range(u + 1, arrs):
            if cat.arr_start[u] == cat.arr_start[v] and cat.arr_end[u] == cat.arr_end[v]:
                if all(act[(c, u)] == act[(c, v)] for c in cat.harrs_to(cat.arr_start[u])):
                    raise AlgebraLawError("action-faithfulness", (u, v), "arrows indistinguishable")
    for (u, c), w in ins.items():
        if cat.arr_start[w] != cat.arr_start[u] or cat.arr_end[w] != cat.obj_add[cat.arr_end[u]][cat.harr_end[c]]:
            raise AlgebraLawError("insertion-endpoints", (u, c), "bad endpoints")
    for (u, d), w in ins.items():
        for c in cat.harrs_to(cat.arr_start[u]):
            if act[(c, w)] != cat.harr_add[act[(c, u)]][d]:
                raise AlgebraLawError("insertion", (u, d, c), "c.ins(u,d) != c.u + d")


def ref_insertion_consequences(cat):
    """The two insertion laws that `validate_category` checked before the
    insertion law itself, which with faithfulness implies them."""
    for u in range(cat.arr_size):
        for c in range(cat.harr_size):
            w = cat.insert(u, c)
            for f in cat.arrows_to(cat.arr_start[u]):
                if cat.compose(f, w) != cat.insert(cat.compose(f, u), c):
                    raise AlgebraLawError("insertion-precomposition", (f, u, c), "f.ins(u,c) != ins(f.u,c)")
            for d in range(cat.harr_size):
                if cat.insert(w, d) != cat.insert(u, cat.harr_add[c][d]):
                    raise AlgebraLawError("insertion-nesting", (u, c, d), "ins(ins(u,c),d) != ins(u,c+d)")


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


class RefAutomatonOps:
    """`algebra.AutomatonOps` with every V element the tuple of states that a
    context sends each state to, whatever the number of states."""

    def __init__(self, add, zero, letters, states=None):
        self.add = add
        self.h_zero = zero
        self.v_one = tuple(range(len(add)))
        self.letters = letters
        self.states = states

    def h_add(self, x, y):
        return self.add[x][y]

    def v_mul(self, u, w):
        return tuple(map(w.__getitem__, u))  # u, then w

    def act_(self, h, v):
        return v[h]

    def ins_(self, v, h):
        return tuple(map(self.add[h].__getitem__, v))  # v, then add h


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


def ref_loop_removal(cat):
    for r in range(cat.harr_size):
        y = cat.harr_end[r]
        loops = [s for s in cat.arrows_from(y) if cat.arr_end[s] == y]
        outs = cat.arrows_from(y)
        for s in loops:
            rs = cat.act_on(r, s)
            for t1 in outs:
                left1 = cat.act_on(rs, t1)
                right1 = cat.act_on(r, t1)
                for t2 in outs:
                    tail = cat.act_on(rs, t2)
                    if cat.hsum(left1, tail) != cat.hsum(right1, tail):
                        return (r, s, t1, t2)
    return None


def ref_horizontal_absorption(cat):
    for r in range(cat.harr_size):
        x = cat.harr_end[r]
        for s in range(cat.harr_size):
            xs = cat.harr_end[s]
            if cat.obj_sum(x, xs) != xs:
                continue  # end(s) must absorb end(r)
            rs = cat.hsum(r, s)
            for t in cat.arrows_from(xs):
                left_t = cat.act_on(rs, t)
                right_t = cat.act_on(s, t)
                if left_t == right_t:
                    continue
                for u in cat.arrows_from(x):
                    ru = cat.act_on(r, u)
                    if cat.hsum(left_t, ru) != cat.hsum(right_t, ru):
                        return (r, s, t, u)
    return None


def ref_check_identities(cat):
    idempotence = ((r,) for r in range(cat.harr_size) if cat.hsum(r, r) != r)
    return IdentityReport(
        objects_ic=cat.objects_idempotent(),
        loop_removal=ref_loop_removal(cat),
        horizontal_absorption=ref_horizontal_absorption(cat),
        horizontal_idempotence=next(idempotence, None),
    )


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
    """comp, act and ins of a derived category, each entry multiplied out
    from its operands' representative pairs: comp over the arrows out of
    each arrow's end, act over the half-arrows and arrows that meet, and ins
    over every arrow and half-arrow."""
    pa, cat = dc.pa, dc.category
    a1, a2 = pa.alpha.algebra, pa.beta.algebra
    reps = [pa.v_pairs[i] for i in dc.arrow_rep]
    comp, act, ins = {}, {}, {}
    for u, (u1, u2) in enumerate(reps):
        for w in cat.arrows_from(cat.arr_end[u]):
            w1, w2 = reps[w]
            prod = pa.v_index[a1.mul[u1][w1], a2.mul[u2][w2]]
            comp[u, w] = int(dc.arrow_at[prod, cat.arr_start[u]])
        for ci, (h1, h2) in enumerate(pa.h_pairs):
            ins[u, ci] = int(dc.arrow_at[pa.v_index[a1.ins[u1][h1], a2.ins[u2][h2]], cat.arr_start[u]])
    for ci, (h1, h2) in enumerate(pa.h_pairs):
        for u, (u1, u2) in enumerate(reps):
            if cat.arr_start[u] == cat.harr_end[ci]:
                act[ci, u] = pa.h_index[a1.act[h1][u1], a2.act[h2][u2]]
    return comp, act, ins


def ref_derived_category(pa):
    """The derived category with its arrows keyed by the alpha action vector
    over the sorted alpha values at each object, and each table entry a
    product of representatives taken elementwise and looked up in the pair
    closure's indices."""
    a1, a2 = pa.alpha.algebra, pa.beta.algebra
    objects = tuple(sorted({h2 for (_, h2) in pa.h_pairs}))
    obj_index = {x: i for i, x in enumerate(objects)}
    obj_add = tuple(tuple(obj_index[a2.add[x][y]] for y in objects) for x in objects)
    harr_add = tuple(
        tuple(pa.h_index[a1.add[h1][g1], a2.add[h2][g2]] for g1, g2 in pa.h_pairs)
        for h1, h2 in pa.h_pairs
    )
    harr_end = tuple(obj_index[h2] for (_, h2) in pa.h_pairs)
    r_sets = tuple(tuple(sorted(h1 for h1, h2 in pa.h_pairs if h2 == x)) for x in objects)

    def key_of(vp_idx, oi):
        v1, v2 = pa.v_pairs[vp_idx]
        x = objects[oi]
        return (oi, obj_index[a2.act[x][v2]], tuple(a1.act[h1][v1] for h1 in r_sets[oi]))

    placed = [(vp_idx, oi) for vp_idx in range(len(pa.v_pairs)) for oi in range(len(objects))]
    arrow_of, firsts = algebra._classes(placed, lambda at: key_of(*at))
    arrow_keys = [key_of(*at) for at in firsts]
    arrow_rep = [vp_idx for vp_idx, _ in firsts]
    arr_start = tuple(k[0] for k in arrow_keys)
    arr_end = tuple(k[1] for k in arrow_keys)
    one_idx = pa.v_index[(a1.one, a2.one)]
    arrows_from = [[u for u in range(len(arrow_keys)) if arr_start[u] == x] for x in range(len(objects))]
    reps = [pa.v_pairs[vp_idx] for vp_idx in arrow_rep]
    width = max(map(len, arrows_from))

    def padded(row):  # positional rows, padded to the widest by repeating column 0
        return tuple(row + row[:1] * (width - len(row)))

    comp, act, ins = [], [], []
    for u, (u1, u2) in enumerate(reps):
        row = []
        for w in arrows_from[arr_end[u]]:
            w1, w2 = reps[w]
            row.append(arrow_of[pa.v_index[a1.mul[u1][w1], a2.mul[u2][w2]], arr_start[u]])
        comp.append(padded(row))
        ins.append(tuple(arrow_of[pa.v_index[a1.ins[u1][h1], a2.ins[u2][h2]], arr_start[u]] for h1, h2 in pa.h_pairs))
    for ci, (h1, h2) in enumerate(pa.h_pairs):
        act.append(padded([pa.h_index[a1.act[h1][reps[u][0]], a2.act[h2][reps[u][1]]] for u in arrows_from[harr_end[ci]]]))
    cat = ForestCategory(
        obj_size=len(objects),
        obj_add=obj_add,
        obj_zero=obj_index[a2.zero],
        harr_size=len(pa.h_pairs),
        harr_add=harr_add,
        harr_one=pa.h_index[(a1.zero, a2.zero)],
        harr_end=harr_end,
        arr_size=len(arrow_keys),
        arr_start=arr_start,
        arr_end=arr_end,
        identity=tuple(arrow_of[(one_idx, oi)] for oi in range(len(objects))),
        comp=tuple(comp),
        act=tuple(act),
        ins=tuple(ins),
    )
    arrow_at = np.array([arrow_of[at] for at in placed]).reshape(len(pa.v_pairs), len(objects))
    return DerivedCategory(cat, pa, objects, obj_index, tuple(arrow_rep), arrow_at)


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


def _cyclic_automaton(n):
    """Z_n under addition with one letter that adds 1: n states and n V
    elements, for the states on either side of what a byte table holds."""
    h_add = [[(i + j) % n for j in range(n)] for i in range(n)]
    return h_add, 0, {"a": [(i + 1) % n for i in range(n)]}, 100000


CAPTURED = _captured_automata()
# the cyclic automata stay out of VALID: the reference validator is cubic in |V|
AUTOMATA = CAPTURED + [_cyclic_automaton(256), _cyclic_automaton(257)]


def _tables(alg):
    return (alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins)


VALID = [_tables(transformation_algebra(*args)[0]) for args in CAPTURED] + [
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
    assert len(CAPTURED) == 6
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
    # as a one-object category, with the category's law name
    cat = one_object_category(algebra._algebra(*inflated))
    assert _outcome(validate_category, cat) == _outcome(ref_validate_category, cat) == ("action-faithfulness", want[1])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_object_insertion_reports_the_algebra_violation(data):
    # one ins entry changes; the one-object category has the algebra's
    # tables, so both validators must name the same law and witness
    add, zero, mul, one, act, ins = data.draw(st.sampled_from(VALID))
    ins = _lists(ins)
    v = data.draw(st.integers(0, len(mul) - 1))
    h = data.draw(st.integers(0, len(add) - 1))
    values = st.one_of(st.integers(-1, len(mul)), st.just(2**70))
    ins[v][h] = data.draw(values.filter(lambda x: x != ins[v][h]))
    want = _outcome(validate_algebra, add, zero, mul, one, act, ins)
    assert want[0] in ("insertion-shape", "insertion") and want[1][:2] == (v, h)
    cat = one_object_category(algebra._algebra(add, zero, mul, one, act, ins))
    assert _outcome(validate_category, cat) == _outcome(ref_validate_category, cat) == want


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


@pytest.mark.parametrize("k", [0, 1, 2])
def test_levels_match_the_closure_over_tuple_maps(k, monkeypatch):
    # decide's levels close over AutomatonOps's byte tables; decoded, they
    # are the closure over the tuple maps, element, derivation and row alike
    runs = []

    def recorded(ops, letters, h_gens=(), *, budget):
        runs.append((ops, letters, generate(ops, letters, h_gens, budget=budget)))
        return runs[-1][2]

    monkeypatch.setattr(derived, "generate", recorded)
    budget, n = DecideBudgets().closure_budget, 0
    for syn in SYNTACTIC + list(VIOLATING.values()):
        runs.clear()
        try:
            decide._level(syn, k, budget)
        except BudgetError:
            continue
        [(ops, letters, gen)] = runs
        auto = ops.second
        ref_ops = PairOps(ops.first, RefAutomatonOps(auto.add, auto.h_zero, auto.letters))
        ref_letters = {a: (v, auto.letters[a]) for a, (v, _) in letters.items()}
        ref = generate(ref_ops, ref_letters, budget=budget)
        firsts, seconds = zip(*gen.v_elems)
        decoded = tuple(zip(firsts, map(tuple, auto.read(seconds).tolist())))
        assert (gen.h_elems, decoded) == (ref.h_elems, ref.v_elems)
        assert (gen.h_derivs, gen.v_derivs) == (ref.h_derivs, ref.v_derivs)
        assert (gen.h_rows, gen.v_rows) == (ref.h_rows, ref.v_rows)
        n += 1
    assert n == (5 if k == 2 else 14)


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


# --- the category's identities ----------------------------------------------


def _derived(make, k):
    syn = algebra.syntactic_algebra(make())
    ka = ktypes.ktype_algebra(syn.recognizer.alphabet, k)
    return derived_category(pair_closure(syn.recognizer.morphism, ka.morphism))


# name -> maker of every derived-category case and hand-built sample category
CATEGORIES = {
    **{
        "derived-%s-k%d" % (name, k): lambda make=make, k=k: _derived(make, k).category
        for name, (make, ks) in DERIVED_CASES.items()
        for k in ks
    },
    "sample-interval": samples.interval_category,
    "sample-z2_fiber": samples.z2_fiber_category,
    **{
        "sample-" + name: lambda name=name: one_object_category(getattr(samples, name)())
        for name in ("flat_or", "flat_z2", "flat_max3", "flat_trunc3", "flat_diamond")
    },
}


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_category_identities_match_the_reference_scans(name):
    cat = CATEGORIES[name]()
    assert check_identities(cat) == ref_check_identities(cat)


# the perturbed categories come from those of under 500 arrows, each built
# once; the reference scans then take well under a second on each
LARGE = {
    "derived-leaf-depth-a-m3-k2",
    "derived-leaf-depth-a-m4-k2",
    "derived-leaf-depth-ab-m3-k1",
    "derived-a-above-b-abc-k1",
}


@functools.cache
def _small_category(name):
    cat = CATEGORIES[name]()
    assert cat.arr_size < 500
    return cat


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_category_identities_match_the_reference_on_perturbed_additions(data):
    # one sum c + d is replaced by another half-arrow with the same end, so
    # the rows that each check compares still line up, while the addition
    # may lose commutativity or associativity and the identities their
    # first witness
    cat = _small_category(data.draw(st.sampled_from(sorted(set(CATEGORIES) - LARGE))))
    c = data.draw(st.integers(0, cat.harr_size - 1))
    d = data.draw(st.integers(0, cat.harr_size - 1))
    old = cat.harr_add[c][d]
    others = [e for e in cat.harrs_to(cat.harr_end[old]) if e != old]
    assume(others)
    add = [list(row) for row in cat.harr_add]
    add[c][d] = data.draw(st.sampled_from(others))
    cat = dataclasses.replace(cat, harr_add=tuple(map(tuple, add)))
    assert check_identities(cat) == ref_check_identities(cat)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_single_corrupted_category_entry_reports_the_reference_violation(data):
    # one real entry (i, j) of a table changes, and with column 0 its row's
    # padding, so the tables stay positional; the categories of at most 80
    # arrows keep the reference loops quick
    cat = _small_category(data.draw(st.sampled_from(sorted(set(CATEGORIES) - LARGE))))
    assume(cat.arr_size <= 80)
    # the insertion law and faithfulness imply the two laws checked before
    assert _outcome(ref_insertion_consequences, cat) is None
    name = data.draw(st.sampled_from(("harr_add", "comp", "act", "ins")))
    rows = [list(row) for row in getattr(cat, name)]
    i = data.draw(st.integers(0, len(rows) - 1))
    ends = {"comp": cat.arr_end, "act": cat.harr_end}
    real = len(cat.arrows_from(ends[name][i])) if name in ends else len(rows[i])
    j = data.draw(st.integers(0, real - 1))
    bound = cat.harr_size if name in ("harr_add", "act") else cat.arr_size
    value = data.draw(st.one_of(st.integers(-1, bound), st.just(2**70)).filter(lambda x: x != rows[i][j]))
    rows[i] = [value if k == j or (j == 0 and k >= real) else x for k, x in enumerate(rows[i])]
    cat = dataclasses.replace(cat, **{name: tuple(map(tuple, rows))})
    got = _outcome(validate_category, cat)
    assert got == _outcome(ref_validate_category, cat)
    if got is None:
        assert _outcome(ref_insertion_consequences, cat) is None


# --- the derived category against the elementwise build ----------------------


@pytest.mark.parametrize(
    "name,k",
    [(name, k) for name, (_, ks) in DERIVED_CASES.items() for k in ks] + list(LARGE_IDENTITY_CASES),
)
def test_derived_category_matches_the_elementwise_reference(name, k):
    # the same arrows, numbered alike, and the same tables; the reference
    # takes about 1.2 s on a_has_b_child over {a,b,c} at k = 1
    make = LARGE_IDENTITY_CASES.get((name, k)) or DERIVED_CASES[name][0]
    dc = _derived(make, k)
    ref = ref_derived_category(dc.pa)
    for field in ("category", "arrow_rep", "objects", "obj_index"):
        assert getattr(dc, field) == getattr(ref, field), field
    assert np.array_equal(dc.arrow_at, ref.arrow_at)


# --- constructions obey every law --------------------------------------------


def _algebra_tables(alg):
    return (alg.h_size, alg.add, alg.zero, alg.v_size, alg.mul, alg.one, alg.act, alg.ins)


def _assert_valid(alg):
    assert validate_algebra(alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins) == alg


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
        seed = "%s:%d" % (alphabet, k)
        yield "lt-%s-k%d-seeded" % (alphabet, k), lambda a=alphabet, k=k, s=seed: seeded_accept(a, k, s)


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
    dc = _derived(make, k)
    assert validate_category(dc.category) is dc.category
    cat = dc.category
    ref = ref_derived_tables(dc)
    tables = [{key: read(*key) for key in table} for read, table in zip((cat.compose, cat.act_on, cat.insert), ref)]
    assert tuple(tables) == ref


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
    },
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_obey_every_law(name):
    # syntactic algebras also match the elementwise reference, and derived
    # categories the reference scans, table for table
    check, *args = CONSTRUCTIONS[name]
    check(*args)
