"""Tests of the semi-naive generator closure `algebra.generate` and of the
closures routed through it.

The reference functions below are the loops those closures used before: the
round-robin loops behind `syntactic_algebra`, `pair_closure`, the joint
closure of `dct_backward`, `tm_to_division`, `generated_subalgebra` and
`wreath_generated`, the forced-image propagation of `search_division` and the
K worklist of `dct_forward`, and the engine's own earlier closure, which
paired every element with every other.  The engine must generate the same
element sets, the closures that sort their elements must return the same
tables and witnesses, and every derivation must replay to its element.
"""

import itertools

import pytest

from forestalg import algebra, decide, derived, ktypes, samples
from forestalg.algebra import (
    AlgebraLawError,
    BudgetError,
    DivisionWitness,
    ForestAlgebra,
    Generated,
    PairOps,
    WreathOps,
    WreathProduct,
    _freeze,
    direct_product,
    division_to_tm,
    generate,
    generated_subalgebra,
    search_division,
    syntactic_algebra,
    tm_to_division,
    validate_algebra,
    verify_division,
    witness_context,
    witness_forest,
    wreath,
    wreath_generated,
)
from forestalg.category import Covering, canonical_flat_cover
from forestalg.derived import (
    FactorizationError,
    WreathMorphism,
    dct_backward,
    dct_forward,
    derived_category,
    pair_closure,
)
from forestalg.terms import enumerate_forests, make_alphabet
from test_kernels import ref_tables

A = make_alphabet("a")

# --- reference loops -----------------------------------------------------------


def ref_generate(ops, letters, h_gens=(), *, budget):
    """The engine as it was: each element, in admission order, meets every
    element processed before it and itself, at O((|H| + |V|)^2)."""
    h_add, v_mul, act, ins = ops.h_add, ops.v_mul, ops.act_, ops.ins_
    gens = sorted(letters.items())
    h_elems, h_index, h_derivs = [], {}, []
    v_elems, v_index, v_derivs = [], {}, []

    def admit(elems, index, derivs, x, deriv):
        index[x] = len(elems)
        elems.append(x)
        derivs.append(deriv)
        if len(h_elems) + len(v_elems) > budget:
            raise BudgetError(
                "generated closure exceeded budget",
                {"h": len(h_elems), "v": len(v_elems), "budget": budget},
            )

    admit(v_elems, v_index, v_derivs, ops.v_one, ("one",))
    admit(h_elems, h_index, h_derivs, ops.h_zero, ("zero",))
    for i, x in enumerate(h_gens):
        if x not in h_index:
            admit(h_elems, h_index, h_derivs, x, ("gen", i))
    hi = vi = 0  # the elements below these indices are processed
    while vi < len(v_elems) or hi < len(h_elems):
        if vi < len(v_elems):
            u = v_elems[vi]
            for a, g in gens:
                z = v_mul(u, g)
                if z not in v_index:
                    admit(v_elems, v_index, v_derivs, z, ("letter", vi, a))
            for j in range(hi):
                x = h_elems[j]
                z = ins(u, x)
                if z not in v_index:
                    admit(v_elems, v_index, v_derivs, z, ("ins", vi, j))
                z = act(x, u)
                if z not in h_index:
                    admit(h_elems, h_index, h_derivs, z, ("act", j, vi))
            vi += 1
        else:
            x = h_elems[hi]
            for j in range(hi + 1):
                z = h_add(x, h_elems[j])
                if z not in h_index:
                    admit(h_elems, h_index, h_derivs, z, ("add", hi, j))
            for j in range(vi):
                u = v_elems[j]
                z = act(x, u)
                if z not in h_index:
                    admit(h_elems, h_index, h_derivs, z, ("act", hi, j))
                z = ins(u, x)
                if z not in v_index:
                    admit(v_elems, v_index, v_derivs, z, ("ins", j, hi))
            hi += 1
    return Generated(
        tuple(h_elems), tuple(v_elems), h_index, v_index, tuple(h_derivs), tuple(v_derivs)
    )


def ref_reachable_part(morphism):
    alg = morphism.algebra
    letters = sorted(morphism.alphabet)
    h_seen = {alg.zero: ("zero",)}
    v_seen = {alg.one: ("one",)}
    changed = True
    while changed:
        changed = False
        for v in list(v_seen):
            for a in letters:
                w = alg.mul[v][morphism.letters[a]]
                if w not in v_seen:
                    v_seen[w] = ("letter", v, a)
                    changed = True
            for h in list(h_seen):
                w = alg.ins[v][h]
                if w not in v_seen:
                    v_seen[w] = ("ins", v, h)
                    changed = True
        for h in list(h_seen):
            for v in list(v_seen):
                g = alg.act[h][v]
                if g not in h_seen:
                    h_seen[g] = ("act", h, v)
                    changed = True
            for g in list(h_seen):
                w = alg.add[h][g]
                if w not in h_seen:
                    h_seen[w] = ("add", h, g)
                    changed = True
    return set(h_seen), set(v_seen)


def ref_pair_closure(alpha, beta):
    a1, a2 = alpha.algebra, beta.algebra
    letters = sorted(alpha.alphabet)
    h_pairs = [(a1.zero, a2.zero)]
    v_pairs = [(a1.one, a2.one)]
    changed = True
    while changed:
        changed = False
        for i in range(len(v_pairs)):
            v1, v2 = v_pairs[i]
            for a in letters:
                cand = (a1.mul[v1][alpha.letters[a]], a2.mul[v2][beta.letters[a]])
                if cand not in v_pairs:
                    v_pairs.append(cand)
                    changed = True
            for j in range(len(h_pairs)):
                h1, h2 = h_pairs[j]
                cand = (a1.ins[v1][h1], a2.ins[v2][h2])
                if cand not in v_pairs:
                    v_pairs.append(cand)
                    changed = True
        for i in range(len(h_pairs)):
            h1, h2 = h_pairs[i]
            for j in range(len(v_pairs)):
                v1, v2 = v_pairs[j]
                cand = (a1.act[h1][v1], a2.act[h2][v2])
                if cand not in h_pairs:
                    h_pairs.append(cand)
                    changed = True
            for j in range(len(h_pairs)):
                g1, g2 = h_pairs[j]
                cand = (a1.add[h1][g1], a2.add[h2][g2])
                if cand not in h_pairs:
                    h_pairs.append(cand)
                    changed = True
    return set(h_pairs), set(v_pairs)


def ref_dct_closure(delta, alpha):
    ops = delta.ops()
    a1 = alpha.algebra
    letters = sorted(alpha.alphabet)
    h_elems = [(ops.h_zero, a1.zero)]
    v_elems = [(ops.v_one, a1.one)]
    changed = True
    while changed:
        changed = False
        for i in range(len(v_elems)):
            dv, av = v_elems[i]
            for a in letters:
                cand = (ops.v_mul(dv, delta.letters[a]), a1.mul[av][alpha.letters[a]])
                if cand not in v_elems:
                    v_elems.append(cand)
                    changed = True
            for j in range(len(h_elems)):
                dh, ah = h_elems[j]
                cand = (ops.ins_(dv, dh), a1.ins[av][ah])
                if cand not in v_elems:
                    v_elems.append(cand)
                    changed = True
        for i in range(len(h_elems)):
            dh, ah = h_elems[i]
            for j in range(len(v_elems)):
                dv, av = v_elems[j]
                cand = (ops.act_(dh, dv), a1.act[ah][av])
                if cand not in h_elems:
                    h_elems.append(cand)
                    changed = True
            for j in range(len(h_elems)):
                dh2, ah2 = h_elems[j]
                cand = (ops.h_add(dh, dh2), a1.add[ah][ah2])
                if cand not in h_elems:
                    h_elems.append(cand)
                    changed = True
    return set(h_elems), set(v_elems)


def ref_dct_backward_covering(dc, delta):
    """The covering the old `dct_backward` built, for a delta that factors."""
    pa = dc.pa
    h_elems, v_elems = ref_dct_closure(delta, pa.alpha)
    half_cover = [set() for _ in range(len(pa.h_pairs))]
    for (ho, hi), ah in h_elems:
        half_cover[pa.h_index[(ah, hi)]].add(ho)
    arrow_cover = [set() for _ in range(len(dc.arrow_keys))]
    for (f, vi), av in v_elems:
        vp_idx = pa.v_index[(av, vi)]
        for oi, h2 in enumerate(dc.objects):
            arrow_cover[dc.arrow_of[(vp_idx, oi)]].add(f[h2])
    return Covering(
        delta.outer,
        tuple(frozenset(s) for s in half_cover),
        tuple(frozenset(s) for s in arrow_cover),
    )


def ref_tm_to_division(target, ambient, w):
    h_pairs = {(ambient.h_zero, target.zero)}
    v_pairs = {(ambient.v_one, target.one)}
    gens = [(w.hat[v], v) for v in sorted(w.hat)]
    changed = True
    while changed:
        changed = False
        for u, gu in list(v_pairs):
            for du, gv in gens:
                z = (ambient.v_mul(u, du), target.mul[gu][gv])
                if z not in v_pairs:
                    v_pairs.add(z)
                    changed = True
            for x, gx in list(h_pairs):
                z = (ambient.ins_(u, x), target.ins[gu][gx])
                if z not in v_pairs:
                    v_pairs.add(z)
                    changed = True
        for x, gx in list(h_pairs):
            for u, gu in list(v_pairs):
                z = (ambient.act_(x, u), target.act[gx][gu])
                if z not in h_pairs:
                    h_pairs.add(z)
                    changed = True
            for y, gy in list(h_pairs):
                z = (ambient.h_add(x, y), target.add[gx][gy])
                if z not in h_pairs:
                    h_pairs.add(z)
                    changed = True
    h_map, v_map = {}, {}
    for x, gx in h_pairs:
        if h_map.setdefault(x, gx) != gx:
            raise ValueError("delta image does not determine the target value at %r" % (x,))
    for u, gu in v_pairs:
        if v_map.setdefault(u, gu) != gu:
            raise ValueError("delta image does not determine the target value at %r" % (u,))
    return DivisionWitness(tuple(sorted(h_map)), tuple(sorted(v_map)), h_map, v_map)


def ref_generated_subalgebra(alg, h_gens=(), v_gens=()):
    h_set = {alg.zero} | set(h_gens)
    v_set = {alg.one} | set(v_gens)
    changed = True
    while changed:
        changed = False
        for x in list(h_set):
            for y in list(h_set):
                if alg.add[x][y] not in h_set:
                    h_set.add(alg.add[x][y])
                    changed = True
            for u in list(v_set):
                if alg.act[x][u] not in h_set:
                    h_set.add(alg.act[x][u])
                    changed = True
        for u in list(v_set):
            for w in list(v_set):
                if alg.mul[u][w] not in v_set:
                    v_set.add(alg.mul[u][w])
                    changed = True
            for x in list(h_set):
                if alg.ins[u][x] not in v_set:
                    v_set.add(alg.ins[u][x])
                    changed = True
    h_embed = tuple(sorted(h_set))
    v_embed = tuple(sorted(v_set))
    h_index = {h: i for i, h in enumerate(h_embed)}
    v_index = {v: i for i, v in enumerate(v_embed)}
    sub = ForestAlgebra(
        h_size=len(h_embed),
        add=_freeze([[h_index[alg.add[x][y]] for y in h_embed] for x in h_embed]),
        zero=h_index[alg.zero],
        v_size=len(v_embed),
        mul=_freeze([[v_index[alg.mul[u][w]] for w in v_embed] for u in v_embed]),
        one=v_index[alg.one],
        act=_freeze([[h_index[alg.act[x][u]] for u in v_embed] for x in h_embed]),
        ins=_freeze([[v_index[alg.ins[u][x]] for x in h_embed] for u in v_embed]),
    )
    return sub, h_embed, v_embed


def ref_wreath_closure(outer, inner, v_gens, h_gens=()):
    ops = WreathOps(outer, inner)
    h_set = {ops.h_zero}
    h_set.update(h_gens)
    v_set = {ops.v_one}
    v_set.update(tuple((tuple(f), v) for f, v in v_gens))
    while True:
        new_h = set()
        new_v = set()
        for x in h_set:
            for y in h_set:
                z = ops.h_add(x, y)
                if z not in h_set:
                    new_h.add(z)
            for u in v_set:
                z = ops.act_(x, u)
                if z not in h_set:
                    new_h.add(z)
        for u in v_set:
            for w in v_set:
                z = ops.v_mul(u, w)
                if z not in v_set:
                    new_v.add(z)
            for x in h_set:
                z = ops.ins_(u, x)
                if z not in v_set:
                    new_v.add(z)
        if not new_h and not new_v:
            break
        h_set |= new_h
        v_set |= new_v
    return h_set, v_set


def ref_wreath_generated(outer, inner, v_gens, h_gens=()):
    """The old tables, which raise when two vertical pairs act identically."""
    ops = WreathOps(outer, inner)
    h_set, v_set = ref_wreath_closure(outer, inner, v_gens, h_gens)
    h_elems = sorted(h_set)
    v_elems = sorted(v_set)
    h_index = {x: i for i, x in enumerate(h_elems)}
    v_index = {u: i for i, u in enumerate(v_elems)}
    add = [[h_index[ops.h_add(x, y)] for y in h_elems] for x in h_elems]
    mul = [[v_index[ops.v_mul(u, w)] for w in v_elems] for u in v_elems]
    act = [[h_index[ops.act_(x, u)] for u in v_elems] for x in h_elems]
    ins = [[v_index[ops.ins_(u, x)] for x in h_elems] for u in v_elems]
    columns = {}
    for v in range(len(v_elems)):
        column = tuple(row[v] for row in act)
        if column in columns:
            raise AlgebraLawError("wreath-collapse", (columns[column], v), "collapse")
        columns[column] = v
    alg = validate_algebra(add, h_index[ops.h_zero], mul, v_index[ops.v_one], act, ins)
    pi_h = tuple(p[1] for p in h_elems)
    pi_v = tuple(p[1] for p in v_elems)
    return WreathProduct(
        alg, outer, inner, tuple(h_elems), tuple(v_elems), h_index, v_index, pi_h, pi_v
    )


def _ref_try_assignment(target, ambient, gens, assign, h_embed, v_embed):
    v_map = {ambient.one: target.one}
    for g, tv in zip(gens, assign):
        if v_map.setdefault(g, tv) != tv:
            return None
    h_map = {ambient.zero: target.zero}

    conflict = False

    def put(m, key, val):
        nonlocal conflict
        prev = m.get(key)
        if prev is None:
            m[key] = val
            return True
        if prev != val:
            conflict = True
        return False

    # propagate forced images until stable; a conflict means the generator
    # assignment does not extend to a morphism of the subalgebra
    changed = True
    while changed and not conflict:
        changed = False
        for x in list(h_map):
            for y in list(h_map):
                changed |= put(h_map, ambient.add[x][y], target.add[h_map[x]][h_map[y]])
            for u in list(v_map):
                changed |= put(h_map, ambient.act[x][u], target.act[h_map[x]][v_map[u]])
                changed |= put(v_map, ambient.ins[u][x], target.ins[v_map[u]][h_map[x]])
        for u in list(v_map):
            for v in list(v_map):
                changed |= put(v_map, ambient.mul[u][v], target.mul[v_map[u]][v_map[v]])
    if conflict:
        return None
    if set(h_map) != set(h_embed) or set(v_map) != set(v_embed):
        return None
    if set(h_map.values()) != set(range(target.h_size)):
        return None
    if set(v_map.values()) != set(range(target.v_size)):
        return None
    return DivisionWitness(tuple(h_embed), tuple(v_embed), h_map, v_map)


def ref_search_division(target, ambient, max_gens=3):
    """The search with one generated subalgebra per generator subset and the
    propagation above per assignment."""
    for size in range(0, min(max_gens, ambient.v_size) + 1):
        for gens in itertools.combinations(range(ambient.v_size), size):
            _, h_embed, v_embed = generated_subalgebra(ambient, (), gens)
            for assign in itertools.product(range(target.v_size), repeat=len(gens)):
                w = _ref_try_assignment(target, ambient, gens, assign, h_embed, v_embed)
                if w is not None and verify_division(target, ambient, w).ok:
                    return w
    return None


def ref_dct_forward(dc, cov):
    """(k_elements, psi, hat) as the K worklist built them."""
    pa = dc.pa
    a1, a2 = pa.alpha.algebra, pa.beta.algebra
    ops = WreathOps(cov.algebra, a2)
    covered = {}
    for ci, (h1, h2) in enumerate(pa.h_pairs):
        for x in cov.half_cover[ci]:
            if covered.setdefault((x, h2), h1) != h1:
                raise ValueError("covering is not injective on half-arrows")
    hat = {}
    for v1 in range(a1.v_size):
        vp_idx = next(j for j, (w1, _) in enumerate(pa.v_pairs) if w1 == v1)
        v2 = pa.v_pairs[vp_idx][1]
        f = []
        for h2 in range(a2.h_size):
            oi = dc.obj_index.get(h2)
            if oi is None:
                f.append(cov.algebra.v_one)
                continue
            f.append(min(cov.arrow_cover[dc.arrow_of[(vp_idx, oi)]]))
        hat[v1] = (tuple(f), v2)

    psi = {ops.h_zero: a1.zero}
    work = [ops.h_zero]
    for ci, (h1, h2) in enumerate(pa.h_pairs):
        key = (min(cov.half_cover[ci]), h2)
        if key not in psi:
            psi[key] = h1
            work.append(key)

    def admit(key, value):
        prev = psi.get(key)
        if prev is None:
            if covered.get(key, value) != value:
                raise ValueError("covering violates psi-consistency at %r" % (key,))
            psi[key] = value
            work.append(key)
        elif prev != value:
            raise ValueError("covering is not functional at %r" % (key,))

    while work:
        k = work.pop()
        kv = psi[k]
        for other in list(psi):
            admit(ops.h_add(k, other), a1.add[kv][psi[other]])
        for v1, vhat in hat.items():
            admit(ops.act_(k, vhat), a1.act[kv][v1])
    return tuple(sorted(psi)), psi, hat


# --- inputs ----------------------------------------------------------------------


def _even_node_types(nodes, roots):
    return len(nodes) % 2 == 0


def _one_root_type(nodes, roots):
    return len(roots) == 1


def _recognizers():
    yield samples.contains_a()
    yield samples.parity_a()
    yield samples.contains_a_redundant()
    yield samples.empty_language()
    yield samples.universal_language()
    yield samples.a_has_b_child("ab")
    for alphabet, pred in itertools.product(("a", "ab"), (_even_node_types, _one_root_type)):
        yield ktypes.lt_recognizer(alphabet, 1, pred).recognizer


RECOGNIZERS = list(_recognizers())
SYNTACTIC = [syntactic_algebra(rec) for rec in RECOGNIZERS]


def _wreath_letters(alphabet, k):
    """The generators `lt_wreath_recognizer` passes to `wreath_generated`."""
    delta = decide.lt_wreath_recognizer(alphabet, k, _even_node_types).delta
    return delta.outer, delta.inner, [delta.letters[a] for a in sorted(delta.alphabet)]


def _or_tracking_delta(rec, ka):
    outer = samples.flat_or()
    letters = {
        x: (tuple(int(x == "a") for _ in range(ka.algebra.h_size)), ka.morphism.letters[x])
        for x in sorted(rec.alphabet)
    }
    return WreathMorphism(outer, ka.algebra, rec.alphabet, letters)


def _trivial_delta(rec, ka):
    letters = {
        x: (tuple(0 for _ in range(ka.algebra.h_size)), ka.morphism.letters[x])
        for x in sorted(rec.alphabet)
    }
    return WreathMorphism(samples.trivial_algebra(), ka.algebra, rec.alphabet, letters)


def _factorizations():
    """(derived category, delta) pairs where delta factors alpha."""
    rec = SYNTACTIC[0].recognizer  # contains-a over {a, b}
    rec_a = syntactic_algebra(samples.contains_a(A)).recognizer
    for srec, k, make in ((rec_a, 0, _or_tracking_delta), (rec_a, 1, _or_tracking_delta),
                          (rec_a, 1, _trivial_delta), (rec, 0, _or_tracking_delta),
                          (rec, 1, _or_tracking_delta)):
        ka = ktypes.ktype_algebra(srec.alphabet, k)
        yield derived_category(pair_closure(srec.morphism, ka.morphism)), make(srec, ka)


def _tm_cases():
    """(target, ambient, tm-division witness) triples."""
    a = samples.flat_trunc3()
    ident = DivisionWitness(
        tuple(range(a.h_size)), tuple(range(a.v_size)),
        {h: h for h in range(a.h_size)}, {v: v for v in range(a.v_size)},
    )
    yield a, a, division_to_tm(a, a, ident)
    orr = samples.flat_or()
    prod, hs, vs = direct_product(orr, samples.flat_z2())
    proj = DivisionWitness(
        tuple(range(prod.h_size)), tuple(range(prod.v_size)),
        {i: hs[i][0] for i in range(prod.h_size)}, {i: vs[i][0] for i in range(prod.v_size)},
    )
    yield orr, prod, division_to_tm(orr, prod, proj)
    # dct_forward's witness lives in a lazy wreath over a flat mask algebra
    for dc, _ in itertools.islice(_factorizations(), 2):
        cov, _ = canonical_flat_cover(dc.category)
        witness, ops = dct_forward(dc, cov)
        yield dc.pa.alpha.algebra, ops, witness


# --- the engine ------------------------------------------------------------------


class _Counting:
    """Wraps an elementwise protocol and counts the calls of each operation."""

    def __init__(self, ops):
        self.ops = ops
        self.calls = {"h_add": 0, "v_mul": 0, "act_": 0, "ins_": 0}
        self.h_zero = ops.h_zero
        self.v_one = ops.v_one

    def _count(name):
        def op(self, x, y):
            self.calls[name] += 1
            return getattr(self.ops, name)(x, y)

        return op

    h_add = _count("h_add")
    v_mul = _count("v_mul")
    act_ = _count("act_")
    ins_ = _count("ins_")


@pytest.mark.parametrize("index", range(len(RECOGNIZERS)))
def test_each_pair_of_elements_meets_once(index):
    rec = RECOGNIZERS[index]
    ops = _Counting(rec.algebra)
    gen = generate(ops, rec.morphism.letters, budget=10**6)
    nh, nv = len(gen.h_elems), len(gen.v_elems)
    # the additive generators are the tree values that were new when found
    n_gens = sum(d[0] == "act" for d in gen.h_derivs)
    assert ops.calls == {
        "h_add": nh * n_gens,
        "v_mul": nv * len(rec.alphabet),
        "act_": nh * len(rec.alphabet),
        "ins_": nv * n_gens,
    }


def _budget_call_sites():
    syn = SYNTACTIC[5]  # a-has-b-child
    beta = ktypes.ktype_algebra(syn.recognizer.alphabet, 1).morphism
    dc, delta = list(_factorizations())[1]
    outer, inner, gens = _wreath_letters("ab", 1)
    for call in (
        lambda: pair_closure(syn.recognizer.morphism, beta, budget=5),
        lambda: dct_backward(dc, delta, budget=3),
        lambda: wreath_generated(outer, inner, gens, budget=5),
    ):
        with pytest.raises(BudgetError):
            call()


# one run of each closure on `generate` over the inputs above
GENERATE_CALL_SITES = {
    "syntactic_algebra": lambda: [syntactic_algebra(rec) for rec in RECOGNIZERS],
    "pair_closure": lambda: [
        pair_closure(syn.recognizer.morphism, ktypes.ktype_algebra(syn.recognizer.alphabet, k).morphism)
        for syn in SYNTACTIC
        for k in (0, 1)
    ],
    "decide_lt": lambda: [decide.decide_lt(rec) for rec in RECOGNIZERS],
    "dct_backward": lambda: [dct_backward(dc, delta) for dc, delta in _factorizations()],
    "dct_forward": lambda: [dct_forward(dc, cov) for dc, cov in _forward_cases()],
    "tm_to_division": lambda: [tm_to_division(t, a, w) for t, a, w in _tm_cases()],
    "search_division": lambda: [search_division(t, a) for t, a in _division_cases()],
    "generated_subalgebra": lambda: [
        generated_subalgebra(alg, h_gens, v_gens)
        for alg in [syn.algebra for syn in SYNTACTIC] + [samples.flat_diamond()]
        for h_gens in [(), (alg.h_size - 1,)]
        for v_gens in itertools.combinations(range(alg.v_size), 2)
    ],
    "wreath_generated": lambda: [wreath_generated(*_wreath_letters(x, 1)) for x in ("a", "ab")],
    "budget errors": _budget_call_sites,
}


@pytest.mark.parametrize("site", sorted(GENERATE_CALL_SITES))
def test_generate_matches_the_pairwise_reference_at_every_call_site(site, monkeypatch):
    calls = []

    def checked(ops, letters, h_gens=(), *, budget):
        calls.append(budget)
        try:
            ref = ref_generate(ops, letters, h_gens, budget=budget)
        except BudgetError:
            with pytest.raises(BudgetError):
                generate(ops, letters, h_gens, budget=budget)
            raise
        gen = generate(ops, letters, h_gens, budget=budget)
        assert (set(gen.h_elems), set(gen.v_elems)) == (set(ref.h_elems), set(ref.v_elems))
        return gen

    monkeypatch.setattr(algebra, "generate", checked)
    monkeypatch.setattr(derived, "generate", checked)
    GENERATE_CALL_SITES[site]()
    assert calls


def assert_rows_hold_the_products(ops, letters, gen):
    """Every row of `gen` is complete, and each entry is the product of its
    element with the column's operand: the letters in label order, then the
    additive generators in admission order."""
    images = [letters[a] for a in sorted(letters)]
    adds = [gen.h_elems[h] for h, d in enumerate(gen.h_derivs) if d[0] in ("gen", "act")]
    for elems, rows, by_letter, by_gen in (
        (gen.h_elems, gen.h_rows, ops.act_, ops.h_add),
        (gen.v_elems, gen.v_rows, ops.v_mul, ops.ins_),
    ):
        assert len(rows) == len(elems)
        for x, row in zip(elems, rows):
            want = [by_letter(x, g) for g in images] + [by_gen(x, t) for t in adds]
            assert [elems[i] for i in row] == want


@pytest.mark.parametrize("site", sorted(GENERATE_CALL_SITES))
def test_generated_rows_give_the_elementwise_tables_at_every_call_site(site, monkeypatch):
    # the tables read off the rows equal the elementwise ones, over the
    # admission order, at every call site, tabulating or not
    calls = []

    def checked(ops, letters, h_gens=(), *, budget):
        gen = generate(ops, letters, h_gens, budget=budget)
        assert_rows_hold_the_products(ops, letters, gen)
        elems = (gen.h_elems, gen.h_index, gen.v_elems, gen.v_index)
        assert algebra._gen_tables(gen, *elems) == ref_tables(ops, *elems)
        calls.append(budget)
        return gen

    monkeypatch.setattr(algebra, "generate", checked)
    monkeypatch.setattr(derived, "generate", checked)
    GENERATE_CALL_SITES[site]()
    assert calls


def test_generated_tables_need_no_elementwise_tables():
    # the wreath, depth-k and generated subalgebra tables are read off the
    # closure's rows alone: there is no elementwise table builder left
    assert not hasattr(algebra, "_tables")
    built = decide.lt_wreath_recognizer("ab", 1, _even_node_types)
    assert built.pi_ok
    outer, inner, gens = _wreath_letters("ab", 1)
    assert wreath_generated(outer, inner, gens) == ref_wreath_generated(outer, inner, gens)
    ka = ktypes.ktype_algebra("abc", 1).algebra
    assert (ka.h_size, ka.v_size) == (64, 263)
    assert validate_algebra(ka.add, ka.zero, ka.mul, ka.one, ka.act, ka.ins) == ka
    for syn in SYNTACTIC:
        alg = syn.algebra
        for v_gens in itertools.combinations(range(alg.v_size), 2):
            got = generated_subalgebra(alg, (alg.h_size - 1,), v_gens)
            assert got == ref_generated_subalgebra(alg, (alg.h_size - 1,), v_gens)


def test_generate_rows_default_to_empty():
    gen = Generated((0,), (0,), {0: 0}, {0: 0}, (("zero",),), (("one",),))
    assert (gen.h_rows, gen.v_rows) == ((), ())


@pytest.mark.parametrize("index", range(len(RECOGNIZERS)))
def test_reachable_part_matches_reference(index):
    rec = RECOGNIZERS[index]
    alg = rec.algebra
    gen = generate(alg, rec.morphism.letters, budget=alg.h_size + alg.v_size)
    assert (set(gen.h_elems), set(gen.v_elems)) == ref_reachable_part(rec.morphism)
    for i, h in enumerate(gen.h_elems):
        assert rec.morphism.eval_forest(witness_forest(gen, i)) == h
    for j, v in enumerate(gen.v_elems):
        assert rec.morphism.eval_context(witness_context(gen, j)) == v


def test_replay_through_an_h_gens_element_raises_a_value_error():
    # an element of h_gens comes with no derivation, so no term realizes it
    alg = syntactic_algebra(samples.contains_a()).algebra
    gen = generate(alg, {}, [alg.h_size - 1], budget=100)
    assert (gen.h_derivs[1], gen.v_derivs[1]) == (("gen", 0), ("ins", 0, 1))
    for replay, i in ((witness_forest, 1), (witness_context, 1)):
        with pytest.raises(ValueError, match=r"^H element 1 is h_gens\[0\] "):
            replay(gen, i)


def _inserts_a_gen(gen, j):
    """Whether the derivation of V element j of a `Generated` reaches an
    element of h_gens."""
    derivs, stack = {"h": gen.h_derivs, "v": gen.v_derivs}, [("v", j)]
    while stack:
        kind, i = stack.pop()
        d = derivs[kind][i]
        if d[0] == "gen":
            return True
        stack.extend(zip(algebra._STEPS[d[0]][0], d[1:]))  # the operands
    return False


@pytest.mark.parametrize(
    "tau, unreachable", [([1, 2, 2], False), ([0, 0, 0], True)], ids=["reachable", "unreachable"]
)
def test_transformation_algebra_contexts_replay_unless_they_insert_an_unreachable_state(
    tau, unreachable
):
    # the tree states generate the reachable states, so only an unreachable
    # state is an h_gens element, and only contexts inserting it have no term
    h_add = [[min(i + j, 2) for j in range(3)] for i in range(3)]
    alg, letters, gen = algebra.transformation_algebra(h_add, 0, {"a": tau})
    m = algebra.Morphism(alg, A, letters)
    inserts = [_inserts_a_gen(gen, j) for j in range(alg.v_size)]
    for j in range(alg.v_size):
        if inserts[j]:
            with pytest.raises(ValueError, match=r"^H element \d+ is h_gens\[\d+\] "):
                witness_context(gen, j)
        else:
            assert m.eval_context(witness_context(gen, j)) == j
    assert sorted(set(inserts)) == ([False, True] if unreachable else [False])


@pytest.mark.parametrize(
    "build, sizes",
    [
        (lambda: ktypes.ktype_algebra("abc", 1), (64, 263, 6)),
        (lambda: ktypes.lt_recognizer("ab", 1, _one_root_type), (13, 37, 8)),
    ],
    ids=["ktype-abc-1", "lt-ab-1"],
)
def test_transformation_algebra_meets_each_tree_state_once(build, sizes, monkeypatch):
    # the additive generators are the tree states alone, not every state
    runs = []

    def counted(ops, letters, h_gens=(), *, budget):
        ops = _Counting(ops)
        runs.append((ops, len(letters), generate(ops, letters, h_gens, budget=budget)))
        return runs[-1][2]

    monkeypatch.setattr(algebra, "generate", counted)
    build()
    [(ops, n_letters, gen)] = runs  # every state is reachable: one closure
    nh, nv = len(gen.h_elems), len(gen.v_elems)
    n_trees = sum(d[0] == "act" for d in gen.h_derivs)
    assert ops.calls == {
        "h_add": nh * n_trees,
        "v_mul": nv * n_letters,
        "act_": nh * n_letters,
        "ins_": nv * n_trees,
    }
    assert (nh, nv, n_trees) == sizes  # ktype-abc-1: 263 * 6 = 1578 ins_ calls


@pytest.mark.parametrize("index", range(len(SYNTACTIC)))
def test_syntactic_representatives_replay_to_their_class(index):
    syn = SYNTACTIC[index]
    m = RECOGNIZERS[index].morphism
    assert set(syn.h_map) == ref_reachable_part(m)[0]
    assert set(syn.v_map) == ref_reachable_part(m)[1]
    for i, s in enumerate(syn.h_terms):
        assert syn.h_map[m.eval_forest(s)] == i
    for j, p in enumerate(syn.v_terms):
        assert syn.v_map[m.eval_context(p)] == j


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("index", range(len(SYNTACTIC)))
def test_pair_closure_matches_reference_and_replays(index, k):
    alpha = SYNTACTIC[index].recognizer.morphism
    beta = ktypes.ktype_algebra(alpha.alphabet, k).morphism
    pa = pair_closure(alpha, beta)
    assert (set(pa.h_pairs), set(pa.v_pairs)) == ref_pair_closure(alpha, beta)
    assert len(set(pa.h_pairs)) == len(pa.h_pairs) and len(set(pa.v_pairs)) == len(pa.v_pairs)
    for i, pair in enumerate(pa.h_pairs):
        s = witness_forest(pa, i)
        assert (alpha.eval_forest(s), beta.eval_forest(s)) == pair
    for j, pair in enumerate(pa.v_pairs):
        p = witness_context(pa, j)
        assert (alpha.eval_context(p), beta.eval_context(p)) == pair


@pytest.mark.parametrize("case", range(5))
def test_dct_backward_matches_reference_and_replays(case):
    dc, delta = list(_factorizations())[case]
    alpha = dc.pa.alpha
    assert dct_backward(dc, delta) == ref_dct_backward_covering(dc, delta)
    letters = {a: (delta.letters[a], alpha.letters[a]) for a in alpha.alphabet}
    gen = generate(PairOps(delta.ops(), alpha.algebra), letters, budget=200000)
    assert (set(gen.h_elems), set(gen.v_elems)) == ref_dct_closure(delta, alpha)
    for i, pair in enumerate(gen.h_elems):
        s = witness_forest(gen, i)
        assert (delta.eval_forest(s), alpha.eval_forest(s)) == pair
    for j, pair in enumerate(gen.v_elems):
        p = witness_context(gen, j)
        assert (delta.eval_context(p), alpha.eval_context(p)) == pair


def test_factorization_error_witness_separates_alpha_under_equal_delta():
    # parity is invisible to depth-0 root types, so a delta constant on the
    # left cannot determine alpha
    rec = syntactic_algebra(samples.parity_a(A)).recognizer
    ka = ktypes.ktype_algebra(A, 0)
    dc = derived_category(pair_closure(rec.morphism, ka.morphism))
    delta = _trivial_delta(rec, ka)
    with pytest.raises(FactorizationError) as exc:
        dct_backward(dc, delta)
    s, t = exc.value.witness
    assert delta.eval_forest(s) == delta.eval_forest(t)
    assert rec.morphism.eval_forest(s) != rec.morphism.eval_forest(t)


def test_tm_to_division_matches_reference():
    for target, ambient, w in _tm_cases():
        assert tm_to_division(target, ambient, w) == ref_tm_to_division(target, ambient, w)


def _division_cases():
    """(target, ambient) pairs within the search caps, with and without a
    division."""
    t, orr, z2 = samples.trivial_algebra(), samples.flat_or(), samples.flat_z2()
    for amb in [orr, z2, samples.flat_max3()]:
        yield t, amb
    yield z2, orr
    yield orr, z2
    yield z2, z2
    yield orr, samples.flat_trunc3()
    yield samples.flat_trunc3(), samples.flat_max3()
    yield orr, direct_product(orr, z2)[0]


@pytest.mark.parametrize("case", range(9))
def test_search_division_matches_reference(case):
    target, ambient = list(_division_cases())[case]
    assert search_division(target, ambient) == ref_search_division(target, ambient)


def test_search_division_cases_find_and_miss():
    found = [search_division(target, ambient) is not None for target, ambient in _division_cases()]
    assert any(found) and not all(found)


def _forward_cases():
    """Derived categories of locally testable languages with their canonical
    flat covers, which verify."""
    factorizations = list(_factorizations())
    # the third has the second's category; the fifth's cover exceeds its cap
    for dc, _ in (factorizations[i] for i in (0, 1, 3)):
        yield dc, canonical_flat_cover(dc.category)[0]
    # a 2-local language over {a} at depth 1
    pa = pair_closure(SYNTACTIC[7].recognizer.morphism, ktypes.ktype_algebra(A, 1).morphism)
    dc = derived_category(pa)
    yield dc, canonical_flat_cover(dc.category)[0]


def test_dct_forward_matches_reference():
    for dc, cov in _forward_cases():
        witness, _ = dct_forward(dc, cov)
        assert (witness.k_elements, witness.psi, witness.hat) == ref_dct_forward(dc, cov)


def test_generated_subalgebra_matches_reference():
    algebras = [samples.flat_trunc3(), samples.flat_z2(), samples.flat_diamond()]
    algebras += [syn.algebra for syn in SYNTACTIC]
    algebras.append(direct_product(samples.flat_or(), samples.flat_z2())[0])
    for alg in algebras:
        for h_gens in [(), (alg.h_size - 1,)]:
            for n in range(3):
                for v_gens in itertools.combinations(range(alg.v_size), n):
                    assert generated_subalgebra(alg, h_gens, v_gens) == ref_generated_subalgebra(
                        alg, h_gens, v_gens
                    )


def test_wreath_generated_matches_reference():
    outer, inner = samples.flat_or(), samples.flat_or()
    full = wreath(outer, inner)
    cases = [(outer, inner, list(full.v_pairs)), (outer, inner, list(full.v_pairs)[:2])]
    cases.append(_wreath_letters("ab", 1))
    for outer, inner, gens in cases:
        assert wreath_generated(outer, inner, gens) == ref_wreath_generated(outer, inner, gens)


@pytest.mark.parametrize("k", [1, 2])
def test_wreath_generated_quotient_over_one_letter(k):
    outer, inner, gens = _wreath_letters("a", k)
    with pytest.raises(AlgebraLawError):
        ref_wreath_generated(outer, inner, gens)
    wp = wreath_generated(outer, inner, gens)
    h_set, v_set = ref_wreath_closure(outer, inner, gens)
    assert set(wp.h_pairs) == h_set
    assert set(wp.v_index) == v_set
    assert len(wp.v_pairs) < len(v_set)
    ops = WreathOps(outer, inner)
    for u, cls in wp.v_index.items():
        rep = wp.v_pairs[cls]
        # each class is represented by its smallest pair, which acts alike
        assert rep <= u
        assert all(ops.act_(x, u) == ops.act_(x, rep) for x in wp.h_pairs)
    assert wp.pi_check()


@pytest.mark.parametrize("k", [1, 2])
def test_lt_wreath_recognizer_over_one_letter(k):
    def pred(nodes, roots):
        renders = sorted(ktypes.type_render(t) for t in nodes | roots)
        return len(renders) % 2 == 1 or "a(a)" in renders

    built = decide.lt_wreath_recognizer("a", k, pred)
    assert built.pi_ok
    for s in enumerate_forests(A, 6):
        assert built.recognizer.accepts(s) == pred(*ktypes.klt_signature(s, k))


# --- budgets -----------------------------------------------------------------------


def _budget_stats(call):
    with pytest.raises(BudgetError) as exc:
        call()
    return exc.value.stats


def test_every_closure_raises_the_engine_budget_error():
    """Every closure on `generate` raises its BudgetError with the stats
    {h, v, budget}: dct_forward too, whose budget counts the horizontal and
    the vertical elements of its closure, not K alone."""
    stats_keys = {"h", "v", "budget"}
    syn = SYNTACTIC[5]  # a-has-b-child
    beta = ktypes.ktype_algebra(syn.recognizer.alphabet, 1).morphism
    factorizations = list(_factorizations())
    dc, delta = factorizations[1]
    dc0 = factorizations[0][0]
    cov0, _ = canonical_flat_cover(dc0.category)
    target, ambient, w = list(_tm_cases())[1]
    outer, inner, gens = _wreath_letters("ab", 1)
    alg = syn.algebra
    calls = [
        lambda: pair_closure(syn.recognizer.morphism, beta, budget=5),
        lambda: dct_backward(dc, delta, budget=3),
        lambda: dct_forward(dc0, cov0, budget=3),
        lambda: tm_to_division(target, ambient, w, budget=3),
        lambda: wreath_generated(outer, inner, gens, budget=5),
        # syntactic_algebra and generated_subalgebra close a finite table and
        # pass |H| + |V|, which always fits; the engine raises the same way
        lambda: generate(alg, syn.recognizer.morphism.letters, budget=alg.h_size - 1),
        lambda: generate(alg, {}, range(alg.h_size), budget=alg.h_size),
    ]
    for call in calls:
        stats = _budget_stats(call)
        assert set(stats) == stats_keys
        assert stats["h"] + stats["v"] == stats["budget"] + 1
