import dataclasses
import itertools

import pytest

from forestalg import samples
from forestalg.algebra import (
    AlgebraLawError,
    BudgetError,
    DivisionWitness,
    ForestAlgebra,
    Morphism,
    Recognizer,
    TmDivisionWitness,
    algebra_from_json,
    algebra_to_json,
    direct_product,
    division_to_tm,
    flat_algebra,
    generated_subalgebra,
    recognizer_from_json,
    recognizer_to_json,
    search_division,
    syntactic_algebra,
    tm_to_division,
    transformation_algebra,
    validate_algebra,
    verify_division,
    verify_tm_division,
    wreath,
    wreath_generated,
)
from forestalg.terms import enumerate_forests, make_alphabet, parse_context, parse_forest

AB = make_alphabet("ab")


def scan_laws(h_add, zero, v_mul, one, act, ins):
    """Independent direct law scan; collects every violated law name.

    Written as flat quantifier loops on the raw tables, on purpose distinct
    from the validator's code path.
    """
    bad = set()
    hn, vn = len(h_add), len(v_mul)
    hr, vr = range(hn), range(vn)
    for x, y in itertools.product(hr, hr):
        if h_add[x][y] != h_add[y][x]:
            bad.add("h-commutativity")
    for x, y, z in itertools.product(hr, hr, hr):
        if h_add[h_add[x][y]][z] != h_add[x][h_add[y][z]]:
            bad.add("h-associativity")
    for x in hr:
        if h_add[zero][x] != x or h_add[x][zero] != x:
            bad.add("h-identity")
    for x, y, z in itertools.product(vr, vr, vr):
        if v_mul[v_mul[x][y]][z] != v_mul[x][v_mul[y][z]]:
            bad.add("v-associativity")
    for x in vr:
        if v_mul[one][x] != x or v_mul[x][one] != x:
            bad.add("v-identity")
    for h in hr:
        if act[h][one] != h:
            bad.add("action-identity")
    for h, v1, v2 in itertools.product(hr, vr, vr):
        if act[act[h][v1]][v2] != act[h][v_mul[v1][v2]]:
            bad.add("action-composition")
    for v1, v2 in itertools.combinations(vr, 2):
        if all(act[h][v1] == act[h][v2] for h in hr):
            bad.add("faithfulness")
    if ins is not None:
        for v, h, g in itertools.product(vr, hr, hr):
            if act[g][ins[v][h]] != h_add[act[g][v]][h]:
                bad.add("insertion")
    else:
        for v, h in itertools.product(vr, hr):
            wanted = [h_add[act[g][v]][h] for g in hr]
            if not any(all(act[g][w] == wanted[g] for g in hr) for w in vr):
                bad.add("insertion-missing")
    return bad


# --- validation --------------------------------------------------------------


def test_flat_or_valid():
    alg = samples.flat_or()
    assert alg.h_size == 2 and alg.v_size == 2
    assert alg.h_idempotent()
    assert scan_laws(alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins) == set()


def test_constant_action_unfaithful():
    t = [[0, 1], [1, 1]]
    act = [[0, 0], [1, 1]]  # act(h, v) = h for every v
    with pytest.raises(AlgebraLawError) as e:
        validate_algebra(t, 0, t, 0, act)
    assert e.value.law == "faithfulness"
    assert "faithfulness" in scan_laws(t, 0, t, 0, act, None)


def test_parity_tables_valid():
    alg = samples.flat_z2()
    assert not alg.h_idempotent()
    assert alg.h_nonidempotent_witness() == 1
    assert scan_laws(alg.add, alg.zero, alg.mul, alg.one, alg.act, alg.ins) == set()


def test_noncommutative_h_rejected():
    # left projection is associative but not commutative
    t = [[0, 0], [1, 1]]
    with pytest.raises(AlgebraLawError) as e:
        validate_algebra(t, 0, [[0, 1], [1, 0]], 0, [[0, 0], [1, 1]])
    assert "commutativity" in e.value.law or "identity" in e.value.law


def test_broken_associativity_rejected():
    t = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]  # last entry breaks the group
    with pytest.raises(AlgebraLawError):
        validate_algebra(t, 0, t, 0, t, t)
    assert scan_laws(t, 0, t, 0, t, t)


@pytest.mark.parametrize("unit", [2, -1])
def test_unit_out_of_range_rejected(unit):
    # a unit outside the table raised an IndexError, or wrapped around
    t = samples.flat_or().add
    with pytest.raises(AlgebraLawError) as e:
        validate_algebra(t, unit, t, 0, t, t)
    assert (e.value.law, e.value.where) == ("h-identity", (unit,))


def test_ins_derived_when_absent():
    base = samples.flat_or()
    again = validate_algebra(base.add, base.zero, base.mul, base.one, base.act)
    assert again.ins == base.ins


def test_wrong_ins_rejected():
    base = samples.flat_or()
    bad_ins = [[0, 0], [0, 0]]
    with pytest.raises(AlgebraLawError) as e:
        validate_algebra(base.add, base.zero, base.mul, base.one, base.act, bad_ins)
    assert e.value.law == "insertion"


# (path, value, law, witness): an entry of flat-or's JSON that is not an
# integer.  Before the reader checked the types, the zeros and the act row
# raised a TypeError, and the others were read as integers ("1" as 1, 1.5
# cut to 1, False as 0) and passed.  The last five give a table that is not
# square or not |H| x |V|, and an action by one that moves h0
MALFORMED_JSON = [
    (("h", "zero"), "0", "h-shape", ()),
    (("h", "zero"), None, "h-shape", ()),
    (("v", "mul", 1, 0), "1", "v-shape", (1, 0)),
    (("act", 1), 1, "action-shape", (1,)),
    (("h", "add", 0, 1), 1.5, "h-shape", (0, 1)),
    (("ins", 0, 0), False, "insertion-shape", (0, 0)),
    (("h", "add", 1), [1], "h-shape", ()),
    (("v", "mul", 0), [0, 1, 1], "v-shape", ()),
    (("act", 1), [1], "action-shape", ()),
    (("ins", 0), [0, 1, 1], "insertion-shape", ()),
    (("act", 0, 0), 1, "action-identity", (0,)),
]


@pytest.mark.parametrize(
    "path,value,law,where",
    MALFORMED_JSON,
    ids=["/".join(map(str, path)) + "=%r" % (value,) for path, value, *_ in MALFORMED_JSON],
)
def test_malformed_json_raises_the_shape_law(path, value, law, where):
    data = algebra_to_json(samples.flat_or())
    *inner, last = path
    entry = data
    for key in inner:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(AlgebraLawError) as got:
        algebra_from_json(data)
    assert (got.value.law, got.value.where) == (law, where)


# a recognizer's own entries that are not integers: a "1" raised a TypeError,
# and a letter of 1.0 or True passed as V element 1
MALFORMED_RECOGNIZER_JSON = [
    (("letters", "a"), "1", "letters-shape", ("a",)),
    (("letters", "a"), 1.0, "letters-shape", ("a",)),
    (("letters", "a"), True, "letters-shape", ("a",)),
    (("accept", 0), "1", "accept-shape", (0,)),
    (("accept", 0), 1.0, "accept-shape", (0,)),
]


@pytest.mark.parametrize(
    "path,value,law,where",
    MALFORMED_RECOGNIZER_JSON,
    ids=["/".join(map(str, path)) + "=%r" % (value,) for path, value, *_ in MALFORMED_RECOGNIZER_JSON],
)
def test_malformed_recognizer_json_raises_the_shape_law(path, value, law, where):
    data = recognizer_to_json(samples.contains_a())
    key, index = path
    data[key][index] = value
    with pytest.raises(AlgebraLawError) as got:
        recognizer_from_json(data)
    assert (got.value.law, got.value.where) == (law, where)


def test_json_round_trip():
    for alg in [samples.flat_or(), samples.flat_trunc3(), samples.flat_z3()]:
        assert algebra_from_json(algebra_to_json(alg)) == alg
    rec = samples.contains_a()
    rec2 = recognizer_from_json(recognizer_to_json(rec))
    assert rec2.accept == rec.accept
    assert rec2.morphism.letters == rec.morphism.letters


# --- evaluation and acceptance -----------------------------------------------


def test_eval_contains_a():
    rec = samples.contains_a()
    m = rec.morphism
    assert m.eval_forest(parse_forest("b+b(b)", AB)) == 0
    assert m.eval_forest(parse_forest("b(a)+b", AB)) == 1
    assert m.eval_forest(parse_forest("0", AB)) == 0
    assert rec.accepts(parse_forest("a", AB))
    assert not rec.accepts(parse_forest("0", AB))


def test_eval_parity():
    rec = samples.parity_a()
    assert rec.accepts(parse_forest("a+a", AB))
    assert not rec.accepts(parse_forest("a+a+a", AB))
    assert rec.accepts(parse_forest("0", AB))


def test_eval_universal_property_enumerated():
    # eval is a homomorphism: sums, substitution, composition
    rec = samples.a_has_b_child()
    m = rec.morphism
    alg = m.algebra
    fs = list(enumerate_forests(AB, 3))
    cs = [parse_context(t, AB) for t in ["[]", "a([])", "b([]+a)", "a(b([]))+b"]]
    for s in fs:
        for t in fs:
            assert m.eval_forest(s + t) == alg.add[m.eval_forest(s)][m.eval_forest(t)]
        for p in cs:
            from forestalg.terms import apply_context

            assert m.eval_forest(apply_context(s, p)) == alg.act[m.eval_forest(s)][m.eval_context(p)]
    from forestalg.terms import compose

    for p in cs:
        for q in cs:
            assert m.eval_context(compose(p, q)) == alg.mul[m.eval_context(p)][m.eval_context(q)]


# --- syntactic algebra ---------------------------------------------------------


def test_syntactic_contains_a_redundant():
    rec = samples.contains_a_redundant()
    syn = syntactic_algebra(rec)
    assert syn.algebra.h_size == 2
    assert syn.algebra.v_size == 2
    # language equality on enumerated forests
    for s in enumerate_forests(AB, 4):
        assert rec.accepts(s) == syn.recognizer.accepts(s)


def test_syntactic_empty_language():
    syn = syntactic_algebra(samples.empty_language())
    assert syn.algebra.h_size == 1 and syn.algebra.v_size == 1
    syn2 = syntactic_algebra(samples.universal_language())
    assert syn2.algebra.h_size == 1 and syn2.algebra.v_size == 1


def test_syntactic_idempotent():
    for rec in [samples.contains_a_redundant(), samples.a_has_b_child(), samples.parity_a()]:
        syn = syntactic_algebra(rec)
        twice = syntactic_algebra(syn.recognizer)
        assert (twice.algebra.h_size, twice.algebra.v_size) == (
            syn.algebra.h_size,
            syn.algebra.v_size,
        )


def test_syntactic_representative_terms():
    syn = syntactic_algebra(samples.contains_a_redundant())
    m = syn.recognizer.morphism
    for i, term in enumerate(syn.h_terms):
        assert m.eval_forest(term) == i
    for i, ctx in enumerate(syn.v_terms):
        assert m.eval_context(ctx) == i


# --- flat algebras and products ------------------------------------------------


def test_flat_algebra_examples():
    assert samples.flat_or().h_idempotent()
    assert not samples.flat_z2().h_idempotent()
    assert samples.trivial_algebra().h_size == 1
    with pytest.raises(AlgebraLawError):
        flat_algebra([[0, 0], [1, 1]], 0)  # not commutative


def test_direct_product():
    prod, hs, vs = direct_product(samples.flat_or(), samples.flat_z2())
    assert prod.h_size == 4 and prod.v_size == 4
    i = hs.index((1, 1))
    j = hs.index((1, 0))
    assert prod.add[i][i] == hs.index((1, 0))
    assert prod.add[i][j] == hs.index((1, 1))


# --- wreath products -------------------------------------------------------------


def test_wreath_trivial_left_factor_is_isomorphic():
    a = samples.flat_trunc3()
    wp = wreath(samples.trivial_algebra(), a)
    assert wp.algebra.h_size == a.h_size
    assert wp.algebra.v_size == a.v_size
    # the inner projection is a bijective homomorphism here
    assert sorted(wp.pi_h) == list(range(a.h_size))
    assert sorted(wp.pi_v) == list(range(a.v_size))
    assert wp.pi_check()


def test_wreath_or_or_sizes():
    wp = wreath(samples.flat_or(), samples.flat_or())
    assert wp.algebra.h_size == 4
    # function tables 2^2 times inner V of size 2, all faithful
    assert wp.algebra.v_size == 8
    assert wp.pi_check()


def test_wreath_action_definitional():
    outer = samples.flat_or()
    inner = samples.flat_or()
    wp = wreath(outer, inner)
    alg = wp.algebra
    for hi, (h2, h1) in enumerate(wp.h_pairs):
        for vi, (f, v1) in enumerate(wp.v_pairs):
            expect = (outer.add[h2][f[h1]], inner.act[h1][v1])
            assert wp.h_pairs[alg.act[hi][vi]] == expect


def test_wreath_of_an_unfaithful_factor_fails_faithfulness():
    # V = Z2 acting trivially on a one-element H: every law but faithfulness
    # holds, and the wreath's two vertical pairs act alike
    inner = ForestAlgebra(1, ((0,),), 0, 2, ((0, 1), (1, 0)), 0, ((0, 0),), ((0,), (1,)))
    with pytest.raises(AlgebraLawError) as got:
        wreath(samples.trivial_algebra(), inner)
    assert (got.value.law, got.value.where) == ("faithfulness", (0, 1))


def test_wreath_budget():
    with pytest.raises(BudgetError):
        wreath(samples.flat_max3(), samples.flat_diamond(), budget=10)


def test_wreath_generated_matches_full_on_small_case():
    outer, inner = samples.flat_or(), samples.flat_or()
    full = wreath(outer, inner)
    gen = wreath_generated(outer, inner, v_gens=list(full.v_pairs))
    assert gen.algebra.h_size == full.algebra.h_size
    assert gen.algebra.v_size == full.algebra.v_size
    assert gen.pi_check()


# --- generated subalgebras --------------------------------------------------------


def test_generated_subalgebra_identity_gens():
    a = samples.flat_trunc3()
    sub, h_embed, v_embed = generated_subalgebra(a)
    assert h_embed == (0,) and v_embed == (0,)


def test_generated_subalgebra_full():
    a = samples.flat_trunc3()
    sub, h_embed, v_embed = generated_subalgebra(a, range(a.h_size), range(a.v_size))
    assert len(h_embed) == a.h_size and len(v_embed) == a.v_size


def test_generated_subalgebra_z2_from_one():
    a = samples.flat_z2()
    sub, h_embed, v_embed = generated_subalgebra(a, h_gens=[1])
    assert h_embed == (0, 1) and v_embed == (0, 1)


# --- transformation algebra -------------------------------------------------------


def test_transformation_algebra_a_has_b_child():
    rec = samples.a_has_b_child()
    assert rec.accepts(parse_forest("a(b)", AB))
    assert rec.accepts(parse_forest("b(a(b+a))", AB))
    assert not rec.accepts(parse_forest("b(a)", AB))
    assert not rec.accepts(parse_forest("a+b", AB))
    assert not rec.accepts(parse_forest("a(a(a))", AB))
    assert rec.accepts(parse_forest("a(a(b))", AB))


# --- division -----------------------------------------------------------------------


def identity_witness(alg):
    return DivisionWitness(
        tuple(range(alg.h_size)),
        tuple(range(alg.v_size)),
        {h: h for h in range(alg.h_size)},
        {v: v for v in range(alg.v_size)},
    )


def test_identity_division():
    a = samples.flat_trunc3()
    w = identity_witness(a)
    assert verify_division(a, a, w).ok
    tm = division_to_tm(a, a, w)
    assert tm.k_elements == tuple(range(a.h_size))
    assert all(tm.psi[h] == h for h in range(a.h_size))
    assert all(tm.hat[v] == v for v in range(a.v_size))
    assert verify_tm_division(a, a, tm).ok


def test_projection_division_or_into_product():
    orr = samples.flat_or()
    prod, hs, vs = direct_product(orr, samples.flat_z2())
    w = DivisionWitness(
        tuple(range(prod.h_size)),
        tuple(range(prod.v_size)),
        {i: hs[i][0] for i in range(prod.h_size)},
        {i: vs[i][0] for i in range(prod.v_size)},
    )
    assert verify_division(orr, prod, w).ok
    tm = division_to_tm(orr, prod, w)
    assert verify_tm_division(orr, prod, tm).ok


def test_invalid_psi_rejected():
    a = samples.flat_z2()
    tm = TmDivisionWitness((0, 1), {0: 0, 1: 1}, {0: 0, 1: 1})
    assert verify_tm_division(a, a, tm).ok
    bad = TmDivisionWitness((0, 1), {0: 1, 1: 0}, {0: 0, 1: 1})  # psi not a homomorphism
    rep = verify_tm_division(a, a, bad)
    assert not rep.ok


# (target, ambient, K, psi, hat, the first violation): z2 divides itself by
# the identity witness, and each row breaks one clause of verify_tm_division
TM_BROKEN = [
    ("flat_z2", "flat_z2", (1,), {1: 0}, {0: 0, 1: 1}, ("k-zero", ())),
    ("flat_z2", "flat_z3", (0, 1), {0: 0, 1: 1}, {0: 0, 1: 1}, ("k-add-closed", (1, 1))),
    ("flat_z2", "flat_z2", (0, 1), {0: 0}, {0: 0, 1: 1}, ("psi-domain", ())),
    ("flat_z2", "flat_z2", (0, 1), {0: 0, 1: 0}, {0: 0, 1: 1}, ("psi-surjective", ())),
    ("flat_z2", "flat_z2", (0, 1), {0: 0, 1: 1}, {0: 0}, ("hat-domain", ())),
    ("trivial_algebra", "flat_z3", (0,), {0: 0}, {0: 1}, ("k-hat-closed", (0, 0))),
    ("flat_z2", "flat_z2", (0, 1), {0: 0, 1: 1}, {0: 1, 1: 0}, ("psi-equivariance", (0, 0))),
]


@pytest.mark.parametrize("target, ambient, k, psi, hat, first", TM_BROKEN, ids=[r[-1][0] for r in TM_BROKEN])
def test_broken_tm_division_reports_its_clause(target, ambient, k, psi, hat, first):
    target, ambient = getattr(samples, target)(), getattr(samples, ambient)()
    assert verify_tm_division(target, ambient, TmDivisionWitness(k, psi, hat)).violations[0] == first


def test_tm_round_trip():
    orr = samples.flat_or()
    prod, hs, vs = direct_product(orr, samples.flat_z2())
    w = DivisionWitness(
        tuple(range(prod.h_size)),
        tuple(range(prod.v_size)),
        {i: hs[i][0] for i in range(prod.h_size)},
        {i: vs[i][0] for i in range(prod.v_size)},
    )
    tm = division_to_tm(orr, prod, w)
    back = tm_to_division(orr, prod, tm)
    assert verify_division(orr, prod, back).ok


def test_search_division_trivial_into_anything():
    t = samples.trivial_algebra()
    for amb in [samples.flat_or(), samples.flat_z2(), samples.flat_max3()]:
        w = search_division(t, amb)
        assert w is not None
        assert verify_division(t, amb, w).ok


def test_search_division_z2_not_into_or():
    assert search_division(samples.flat_z2(), samples.flat_or()) is None


def test_search_division_or_into_product():
    orr = samples.flat_or()
    prod, _, _ = direct_product(orr, samples.flat_z2())
    with pytest.raises(BudgetError):
        search_division(orr, prod, h_cap=2)
    w = search_division(orr, prod, h_cap=8, v_cap=12)
    assert w is not None
    assert verify_division(orr, prod, w).ok


def test_search_division_caps():
    big = samples.flat_subsets(4)
    with pytest.raises(BudgetError):
        search_division(samples.flat_or(), big)


# --- failure reports of verify_division and pi_check -------------------------------


def _half_projection():
    """flat_or divides flat_or x flat_z2 through the elements whose z2
    coordinate is 0, a proper subalgebra, mapped to their first coordinate.
    In the product, index 2i + j is the pair (i, j) on both sides."""
    orr = samples.flat_or()
    prod, hs, vs = direct_product(orr, samples.flat_z2())
    hc = tuple(i for i in range(prod.h_size) if hs[i][1] == 0)
    vc = tuple(i for i in range(prod.v_size) if vs[i][1] == 0)
    w = DivisionWitness(hc, vc, {i: hs[i][0] for i in hc}, {i: vs[i][0] for i in vc})
    return orr, prod, w


def test_division_reports_on_changed_maps():
    orr, prod, w = _half_projection()
    assert verify_division(orr, prod, w).ok
    expected = {
        ("h", 0): [("h-map-surjective", ()), ("h-map-zero", ()), ("map-ins", (0, 0))],
        ("h", 2): [
            ("h-map-surjective", ()), ("map-act", (0, 2)), ("map-act", (2, 2)),
            ("map-ins", (0, 2)),
        ],
        ("v", 0): [("v-map-surjective", ()), ("v-map-one", ()), ("map-act", (0, 0))],
        ("v", 2): [
            ("v-map-surjective", ()), ("map-act", (0, 2)), ("map-ins", (0, 2)),
            ("map-ins", (2, 2)),
        ],
    }
    got = {}
    for side, field_name in (("h", "h_map"), ("v", "v_map")):
        for x in getattr(w, field_name):
            changed = dict(getattr(w, field_name))
            changed[x] = 1 - changed[x]
            rep = verify_division(orr, prod, dataclasses.replace(w, **{field_name: changed}))
            assert not rep.ok
            got[side, x] = rep.violations
    assert got == expected


def test_division_reports_on_grown_and_shrunk_carriers():
    orr, prod, w = _half_projection()
    expected = {
        ("h", 0): [("h-carrier-zero", ())],
        ("h", 1): [
            ("h-carrier-add-closed", (2, 1)), ("h-carrier-add-closed", (1, 2)),
            ("h-carrier-act-closed", (1, 2)), ("v-carrier-ins-closed", (0, 1)),
            ("v-carrier-ins-closed", (2, 1)),
        ],
        ("h", 2): [("h-carrier-act-closed", (0, 2))],
        ("h", 3): [("v-carrier-ins-closed", (0, 3)), ("v-carrier-ins-closed", (2, 3))],
        ("v", 0): [("v-carrier-one", ())],
        ("v", 1): [
            ("h-carrier-act-closed", (0, 1)), ("h-carrier-act-closed", (2, 1)),
            ("v-carrier-mul-closed", (2, 1)), ("v-carrier-mul-closed", (1, 2)),
            ("v-carrier-ins-closed", (1, 2)),
        ],
        ("v", 2): [("v-carrier-ins-closed", (0, 2))],
        ("v", 3): [("h-carrier-act-closed", (0, 3)), ("h-carrier-act-closed", (2, 3))],
    }
    got = {}
    for side, field_name in (("h", "h_carrier"), ("v", "v_carrier")):
        carrier = getattr(w, field_name)
        for x in range(4):
            # grow by an element outside the carrier, or shrink by one inside
            changed = tuple(y for y in carrier if y != x) if x in carrier else carrier + (x,)
            rep = verify_division(orr, prod, dataclasses.replace(w, **{field_name: changed}))
            assert not rep.ok
            got[side, x] = rep.violations
    assert got == expected


@pytest.mark.parametrize(
    "outer, inner",
    [
        (samples.flat_or(), samples.flat_or()),
        (samples.trivial_algebra(), samples.flat_trunc3()),
        (samples.flat_or(), samples.flat_z2()),
    ],
)
def test_pi_check_rejects_every_changed_projection_entry(outer, inner):
    wp = wreath(outer, inner)
    assert wp.pi_check()
    for name, size in (("pi_h", inner.h_size), ("pi_v", inner.v_size)):
        pi = getattr(wp, name)
        for i in range(len(pi)):
            for d in range(1, size):
                changed = pi[:i] + ((pi[i] + d) % size,) + pi[i + 1:]
                assert not dataclasses.replace(wp, **{name: changed}).pi_check(), (name, i, d)
