import dataclasses
import time

import numpy as np
import pytest

from derived_identities import check_derived_identities, eval_forest_diagram_alt
from forestalg import derived, ktypes, samples
from forestalg.algebra import AlgebraLawError, syntactic_algebra, validate_algebra
from forestalg.category import (
    CategoryLawError,
    DiagramError,
    _Enumerator,
    brute_force_global_ic,
    canonical_flat_cover,
    category_from_json,
    category_to_json,
    check_identities,
    diagram_rootsum,
    diagram_support,
    dnode,
    eval_context_diagram,
    eval_forest_diagram,
    hleaf,
    oleaf,
    one_object_category,
    render_diagram,
    validate_category,
    verify_covering,
)


def or_cat():
    return one_object_category(samples.flat_or())


def z2_cat():
    return one_object_category(samples.flat_z2())


# --- validation ---------------------------------------------------------------


def test_one_object_category_from_flat_or_is_valid():
    cat = or_cat()
    assert cat.obj_size == 1
    assert cat.harr_size == 2 and cat.arr_size == 2
    assert validate_category(cat) is cat


def test_one_object_category_matches_algebra_tables():
    alg = samples.flat_trunc3()
    cat = one_object_category(alg)
    for h in range(alg.h_size):
        for v in range(alg.v_size):
            assert cat.act_on(h, v) == alg.act[h][v]
            assert cat.insert(v, h) == alg.ins[v][h]


def test_hand_built_categories_validate():
    samples.interval_category()
    samples.z2_fiber_category()


def test_broken_composition_rejected():
    cat = samples.interval_category()
    bad = [list(row) for row in cat.comp]
    bad[0][cat.slot[2]] = 0  # id0 . u = id0 breaks endpoints
    with pytest.raises(CategoryLawError):
        validate_category(dataclasses.replace(cat, comp=tuple(map(tuple, bad))))


def test_insertion_law_rejects_an_insertion_that_adds_nothing():
    # ins(u, d) = u keeps the endpoints of flat_or's one object and obeys
    # f.ins(u, d) = ins(f.u, d) and ins(ins(u, c), d) = ins(u, c + d), but
    # 0.ins(0, 1) = 0.0 = 0 while 0.0 + 1 = 1, as validate_algebra reports too
    cat = or_cat()
    bad = dataclasses.replace(cat, ins=tuple((u,) * cat.harr_size for u in range(cat.arr_size)))
    alg = samples.flat_or()
    with pytest.raises(AlgebraLawError) as got:
        validate_algebra(alg.add, alg.zero, alg.mul, alg.one, alg.act, bad.ins)
    assert (got.value.law, got.value.where) == ("insertion", (0, 1, 0))
    for read in (validate_category, lambda c: category_from_json(category_to_json(c))):
        with pytest.raises(CategoryLawError) as got:
            read(bad)
        assert (got.value.law, got.value.where) == ("insertion", (0, 1, 0))


def test_json_round_trip():
    for cat in [or_cat(), samples.interval_category(), samples.z2_fiber_category()]:
        again = category_from_json(category_to_json(cat))
        assert again == cat


class _Deleted:
    def __repr__(self):
        return "deleted"


DELETED = _Deleted()

# (path, value, law, witness): the entry of the interval category's JSON at
# path set to value, or deleted; the range rows each raised an IndexError,
# reported a bogus law, or passed, before the range checks, the next four
# pin the laws of the end map and the identities (a half-arrow end missing,
# end(identity) = 1, an object no half-arrow ends at and an identity that
# leaves its object), and the last three pin the domain laws, which only the
# keyed reader can see
CORRUPT_JSON = [
    (("objects", "add", 0, 1), 2, "objects-shape", (2,)),
    (("objects", "zero"), 2, "objects-identity", (2,)),
    (("halfarrows", "add", 0, 1), 2, "halfarrows-shape", (2,)),
    (("halfarrows", "add", 0, 1), -1, "halfarrows-shape", (-1,)),
    (("halfarrows", "one"), -1, "halfarrows-identity", (-1,)),
    (("halfarrows", "end", 1), 2, "end-shape", (1,)),
    (("halfarrows", "end", 1), -1, "end-shape", (1,)),
    (("identity", 1), 3, "identity-shape", (1,)),
    (("halfarrows", "end", 1), DELETED, "end-shape", ()),
    (("halfarrows", "end", 0), 1, "end-homomorphism", (0,)),
    (("halfarrows", "end", 1), 0, "end-onto", (1,)),
    (("identity", 1), 2, "identity-endpoints", (1,)),
    (("comp", "0,2"), 3, "composition-shape", (0, 2)),
    (("comp", "3,1"), 1, "composition-shape", (3, 1)),
    (("comp", "-1,0"), 0, "composition-shape", (-1, 0)),
    (("act", "0,2"), 2, "action-shape", (0, 2)),
    (("act", "2,0"), 0, "action-shape", (2, 0)),
    (("ins", "2,1"), -1, "insertion-shape", (2, 1)),
    (("ins", "0,2"), 0, "insertion-shape", (0, 2)),
    (("comp", "1,0"), 0, "composition-domain", (1, 0)),
    (("act", "0,2"), DELETED, "action-domain", (0, 2)),
    (("ins", "1,0"), DELETED, "insertion-total", (1, 0)),
]

# entries that are not integers, and a key that is not two integers: before
# the reader checked the types, each raised a TypeError or a ValueError, but
# the True, read as 1, passed
MALFORMED_JSON = [
    (("halfarrows", "end", 1), "1", "end-shape", (1,)),
    (("halfarrows", "end", 1), None, "end-shape", (1,)),
    (("halfarrows", "add", 0, 1), 1.5, "halfarrows-shape", (0, 1)),
    (("objects", "zero"), "0", "objects-shape", ()),
    (("arrows", 2, "end"), True, "arrow-endpoints", (2,)),
    (("comp", "0,0,1"), 0, "composition-shape", ("0,0,1",)),
    (("comp", "a,b"), 0, "composition-shape", ("a,b",)),
    (("act", "0,2"), 1.0, "action-shape", (0, 2)),
]


@pytest.mark.parametrize(
    "path,value,law,where",
    CORRUPT_JSON + MALFORMED_JSON,
    ids=["/".join(map(str, path)) + "=%r" % (value,) for path, value, *_ in CORRUPT_JSON + MALFORMED_JSON],
)
def test_corrupted_json_raises_the_law(path, value, law, where):
    data = category_to_json(samples.interval_category())
    *inner, last = path
    entry = data
    for key in inner:
        entry = entry[key]
    if value is DELETED:
        del entry[last]
    else:
        entry[last] = value
    with pytest.raises(CategoryLawError) as got:
        category_from_json(data)
    assert (got.value.law, got.value.where) == (law, where)


def test_category_and_algebra_laws_share_one_error():
    assert CategoryLawError is AlgebraLawError


# --- diagram evaluation ---------------------------------------------------------


def test_single_leaf_evaluates_to_itself():
    cat = or_cat()
    for c in range(cat.harr_size):
        assert eval_forest_diagram(cat, (hleaf(c),)) == c


def test_empty_diagram_evaluates_to_identity():
    cat = or_cat()
    assert eval_forest_diagram(cat, ()) == cat.harr_one


def test_support_and_rootsum():
    cat = samples.interval_category()
    d = (dnode(2, (hleaf(0),)), hleaf(1))  # u over e0, plus e1
    assert diagram_support(cat, d) == frozenset({("a", 2), ("h", 0), ("h", 1)})
    assert diagram_rootsum(cat, d) == 1
    assert eval_forest_diagram(cat, d) == 1


def test_endpoint_mismatch_raises():
    cat = samples.interval_category()
    with pytest.raises(DiagramError):
        eval_forest_diagram(cat, (dnode(1, (hleaf(0),)),))  # id1 over e0


def test_figure_shaped_diagram_two_parses_agree():
    # a two-tree diagram with nested structure, one tree carrying siblings
    cat = or_cat()
    d = (
        dnode(1, (hleaf(1), dnode(1, (hleaf(0), hleaf(1))))),
        hleaf(0),
    )
    assert eval_forest_diagram(cat, d) == eval_forest_diagram_alt(cat, d)


def test_parse_invariance_enumerated():
    for cat in [or_cat(), samples.interval_category(), one_object_category(samples.flat_max3())]:
        enum = _Enumerator(cat)
        for n in range(0, 5):
            for forest, _, _ in enum.forests_exact(n):
                assert eval_forest_diagram(cat, forest) == eval_forest_diagram_alt(cat, forest)


def test_context_diagram_evaluation():
    cat = samples.interval_category()
    # hole of object 0 capped by u, beside e1: arrow 0 -> 1
    d = (dnode(2, (oleaf(0),)), hleaf(1))
    arrow, start = eval_context_diagram(cat, d)
    assert start == 0
    assert cat.arr_start[arrow] == 0 and cat.arr_end[arrow] == 1
    # plugging e0 into the hole must equal evaluating the plugged diagram
    plugged = (dnode(2, (hleaf(0),)), hleaf(1))
    assert cat.act_on(0, arrow) == eval_forest_diagram(cat, plugged)


def test_context_diagram_identity():
    cat = or_cat()
    arrow, start = eval_context_diagram(cat, (oleaf(0),))
    assert arrow == cat.identity[0] and start == 0


def _spine(bottom, depth):
    """A diagram of `depth` nested nodes of arrow 1 over `bottom`, each with
    the leaf h0 beside the spine."""
    tree = bottom
    for _ in range(depth):
        tree = dnode(1, (tree, hleaf(0)))
    return (tree,)


def test_diagrams_of_any_depth_evaluate_support_and_render():
    # over z2 a node adds 1 to the sum of its children, so the forest over h1
    # is worth 1 + depth mod 2; the context arrow is the identity 0, composed
    # with 1 and inserted with h0 = 0 at each level, so depth mod 2
    cat = z2_cat()
    forest, context = _spine(hleaf(1), 10**5), _spine(oleaf(0), 10**5 + 1)
    assert eval_forest_diagram(cat, forest) == 1
    assert eval_context_diagram(cat, context) == (1, 0)
    assert diagram_support(cat, forest) == {("h", 0), ("h", 1), ("a", 1)}
    assert diagram_support(cat, context) == {("h", 0), ("a", 1)}
    assert render_diagram(forest) == "a1(" * 10**5 + "h1" + "+h0)" * 10**5
    assert render_diagram(context) == "a1(" * (10**5 + 1) + "<0>" + "+h0)" * (10**5 + 1)
    with pytest.raises(DiagramError, match="exposed object in a forest diagram"):
        eval_forest_diagram(cat, context)


# --- identities -------------------------------------------------------------------


def test_identities_flat_or():
    rep = check_identities(or_cat())
    assert rep.objects_ic and rep.all_hold()


def test_identities_flat_z2_idempotence_fails():
    rep = check_identities(z2_cat())
    assert rep.objects_ic
    assert rep.horizontal_idempotence == (1,)
    assert not rep.all_hold()


def test_identities_interval_category():
    assert check_identities(samples.interval_category()).all_hold()


def test_identities_z2_fiber_fails():
    rep = check_identities(samples.z2_fiber_category())
    assert rep.objects_ic
    assert rep.horizontal_idempotence is not None


def test_derived_identities_flat_or():
    assert check_derived_identities(or_cat()).all_hold()


def test_derived_identities_no_precondition():
    # a category failing the three identities may still be probed
    rep = check_derived_identities(z2_cat())
    assert rep is not None


def test_derived_identities_transfer_on_two_object_category():
    rep = check_derived_identities(samples.interval_category(), transfer_bound=4)
    assert rep.horizontal_transfer is None
    rep2 = check_derived_identities(samples.z2_fiber_category(), transfer_bound=4)
    # the fiber category fails global ic; some derived identity must fail too
    assert not rep2.all_hold()


# --- diagram enumeration ------------------------------------------------------------


class RefEnumerator:
    """The enumerator as it was before trees carried their sizes: every
    candidate tree's size is recomputed, and too-large trees are skipped
    rather than ending the scan."""

    def __init__(self, cat, extra_leaves=()):
        self.cat = cat
        self.extra = tuple(extra_leaves)
        self._tree_list = []
        self._tree_offsets = {0: 0}
        self._forests = {}

    def trees_upto(self, n):
        top = max(self._tree_offsets)
        for size in range(top + 1, n + 1):
            level = []
            if size == 1:
                for c in range(self.cat.harr_size):
                    level.append((("h", c), self.cat.harr_end[c], 0))
                for i, end in enumerate(self.extra):
                    level.append((("s", i, end), end, 1 << i))
            else:
                for u in range(self.cat.arr_size):
                    for forest, rootsum, slots in self.forests_exact(size - 1):
                        if rootsum == self.cat.arr_start[u]:
                            level.append((("n", u, forest), self.cat.arr_end[u], slots))
            self._tree_list.extend(level)
            self._tree_offsets[size] = len(self._tree_list)
        return self._tree_list[: self._tree_offsets[n]]

    def forests_exact(self, n):
        if n in self._forests:
            return self._forests[n]
        if n == 0:
            out = [((), self.cat.obj_zero, 0)]
        else:
            trees = self.trees_upto(n)
            out = []

            def build(remaining, min_idx, acc, rootsum, slots):
                if remaining == 0:
                    out.append((tuple(acc), rootsum, slots))
                    return
                for idx in range(min_idx, len(trees)):
                    tree, end, tslots = trees[idx]
                    size = ref_tree_size(tree)
                    if size > remaining or tslots & slots:
                        continue
                    acc.append(tree)
                    rootsum2 = self.cat.obj_sum(rootsum, end)
                    build(remaining - size, idx, acc, rootsum2, slots | tslots)
                    acc.pop()

            build(n, 0, [], self.cat.obj_zero, 0)
        self._forests[n] = out
        return out


def ref_tree_size(tree):
    if tree[0] != "n":
        return 1
    return 1 + sum(ref_tree_size(t) for t in tree[2])


def sample_categories():
    return [
        or_cat(),
        z2_cat(),
        one_object_category(samples.flat_max3()),
        one_object_category(samples.flat_trunc3()),
        samples.interval_category(),
        samples.z2_fiber_category(),
    ]


@pytest.mark.parametrize("slots, max_nodes", [(0, 5), (3, 4)])
def test_enumerator_matches_reference(slots, max_nodes):
    # with three slot leaves on object 0, as the horizontal transfer check
    # enumerates multicontexts; the reference needs seconds past 4 nodes
    for cat in sample_categories():
        enum, ref = _Enumerator(cat, (0,) * slots), RefEnumerator(cat, (0,) * slots)
        for n in range(max_nodes + 1):
            assert enum.forests_exact(n) == ref.forests_exact(n)


def test_derived_identities_on_a_derived_category_with_hundreds_of_arrows():
    srec = syntactic_algebra(samples.parity_a("ab")).recognizer
    ka = ktypes.ktype_algebra(srec.alphabet, 1)
    cat = derived.derived_category(derived.pair_closure(srec.morphism, ka.morphism)).category
    assert (cat.obj_size, cat.harr_size, cat.arr_size) == (16, 30, 399)
    start = time.perf_counter()
    rep = check_derived_identities(cat, 3)
    # about 0.3 s; a scan that does not stop at the first too-large tree
    # runs for minutes here
    assert time.perf_counter() - start < 30
    # parity is not locally testable: three of the four consequences fail
    assert rep.horizontal_swap is None
    assert rep.vertical_idempotence == (17,)
    assert rep.nested_insertion_variant == (0, 1, 16, 2)
    assert rep.horizontal_transfer == (0, 3, 9, "<slot0:1>+<slot1:0>+<slot2:1>")


# --- brute force -------------------------------------------------------------------


def test_brute_force_flat_or_none():
    assert brute_force_global_ic(or_cat(), 4) is None


def test_brute_force_flat_z2_witness():
    got = brute_force_global_ic(z2_cat(), 4)
    assert got is not None
    d1, d2, supp, rootsum, v1, v2 = got
    assert v1 != v2
    cat = z2_cat()
    assert diagram_support(cat, d1) == diagram_support(cat, d2) == supp
    assert diagram_rootsum(cat, d1) == diagram_rootsum(cat, d2) == rootsum
    assert eval_forest_diagram(cat, d1) == v1
    assert eval_forest_diagram(cat, d2) == v2


def test_brute_force_bound_one_none():
    for cat in [or_cat(), z2_cat(), samples.z2_fiber_category()]:
        assert brute_force_global_ic(cat, 1) is None


def test_brute_force_z2_fiber_witness():
    assert brute_force_global_ic(samples.z2_fiber_category(), 4) is not None


# --- canonical cover ----------------------------------------------------------------


def test_canonical_cover_flat_or_verifies():
    cat = or_cat()
    cov, stats = canonical_flat_cover(cat)
    assert stats["forest_pairs"] > 0
    rep = verify_covering(cat, cov.algebra, cov)
    assert rep.ok, rep.violations[:5]


def test_canonical_cover_flat_z2_injectivity_fails():
    cat = z2_cat()
    cov, _ = canonical_flat_cover(cat)
    rep = verify_covering(cat, cov.algebra, cov)
    assert not rep.ok
    assert any(clause.startswith("injectivity") for clause, _ in rep.violations)


def test_canonical_cover_interval_verifies():
    cat = samples.interval_category()
    cov, _ = canonical_flat_cover(cat)
    assert verify_covering(cat, cov.algebra, cov).ok


def test_canonical_cover_fiber_fails():
    cat = samples.z2_fiber_category()
    cov, _ = canonical_flat_cover(cat)
    rep = verify_covering(cat, cov.algebra, cov)
    assert not rep.ok
    assert any(clause.startswith("injectivity") for clause, _ in rep.violations)


def test_empty_cover_rejected():
    from forestalg.category import Covering

    cat = or_cat()
    cov, _ = canonical_flat_cover(cat)
    broken = Covering(cov.algebra, np.zeros_like(cov.half_cover), cov.arrow_cover)
    rep = verify_covering(cat, cov.algebra, broken)
    assert not rep.ok
    assert rep.violations[0][0] == "half-cover-nonempty"


# --- the soundness chain on a small suite ----------------------------------------------


def test_soundness_chain_small():
    suite = [
        or_cat(),
        z2_cat(),
        one_object_category(samples.flat_max3()),
        one_object_category(samples.flat_trunc3()),
        samples.interval_category(),
        samples.z2_fiber_category(),
    ]
    for cat in suite:
        idr = check_identities(cat)
        witness = brute_force_global_ic(cat, 5)
        if idr.all_hold():
            assert check_derived_identities(cat).all_hold()
            assert witness is None
        else:
            assert brute_force_global_ic(cat, 6) is not None
