import dataclasses

import numpy as np
import pytest

from forestalg import samples
from forestalg.algebra import Morphism, WreathOps, syntactic_algebra, verify_tm_division
from forestalg.category import (
    brute_force_global_ic,
    canonical_flat_cover,
    check_identities,
    validate_category,
    verify_covering,
)
from forestalg.derived import (
    FactorizationError,
    dct_backward,
    dct_forward,
    derived_category,
    pair_closure,
    witness_context,
    witness_forest,
)
from forestalg.ktypes import ktype_algebra
from forestalg.terms import enumerate_forests, make_alphabet

A = make_alphabet("a")
AB = make_alphabet("ab")


def syn_rec(rec):
    return syntactic_algebra(rec).recognizer


def contains_a_beta(alphabet, k):
    rec = syn_rec(samples.contains_a(alphabet))
    ka = ktype_algebra(alphabet, k)
    return pair_closure(rec.morphism, ka.morphism)


# --- pair closure -------------------------------------------------------------


def test_pair_closure_diagonal():
    rec = samples.contains_a()
    pa = pair_closure(rec.morphism, rec.morphism)
    assert all(h1 == h2 for (h1, h2) in pa.h_pairs)
    assert all(v1 == v2 for (v1, v2) in pa.v_pairs)


def test_pair_closure_contains_a_beta0():
    # over a single letter: empty forest gives (0, empty); nonempty gives (1, nonempty)
    pa = contains_a_beta(A, 0)
    assert len(pa.h_pairs) == 2


def test_pair_closure_matches_enumeration_image():
    # the closure equals the image of (alpha, beta) on enumerated forests once
    # enumeration saturates
    rec = syn_rec(samples.contains_a(AB))
    ka = ktype_algebra(AB, 1)
    pa = pair_closure(rec.morphism, ka.morphism)
    image = set()
    for s in enumerate_forests(AB, 6):
        image.add((rec.morphism.eval_forest(s), ka.morphism.eval_forest(s)))
    assert image == set(pa.h_pairs)


def test_witness_replay():
    rec = syn_rec(samples.parity_a(AB))
    ka = ktype_algebra(AB, 1)
    pa = pair_closure(rec.morphism, ka.morphism)
    for i, pair in enumerate(pa.h_pairs):
        s = witness_forest(pa, i)
        assert (rec.morphism.eval_forest(s), ka.morphism.eval_forest(s)) == pair
    for j, pair in enumerate(pa.v_pairs):
        p = witness_context(pa, j)
        assert (rec.morphism.eval_context(p), ka.morphism.eval_context(p)) == pair


# --- derived category ------------------------------------------------------------


def check_derived_well_defined(dc):
    """Re-verify empirically that composition and insertion do not depend on
    the representative context of an arrow class: any vpair with the same
    action key must induce the same table entries."""
    pa = dc.pa
    a1, a2 = pa.alpha.algebra, pa.beta.algebra
    for vp_idx in range(len(pa.v_pairs)):
        v1, v2 = pa.v_pairs[vp_idx]
        for oi in range(len(dc.objects)):
            u = dc.arrow_at[vp_idx, oi]
            # composition with every continuation arrow
            for w in range(dc.category.arr_size):
                if dc.category.arr_start[w] != dc.category.arr_end[u]:
                    continue
                w1, w2 = pa.v_pairs[dc.arrow_rep[w]]
                prod = (a1.mul[v1][w1], a2.mul[v2][w2])
                if dc.arrow_at[pa.v_index[prod], oi] != dc.category.compose(u, w):
                    return False
            # insertion with every half-arrow
            for ci, (h1, h2) in enumerate(pa.h_pairs):
                cand = (a1.ins[v1][h1], a2.ins[v2][h2])
                if dc.arrow_at[pa.v_index[cand], oi] != dc.category.insert(u, ci):
                    return False
    return True


def test_derived_category_diagonal_identityish():
    rec = syn_rec(samples.contains_a(A))
    pa = pair_closure(rec.morphism, rec.morphism)
    dc = derived_category(pa)
    # alpha = beta: each half-arrow is a diagonal pair
    assert dc.category.harr_size == len(pa.h_pairs)
    assert check_derived_well_defined(dc)
    assert validate_category(dc.category) is dc.category


def test_derived_category_contains_a_beta1_validates():
    dc = derived_category(contains_a_beta(A, 1))
    assert dc.category.obj_size == 4
    assert dc.category.harr_size == 4
    assert check_derived_well_defined(dc)
    assert validate_category(dc.category) is dc.category


def test_derived_category_identities_match_language_character():
    # contains-a is locally testable: all identities hold at k = 1
    dc = derived_category(contains_a_beta(A, 1))
    assert check_identities(dc.category).all_hold()
    # parity is not: the derived category at k = 0 fails horizontal idempotence
    rec = syn_rec(samples.parity_a(A))
    ka = ktype_algebra(A, 0)
    dcp = derived_category(pair_closure(rec.morphism, ka.morphism))
    assert not check_identities(dcp.category).all_hold()


def test_derived_category_two_letters_beta0():
    for make in [samples.contains_a, samples.parity_a]:
        rec = syn_rec(make(AB))
        ka = ktype_algebra(AB, 0)
        dc = derived_category(pair_closure(rec.morphism, ka.morphism))
        assert check_derived_well_defined(dc)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "sample, alphabet", [("parity_a", "a"), ("contains_a", "ab"), ("a_has_b_child", "ab")]
)
def test_derived_tables_do_not_depend_on_the_arrow_representative(sample, alphabet, k):
    rec = syn_rec(getattr(samples, sample)(alphabet))
    dc = derived_category(pair_closure(rec.morphism, ktype_algebra(alphabet, k).morphism))
    assert check_derived_well_defined(dc)
    # one wrong comp entry, or one wrong ins entry, is caught
    cat = dc.category
    assert cat.arr_size > 1
    for table in ("comp", "ins"):
        rows = [list(row) for row in getattr(cat, table)]
        rows[0][0] = (rows[0][0] + 1) % cat.arr_size  # the entry of the first key
        bad = dataclasses.replace(dc, category=dataclasses.replace(cat, **{table: tuple(map(tuple, rows))}))
        assert not check_derived_well_defined(bad)


# --- derived category theorem, forward -----------------------------------------------


def test_dct_forward_contains_a_beta1():
    rec = syn_rec(samples.contains_a(A))
    dc = derived_category(contains_a_beta(A, 1))
    cov, stats = canonical_flat_cover(dc.category)
    rep = verify_covering(dc.category, cov.algebra, cov)
    assert rep.ok
    witness, ops = dct_forward(dc, cov)
    check = verify_tm_division(rec.algebra, ops, witness)
    assert check.ok, check.violations[:5]


def test_dct_forward_trivial_beta():
    # one-point beta: reduces to a plain division of alpha into the cover algebra
    rec = syn_rec(samples.contains_a(A))
    ka = ktype_algebra(A, 0)
    pa = pair_closure(rec.morphism, ka.morphism)
    dc = derived_category(pa)
    cov, _ = canonical_flat_cover(dc.category)
    witness, ops = dct_forward(dc, cov)
    assert verify_tm_division(rec.algebra, ops, witness).ok


def test_dct_forward_rejects_bad_cover():
    from forestalg.category import Covering

    dc = derived_category(contains_a_beta(A, 1))
    cov, _ = canonical_flat_cover(dc.category)
    # merge all half-arrow covers: the merged rows break the preservation clauses
    merged = cov.half_cover.any(axis=0)
    broken = Covering(cov.algebra, np.tile(merged, (len(cov.half_cover), 1)), cov.arrow_cover)
    with pytest.raises(ValueError, match="does not verify"):
        dct_forward(dc, broken)


# --- derived category theorem, backward ----------------------------------------------


def or_tracking_wreath_morphism(rec, ka):
    """Hand-built delta into flat-or o (depth-k algebra): the left coordinate
    accumulates whether an a-node occurred."""
    outer = samples.flat_or()
    inner = ka.algebra
    letters = {}
    for x in sorted(rec.alphabet):
        bit = 1 if x == "a" else 0
        f = tuple(bit for _ in range(inner.h_size))
        letters[x] = (f, ka.morphism.letters[x])
    return Morphism(WreathOps(outer, inner), rec.alphabet, letters)


def test_dct_backward_contains_a_beta0():
    rec = syn_rec(samples.contains_a(A))
    ka = ktype_algebra(A, 0)
    pa = pair_closure(rec.morphism, ka.morphism)
    dc = derived_category(pa)
    delta = or_tracking_wreath_morphism(rec, ka)
    cov = dct_backward(dc, delta)
    assert verify_covering(dc.category, delta.algebra.outer, cov).ok


def test_dct_backward_contains_a_beta1_round_trip():
    rec = syn_rec(samples.contains_a(A))
    ka = ktype_algebra(A, 1)
    pa = pair_closure(rec.morphism, ka.morphism)
    dc = derived_category(pa)
    delta = or_tracking_wreath_morphism(rec, ka)
    cov = dct_backward(dc, delta)
    # round trip: the covering from the factorization feeds the forward
    # direction and yields a verifying tm-division witness
    witness, ops = dct_forward(dc, cov)
    assert verify_tm_division(rec.algebra, ops, witness).ok


def test_dct_backward_wrong_projection_rejected():
    rec = syn_rec(samples.contains_a(A))
    ka = ktype_algebra(A, 1)
    pa = pair_closure(rec.morphism, ka.morphism)
    dc = derived_category(pa)
    delta = or_tracking_wreath_morphism(rec, ka)
    bad_letters = dict(delta.letters)
    f, v2 = bad_letters["a"]
    bad_letters["a"] = (f, ka.algebra.one)  # wrong right coordinate
    bad = Morphism(delta.algebra, delta.alphabet, bad_letters)
    with pytest.raises(FactorizationError):
        dct_backward(dc, bad)


def test_dct_backward_uninformative_delta_rejected():
    # parity is invisible to the root-type morphism, so a delta that is
    # constant on the left cannot determine alpha; the error carries a
    # witness pair of terms
    rec = syn_rec(samples.parity_a(A))
    ka = ktype_algebra(A, 0)
    pa = pair_closure(rec.morphism, ka.morphism)
    dc = derived_category(pa)
    outer = samples.trivial_algebra()
    letters = {
        x: (tuple(0 for _ in range(ka.algebra.h_size)), ka.morphism.letters[x])
        for x in sorted(rec.alphabet)
    }
    bad = Morphism(WreathOps(outer, ka.algebra), rec.alphabet, letters)
    with pytest.raises(FactorizationError) as e:
        dct_backward(dc, bad)
    assert e.value.witness is not None


def test_trivial_factorization_valid_when_beta_determines_alpha():
    # over a single letter, nonemptiness is visible in the root types, so
    # contains-a factors through the trivial left factor and the covering
    # still verifies
    rec = syn_rec(samples.contains_a(A))
    ka = ktype_algebra(A, 1)
    pa = pair_closure(rec.morphism, ka.morphism)
    dc = derived_category(pa)
    outer = samples.trivial_algebra()
    letters = {
        x: (tuple(0 for _ in range(ka.algebra.h_size)), ka.morphism.letters[x])
        for x in sorted(rec.alphabet)
    }
    delta = Morphism(WreathOps(outer, ka.algebra), rec.alphabet, letters)
    cov = dct_backward(dc, delta)
    assert verify_covering(dc.category, outer, cov).ok


# --- theorem coherence at desk scale ---------------------------------------------------


def test_derived_global_ic_agrees_with_brute_force():
    cases = [
        (samples.contains_a(A), 0, True),
        (samples.contains_a(A), 1, True),
        (samples.parity_a(A), 0, False),
        (samples.parity_a(A), 1, False),
    ]
    for rec, k, expect_ic in cases:
        srec = syn_rec(rec)
        ka = ktype_algebra(A, k)
        dc = derived_category(pair_closure(srec.morphism, ka.morphism))
        witness = brute_force_global_ic(dc.category, 4)
        assert (witness is None) == expect_ic
        assert check_identities(dc.category).all_hold() == expect_ic
