"""The canonical flat cover and the covering check.

`verify_covering` takes either a table algebra, whose cover members it
checks one by one, or a `FlatMaskAlgebra`, whose covers it checks by
union-convolution.  `samples.flat_subsets(n)` is the table algebra with the
same elements (index = bitmask), so both must reach the same verdict and
name the same clause instances, in the same order.

`canonical_flat_cover` is checked against the four-rule fixpoint over
forest and context diagrams that it replaced, kept here as the reference.
"""

import functools
import itertools

import numpy as np
import pytest

from forestalg import samples
from forestalg.algebra import BudgetError, FlatMaskAlgebra, Recognizer, syntactic_algebra
from forestalg.category import (
    Covering,
    _subset_sums,
    canonical_flat_cover,
    one_object_category,
    verify_covering,
)
from forestalg.derived import derived_category, pair_closure
from forestalg.ktypes import ktype_algebra, lt_recognizer

FLAT_SAMPLES = (
    "flat_or",
    "flat_z2",
    "flat_z3",
    "trivial_algebra",
    "flat_max3",
    "flat_trunc3",
    "flat_diamond",
)


def _k0_derived_category(make):
    syn = syntactic_algebra(make("ab")).recognizer
    return derived_category(pair_closure(syn.morphism, ktype_algebra("ab", 0).morphism)).category


def _small_categories():
    yield "interval", samples.interval_category()
    yield "z2-fiber", samples.z2_fiber_category()
    for name in FLAT_SAMPLES:
        yield name, one_object_category(getattr(samples, name)())
    yield "parity_a-k0", _k0_derived_category(samples.parity_a)
    yield "contains_a-k0", _k0_derived_category(samples.contains_a)


SMALL = list(_small_categories())


def _dropped(cov, i):
    """The covering with the least member of cover i (half-arrows first,
    then arrows) removed."""
    covers = list(cov.half_cover) + list(cov.arrow_cover)
    covers[i] = covers[i] - {min(covers[i])}
    nh = len(cov.half_cover)
    return Covering(cov.algebra, tuple(covers[:nh]), tuple(covers[nh:]))


def _cases():
    for name, cat in SMALL:
        cov, stats = canonical_flat_cover(cat)
        yield name, cat, stats["symbols"], cov
        for i in range(cat.harr_size + cat.arr_size):
            yield "%s-drop%d" % (name, i), cat, stats["symbols"], _dropped(cov, i)


CASES = list(_cases())


@functools.lru_cache(maxsize=None)
def _subsets_table(n):
    return samples.flat_subsets(n)


def _clause_instances(violations):
    """The distinct (clause, first two ids) entries, in report order: the
    table path names each failing member pair, the mask path each clause."""
    out = []
    for clause, where in violations:
        if (clause, where[:2]) not in out:
            out.append((clause, where[:2]))
    return out


def test_cases_reach_closure_failures():
    preserve = 0
    for _, cat, n, cov in CASES:
        rep = verify_covering(cat, FlatMaskAlgebra(n), cov)
        preserve += any(clause.startswith("preserve-") for clause, _ in rep.violations)
    assert preserve > 0


@pytest.mark.parametrize("case", range(len(CASES)), ids=[c[0] for c in CASES])
def test_mask_and_table_paths_agree(case):
    _, cat, n, cov = CASES[case]
    mask = verify_covering(cat, FlatMaskAlgebra(n), cov)
    table = verify_covering(cat, _subsets_table(n), cov)
    assert mask.ok == table.ok
    got = _clause_instances(table.violations)
    if len(table.violations) == 50:
        assert got == mask.violations[: len(got)]
    else:
        assert got == mask.violations


def _with_member(cov, kind, i, member):
    """The covering with `member` added to half cover i or arrow cover i."""
    covers = {"half": list(cov.half_cover), "arrow": list(cov.arrow_cover)}
    covers[kind][i] = covers[kind][i] | {member}
    return Covering(cov.algebra, tuple(covers["half"]), tuple(covers["arrow"]))


# a member outside the algebra raised an IndexError, or an OverflowError
# beyond int64, and a negative mask was read from the end of the mask rows
OUT_OF_RANGE = [("half", 0, -1), ("arrow", 1, 1 << 20), ("half", 1, 1 << 63), ("arrow", 0, 1 << 70)]


@pytest.mark.parametrize("kind, i, member", OUT_OF_RANGE, ids=["%s%d=%d" % r for r in OUT_OF_RANGE])
def test_a_mask_outside_the_subset_monoid_is_reported(kind, i, member):
    # flat-or's category has four symbols, so the masks run below 2^4
    cat = one_object_category(samples.flat_or())
    cov, _ = canonical_flat_cover(cat)
    rep = verify_covering(cat, cov.algebra, _with_member(cov, kind, i, member))
    assert rep.violations == [(kind + "-cover-range", (i,))]


def test_a_member_outside_a_table_algebra_is_reported():
    alg = samples.flat_or()
    cov = Covering(alg, (frozenset({0}), frozenset({7})), (frozenset({0}), frozenset({1})))
    rep = verify_covering(one_object_category(alg), alg, cov)
    assert rep.violations == [("half-cover-range", (1,))]


def test_canonical_flat_cover_refuses_more_symbols_than_its_cap():
    with pytest.raises(BudgetError) as got:
        canonical_flat_cover(one_object_category(samples.flat_or()), max_symbols=3)
    assert got.value.stats == {"symbols": 4, "cap": 3}


# --- the subset-sum transforms -------------------------------------------------


def _naive_subset_sums(a, n, sign):
    """Each entry m of the last axis replaced by the sum over the submasks s
    of m of a[s], each signed by (-1)^|m - s| when sign is -1."""
    a = np.asarray(a, dtype=np.int64)
    out = np.zeros_like(a)
    for m in range(1 << n):
        for s in range(1 << n):
            if s & m == s:
                out[..., m] += a[..., s] * (sign ** bin(m ^ s).count("1"))
    return out


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("shape", [(), (3,)], ids=["1d", "2d"])
@pytest.mark.parametrize("kind", [bool, np.int64], ids=["bool", "int64"])
def test_subset_sums_match_the_naive_submask_sums(n, shape, kind):
    rng = np.random.default_rng(n)
    if kind is bool:
        a = rng.random(shape + (1 << n,)) < 0.4
    else:
        a = rng.integers(-5, 6, size=shape + (1 << n,))
    for sign in (1, -1):
        got = _subset_sums(a, n, sign)
        assert got.shape == a.shape
        assert (got == _naive_subset_sums(a, n, sign)).all()
    assert (_subset_sums(_subset_sums(a, n, 1), n, -1) == a).all()
    assert (_subset_sums(_subset_sums(a, n, -1), n, 1) == a).all()


# --- the reference fixpoint ----------------------------------------------------


def _ref_zeta(a, n):
    v = a.copy()
    for b in range(n):
        v = v.reshape(-1, 2, 1 << b)
        v[:, 1, :] += v[:, 0, :]
        v = v.reshape(-1)
    return v


def _ref_mobius(a, n):
    v = a.copy()
    for b in range(n):
        v = v.reshape(-1, 2, 1 << b)
        v[:, 1, :] -= v[:, 0, :]
        v = v.reshape(-1)
    return v


def _ref_or_convolve(f, g, n):
    zf = _ref_zeta(f.astype(np.int64), n)
    zg = _ref_zeta(g.astype(np.int64), n)
    return _ref_mobius(zf * zg, n) > 0


def _ref_or_with_bit(f, bit_index, n):
    out = np.zeros_like(f)
    lo = 1 << bit_index
    v = f.reshape(-1, 2, lo)
    o = out.reshape(-1, 2, lo)
    o[:, 1, :] = v[:, 1, :] | v[:, 0, :]
    return out


def ref_canonical_flat_cover(cat):
    """The reachable (value, support) pairs of forest diagrams (fp) and
    context diagrams (cp), closed under four rules: summing two forests,
    capping a forest with an arrow, extending a context by an arrow, and
    inserting a forest beside a context."""
    nh = cat.harr_size
    nsym = nh + cat.arr_size
    size = 1 << nsym
    fp = [np.zeros(size, dtype=bool) for _ in range(nh)]
    cp = [np.zeros(size, dtype=bool) for _ in range(cat.arr_size)]
    fp[cat.harr_one][0] = True
    for c in range(nh):
        fp[c][1 << c] = True
    for x in range(cat.obj_size):
        cp[cat.identity[x]][0] = True
    arrows_from = [cat.arrows_from(x) for x in range(cat.obj_size)]

    def grow(cover, tgt, got):
        new = got & ~cover[tgt]
        if new.any():
            cover[tgt] |= new
            return True
        return False

    changed = True
    while changed:
        changed = False
        for c1 in range(nh):
            for c2 in range(c1, nh):
                if fp[c1].any() and fp[c2].any():
                    got = _ref_or_convolve(fp[c1], fp[c2], nsym)
                    changed |= grow(fp, cat.harr_add[c1][c2], got)
        for c in range(nh):
            for u in arrows_from[cat.harr_end[c]]:
                if fp[c].any():
                    changed |= grow(fp, cat.act_on(c, u), _ref_or_with_bit(fp[c], nh + u, nsym))
        for v in range(cat.arr_size):
            for u in arrows_from[cat.arr_end[v]]:
                if cp[v].any():
                    changed |= grow(cp, cat.compose(v, u), _ref_or_with_bit(cp[v], nh + u, nsym))
            for c in range(nh):
                if cp[v].any() and fp[c].any():
                    changed |= grow(cp, cat.insert(v, c), _ref_or_convolve(cp[v], fp[c], nsym))

    half_cover = tuple(frozenset(int(m) for m in np.nonzero(f)[0]) for f in fp)
    arrow_cover = tuple(frozenset(int(m) for m in np.nonzero(f)[0]) for f in cp)
    stats = {
        "forest_pairs": sum(len(s) for s in half_cover),
        "context_pairs": sum(len(s) for s in arrow_cover),
        "symbols": nsym,
    }
    return half_cover, arrow_cover, stats


def _derived_categories():
    """The derived categories the construct benchmark covers: the syntactic
    algebras of the depth-1 recognizer over {a}, under every accepting set,
    at depth 1, and a-has-b-child at depth 0.  Every accepting set gives
    the same 15-symbol category, so it is the one both `cover-lt-a-k1`
    ops cover, at any seed."""
    machine = lt_recognizer("a", 1, lambda nodes, roots: False)
    beta = ktype_algebra("a", 1).morphism
    cats = []
    for r in range(len(machine.states) + 1):
        for accept in itertools.combinations(range(len(machine.states)), r):
            rec = Recognizer(machine.recognizer.morphism, frozenset(accept))
            syn = syntactic_algebra(rec).recognizer
            cat = derived_category(pair_closure(syn.morphism, beta)).category
            if cat not in cats:
                cats.append(cat)
    syn = syntactic_algebra(samples.a_has_b_child("ab")).recognizer
    pa = pair_closure(syn.morphism, ktype_algebra("ab", 0).morphism)
    return cats + [derived_category(pa).category]


REFERENCE = SMALL + [("derived-%d" % i, cat) for i, cat in enumerate(_derived_categories())]


@pytest.mark.parametrize("case", range(len(REFERENCE)), ids=[name for name, _ in REFERENCE])
def test_canonical_flat_cover_matches_reference(case):
    _, cat = REFERENCE[case]
    cov, stats = canonical_flat_cover(cat)
    half_cover, arrow_cover, ref_stats = ref_canonical_flat_cover(cat)
    assert cov.half_cover == half_cover
    assert cov.arrow_cover == arrow_cover
    # perfbench's tracer reads "symbols" off these stats
    assert set(stats) == {"forest_pairs", "context_pairs", "symbols"}
    assert stats == ref_stats
    assert cov.algebra == FlatMaskAlgebra(stats["symbols"])


def test_the_construct_cover_categories_are_references():
    # the depth-1 machine over {a} gives one category under all eight
    # accepting sets, so the benchmark's two cover ops at any seed cover the
    # 15-symbol reference; a-has-b-child gives the 13-symbol one
    sizes = [cat.harr_size + cat.arr_size for name, cat in REFERENCE if name.startswith("derived-")]
    assert sizes == [15, 13]
