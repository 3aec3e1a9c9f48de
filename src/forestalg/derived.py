"""The derived forest category of a pair of morphisms out of the free algebra.

Given morphisms alpha and beta from the free forest algebra onto two finite
forest algebras, the derived category has the reachable beta-values as
objects, the realizable value pairs (alpha(s), beta(s)) as half-arrows, and
as arrows the contexts up to equal action: two contexts represent the same
arrow at object h when they send every realizable alpha-value compatible
with h to the same place.  That equivalence is finitely presented by the
action vector, which is the key used here.

The pair algebra is the reachable image of alpha x beta, generated by
`algebra.generate` with a derivation per element, so every element replays
into a concrete forest or context witness through `witness_forest` and
`witness_context`.  The category's tables are read off that closure's own
product rows by `algebra._gen_arrays`, as every other construction's are,
with no product taken again, and written in the category's positional
layout by whole-row gathers; it is not validated, and the tests run
`validate_category` on it.

The two theorems connecting the derived category to wreath products are
implemented constructively: a division of the category by an algebra (H, V)
turns into a tm-division of the alpha side into (H, V) o (inner factor), and
a factorization of alpha through such a wreath product turns into a covering
of the derived category by (H, V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Generated,
    Morphism,
    PairOps,
    Recognizer,
    TmDivisionWitness,
    WreathOps,
    _as_map,
    _classes,
    _first,
    _freeze,
    _gen_arrays,
    _row_keys,
    generate,
    verify_tm_division,
    witness_context,
    witness_forest,
)
# validate_category is unused here but stays bound: the benchmark's tracer wraps
# `derived.validate_category`, and tests/test_exports.py checks its bindings
from .category import Covering, ForestCategory, _by_end, _pad, validate_category, verify_covering  # noqa: F401

__all__ = [
    "PairAlgebra",
    "pair_closure",
    "witness_forest",
    "witness_context",
    "DerivedCategory",
    "derived_category",
    "dct_forward",
    "dct_backward",
    "FactorizationError",
]


class FactorizationError(ValueError):
    """The wreath factorization hypothesis fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(kw_only=True)
class PairAlgebra(Generated):
    """The closure of `pair_closure` over (alpha, beta) value pairs; on
    decide's levels the V pairs' seconds are AutomatonOps maps."""

    alpha: Morphism
    beta: Morphism

    @property
    def h_pairs(self):
        return self.h_elems

    @property
    def v_pairs(self):
        return self.v_elems


def _as_morphism(m):
    return m.morphism if isinstance(m, Recognizer) else m


def pair_closure(alpha, beta, budget=100000) -> PairAlgebra:
    """The realizable value pairs of two morphisms over a shared alphabet,
    generated by `algebra.generate` with its derivations for witness replay."""
    alpha = _as_morphism(alpha)
    beta = _as_morphism(beta)
    if alpha.alphabet != beta.alphabet:
        raise ValueError("the two morphisms must share an alphabet")
    letters = {a: (alpha.letters[a], beta.letters[a]) for a in alpha.alphabet}
    g = generate(PairOps(alpha.algebra, beta.algebra), letters, budget=budget)
    return PairAlgebra(**vars(g), alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# The derived category


@dataclass
class DerivedCategory:
    category: ForestCategory
    pa: PairAlgebra
    objects: tuple  # object index -> beta H value
    obj_index: dict
    arrow_rep: tuple  # arrow id -> representative vpair index
    # [vpair index, object index] -> arrow id; it follows from pa, and an
    # array cannot take part in the dataclass's ==
    arrow_at: np.ndarray = field(compare=False)


def derived_category(pa: PairAlgebra) -> DerivedCategory:
    """Materialize the derived category from a complete pair closure, with
    every table read off the closure's product rows by `_gen_arrays`.

    Half-arrow c is pair c, an arrow is a class of V pairs placed at a start
    object x, and a table entry is the product of representatives.  Two V
    pairs are one arrow at x when they send each half-arrow at x to the same
    pair: the pairs carry the alpha values and the end object, so these are
    the classes of equal action vectors.  Each entry is a product in the pair
    algebra, so the category obeys every law by construction and is not
    validated here; the tests run `validate_category` on it.

    Each table is one gather: row u of comp is the arrow of rep[u] times the
    representatives of the arrows out of end(u), padded by `_pad`, so the
    rows are already in the category's positional layout."""
    add, act, mul, ins = _gen_arrays(pa)
    objects = tuple(sorted({h2 for (_, h2) in pa.h_pairs}))
    obj_index = {x: i for i, x in enumerate(objects)}
    harr_end = np.array([obj_index[h2] for (_, h2) in pa.h_pairs])
    harrs_to = _by_end(harr_end.tolist(), len(objects))
    first_to = np.array([c[0] for c in harrs_to])  # one half-arrow ending at each object

    # an arrow is a class of vertical pairs placed at a start object, numbered
    # in order of first placement, V pair by V pair
    keys = [_row_keys(act[c].T) for c in harrs_to]
    placed = [(vp, oi) for vp in range(len(pa.v_pairs)) for oi in range(len(objects))]
    arrow_of, firsts = _classes(placed, lambda at: (at[1], keys[at[1]][at[0]]))
    arrow_at = np.array([arrow_of[at] for at in placed]).reshape(len(pa.v_pairs), len(objects))
    rep = np.array([vp for vp, _ in firsts])
    start = np.array([oi for _, oi in firsts])
    end = harr_end[act[first_to[start], rep]]
    # the representatives of the arrows out of each object, padded
    outs = rep[np.array(_pad(_by_end(start.tolist(), len(objects))))]

    cat = ForestCategory(
        obj_size=len(objects),
        obj_add=_freeze(harr_end[add[first_to[:, None], first_to]].tolist()),
        obj_zero=int(harr_end[0]),  # pair 0 is zero, pair 0 of V is one
        harr_size=len(pa.h_pairs),
        harr_add=_freeze(add.tolist()),
        harr_one=0,
        harr_end=tuple(harr_end.tolist()),
        arr_size=len(rep),
        arr_start=tuple(start.tolist()),
        arr_end=tuple(end.tolist()),
        identity=tuple(arrow_at[0].tolist()),
        comp=_freeze(arrow_at[mul[rep[:, None], outs[end]], start[:, None]].tolist()),
        act=_freeze(act[np.arange(len(pa.h_pairs))[:, None], outs[harr_end]].tolist()),
        ins=_freeze(arrow_at[ins[rep], start[:, None]].tolist()),
    )
    return DerivedCategory(cat, pa, objects, obj_index, tuple(rep.tolist()), arrow_at)


# ---------------------------------------------------------------------------
# The wreath product correspondence, both directions


def dct_forward(dc: DerivedCategory, cov: Covering, budget=100000):
    """From a verified covering of the derived category by (H, V), build a
    tm-division witness of the alpha algebra into (H, V) o (beta algebra).

    A covered pair (cover element, object value) names the alpha value of the
    covered half-arrow; hat(v) picks a realizing context for v and covers its
    arrow at each object by the first member of its cover row.  K is
    generated: the first member of each half-arrow's row, closed under
    addition and the hat actions, so the witness stays small.  Returns
    (witness, WreathOps ambient); the witness passes verify_tm_division.

    K and psi are the horizontal part of the closure `algebra.generate`
    builds in the product of the wreath and the alpha algebra, with the
    pairs (hat(v), v) as letters; past `budget` elements of that closure,
    horizontal and vertical together, it raises the engine's BudgetError.
    """
    pa = dc.pa
    rep = verify_covering(dc.category, cov.algebra, cov)
    if not rep.ok:
        raise ValueError("covering does not verify: %r" % rep.violations[:3])
    a1, a2 = pa.alpha.algebra, pa.beta.algebra
    ops = WreathOps(cov.algebra, a2)

    first_vp = {}  # alpha V value -> its first V pair
    for j, (v1, _) in enumerate(pa.v_pairs):
        first_vp.setdefault(v1, j)
    hat = {}
    for v1 in range(a1.v_size):
        vp_idx = first_vp.get(v1)
        if vp_idx is None:
            raise ValueError(
                "vertical element %d is not realized; pass a reachable (e.g. syntactic) alpha"
                % v1
            )
        v2 = pa.v_pairs[vp_idx][1]
        f = []
        for h2 in range(a2.h_size):
            oi = dc.obj_index.get(h2)
            if oi is None:
                f.append(cov.algebra.v_one)  # unreachable object, never touched from K
                continue
            f.append(_first(cov.arrow_cover[dc.arrow_at[vp_idx, oi]]))
        hat[v1] = (tuple(f), v2)

    # K is generated from one covered element per half-arrow, jointly with
    # psi: the pairs (k, alpha value) close under addition and the hat actions
    seeds = [((_first(cov.half_cover[ci]), h2), h1) for ci, (h1, h2) in enumerate(pa.h_pairs)]
    letters = {v1: (vhat, v1) for v1, vhat in hat.items()}
    gen = generate(PairOps(ops, a1), letters, seeds, budget=budget)
    psi = _as_map(gen.h_elems)
    if isinstance(psi, tuple):
        raise ValueError("covering is not functional at %r" % (gen.h_elems[psi[1]][0],))
    # psi-consistency: every half-arrow (h1, h2) that x covers has h1 = psi(x, h2)
    h1s, h2s = np.array(pa.h_pairs).T
    for (x, h2), h1 in psi.items():
        if (h1s[cov.half_cover[:, x] & (h2s == h2)] != h1).any():
            raise ValueError("covering violates psi-consistency at %r" % ((x, h2),))
    return TmDivisionWitness(tuple(sorted(psi)), psi, hat), ops


def dct_backward(dc: DerivedCategory, delta: Morphism, budget=200000) -> Covering:
    """From a factorization of alpha through outer o (beta algebra), with the
    inner projection of delta equal to beta letterwise, build the covering of
    the derived category by the outer algebra.  delta is a Morphism into
    `WreathOps(outer, beta algebra)`, whose letters are (f tuple, inner V)
    pairs.

    Half-arrow cover rows mark the outer coordinates of delta on realizing
    forests; arrow cover rows mark f_q(h) over realizing contexts q, in
    rows as wide as outer's H and V.  The construction checks the
    factorization hypotheses and the result passes verify_covering.
    """
    pa = dc.pa
    alpha, beta = pa.alpha, pa.beta
    outer, inner = delta.algebra.outer, delta.algebra.inner
    if delta.alphabet != alpha.alphabet:
        raise FactorizationError("delta is over a different alphabet")
    if inner is not beta.algebra and inner != beta.algebra:
        raise FactorizationError("the inner factor of delta must be the beta algebra")
    for a in sorted(alpha.alphabet):
        if delta.letters[a][1] != beta.letters[a]:
            raise FactorizationError(
                "projection of delta disagrees with beta on a letter", witness=a
            )

    letters = {a: (delta.letters[a], alpha.letters[a]) for a in alpha.alphabet}
    gen = generate(PairOps(delta.algebra, alpha.algebra), letters, budget=budget)

    # gamma must exist: delta values determine alpha values
    for elems, replay, what in (
        (gen.h_elems, witness_forest, "forest"),
        (gen.v_elems, witness_context, "context"),
    ):
        clash = _as_map(elems)
        if isinstance(clash, tuple):
            raise FactorizationError(
                "delta does not determine alpha on a " + what,
                witness=tuple(replay(gen, i) for i in clash),
            )

    half_cover = np.zeros((len(pa.h_pairs), outer.h_size), dtype=bool)
    for (dh, ah) in gen.h_elems:
        ho, hi = dh
        ci = pa.h_index.get((ah, hi))
        if ci is None:
            raise FactorizationError("delta inner coordinate strays off the pair closure")
        half_cover[ci, ho] = True

    arrow_cover = np.zeros((dc.category.arr_size, outer.v_size), dtype=bool)
    for (dv, av) in gen.v_elems:
        f, vi = dv
        vp_idx = pa.v_index.get((av, vi))
        if vp_idx is None:
            raise FactorizationError("delta vertical coordinate strays off the pair closure")
        for arrow, h2 in zip(dc.arrow_at[vp_idx].tolist(), dc.objects):
            arrow_cover[arrow, f[h2]] = True

    cov = Covering(outer, half_cover, arrow_cover)
    rep = verify_covering(dc.category, outer, cov)
    if not rep.ok:
        raise FactorizationError("constructed covering does not verify: %r" % rep.violations[:3])
    return cov
