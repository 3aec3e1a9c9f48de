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
`witness_context`.  The category is read off it and is not validated; the
tests run `validate_category` on it.

The two theorems connecting the derived category to wreath products are
implemented constructively: a division of the category by an algebra (H, V)
turns into a tm-division of the alpha side into (H, V) o (inner factor), and
a factorization of alpha through such a wreath product turns into a covering
of the derived category by (H, V).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    ForestAlgebra,
    Morphism,
    PairOps,
    Recognizer,
    TmDivisionWitness,
    WreathOps,
    _as_map,
    _classes,
    evaluate_context,
    evaluate_forest,
    generate,
    verify_tm_division,
    witness_context,
    witness_forest,
)
# validate_category is unused here but stays bound: the benchmark's tracer wraps
# `derived.validate_category`, and tests/test_exports.py checks its bindings
from .category import Covering, ForestCategory, validate_category, verify_covering  # noqa: F401

__all__ = [
    "PairAlgebra",
    "pair_closure",
    "witness_forest",
    "witness_context",
    "DerivedCategory",
    "derived_category",
    "WreathMorphism",
    "dct_forward",
    "dct_backward",
    "FactorizationError",
]


class FactorizationError(ValueError):
    """The wreath factorization hypothesis fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class PairAlgebra:
    alpha: Morphism
    beta: Morphism
    h_pairs: tuple  # (alpha H index, beta H index)
    v_pairs: tuple
    h_index: dict
    v_index: dict
    h_derivs: tuple  # ("zero",) | ("add", i, j) | ("act", i, j)
    v_derivs: tuple  # ("one",) | ("letter", i, label) | ("ins", i, j)


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
    return PairAlgebra(
        alpha, beta, g.h_elems, g.v_elems, g.h_index, g.v_index, g.h_derivs, g.v_derivs
    )


# ---------------------------------------------------------------------------
# The derived category


@dataclass
class DerivedCategory:
    category: ForestCategory
    pa: PairAlgebra
    objects: tuple  # object index -> beta H value
    obj_index: dict
    r_sets: tuple  # per object: sorted alpha H values pairing with it
    arrow_keys: tuple  # arrow id -> (start obj, end obj, action vector)
    arrow_rep: tuple  # arrow id -> representative vpair index
    arrow_of: dict  # (vpair index, object index) -> arrow id


def derived_category(pa: PairAlgebra) -> DerivedCategory:
    """Materialize the derived category from a complete pair closure.  Each
    table entry is read off the pair algebra at the arrows and half-arrows
    of one object, so the category obeys every law by construction and is
    not validated here; the tests run `validate_category` on it."""
    a1, a2 = pa.alpha.algebra, pa.beta.algebra
    objects = tuple(sorted({h2 for (_, h2) in pa.h_pairs}))
    obj_index = {x: i for i, x in enumerate(objects)}
    obj_add = tuple(tuple(obj_index.get(a2.add[x][y]) for y in objects) for x in objects)
    if any(None in row for row in obj_add):
        raise ValueError("reachable objects are not closed under addition")
    harr_add = tuple(
        tuple(pa.h_index[a1.add[h1][g1], a2.add[h2][g2]] for g1, g2 in pa.h_pairs)
        for h1, h2 in pa.h_pairs
    )
    harr_end = tuple(obj_index[h2] for (_, h2) in pa.h_pairs)
    harr_one = pa.h_index[(a1.zero, a2.zero)]

    r_sets = tuple(tuple(sorted(h1 for h1, h2 in pa.h_pairs if h2 == x)) for x in objects)

    def key_of(vp_idx, oi):
        v1, v2 = pa.v_pairs[vp_idx]
        x = objects[oi]
        end = obj_index[a2.act[x][v2]]
        vector = tuple(a1.act[h1][v1] for h1 in r_sets[oi])
        return (oi, end, vector)

    # an arrow is a class of vertical pairs placed at a start object
    placed = [(vp_idx, oi) for vp_idx in range(len(pa.v_pairs)) for oi in range(len(objects))]
    arrow_of, firsts = _classes(placed, lambda at: key_of(*at))
    arrow_keys = [key_of(*at) for at in firsts]
    arrow_rep = [vp_idx for vp_idx, _ in firsts]

    arr_size = len(arrow_keys)
    arr_start = tuple(k[0] for k in arrow_keys)
    arr_end = tuple(k[1] for k in arrow_keys)
    one_idx = pa.v_index[(a1.one, a2.one)]
    identity = tuple(arrow_of[(one_idx, oi)] for oi in range(len(objects)))

    arrows_from = [[] for _ in objects]  # per start object, in index order
    for u in range(arr_size):
        arrows_from[arr_start[u]].append(u)
    reps = [pa.v_pairs[vp_idx] for vp_idx in arrow_rep]

    comp, act, ins = {}, {}, {}
    for u, (u1, u2) in enumerate(reps):
        for w in arrows_from[arr_end[u]]:
            w1, w2 = reps[w]
            comp[u, w] = arrow_of[pa.v_index[a1.mul[u1][w1], a2.mul[u2][w2]], arr_start[u]]
        for ci, (h1, h2) in enumerate(pa.h_pairs):
            ins[u, ci] = arrow_of[pa.v_index[a1.ins[u1][h1], a2.ins[u2][h2]], arr_start[u]]
    for ci, (h1, h2) in enumerate(pa.h_pairs):
        for u in arrows_from[harr_end[ci]]:
            act[ci, u] = pa.h_index[a1.act[h1][reps[u][0]], a2.act[h2][reps[u][1]]]

    cat = ForestCategory(
        obj_size=len(objects),
        obj_add=obj_add,
        obj_zero=obj_index[a2.zero],
        harr_size=len(pa.h_pairs),
        harr_add=harr_add,
        harr_one=harr_one,
        harr_end=harr_end,
        arr_size=arr_size,
        arr_start=arr_start,
        arr_end=arr_end,
        identity=identity,
        comp=comp,
        act=act,
        ins=ins,
    )
    return DerivedCategory(
        cat, pa, objects, obj_index, r_sets, tuple(arrow_keys), tuple(arrow_rep), arrow_of
    )


# ---------------------------------------------------------------------------
# The wreath product correspondence, both directions


@dataclass
class WreathMorphism:
    """A morphism from the free algebra into outer o inner, given letterwise;
    vertical images are (function table over inner H, inner V) pairs."""

    outer: ForestAlgebra
    inner: ForestAlgebra
    alphabet: frozenset
    letters: dict  # label -> (f tuple, inner V index)

    def ops(self):
        return WreathOps(self.outer, self.inner)

    def eval_forest(self, s):
        return evaluate_forest(self.ops(), self.letters.__getitem__, s)

    def eval_context(self, p):
        return evaluate_context(self.ops(), self.letters.__getitem__, p)


def dct_forward(dc: DerivedCategory, cov: Covering, budget=100000):
    """From a verified covering of the derived category by (H, V), build a
    tm-division witness of the alpha algebra into (H, V) o (beta algebra).

    A covered pair (cover element, object value) names the alpha value of the
    covered half-arrow; hat(v) picks a realizing context for v and covers its
    arrow at each object by the smallest covering element.  K is generated:
    one smallest cover element per half-arrow, closed under addition and the
    hat actions, so the witness stays small.  Returns (witness, WreathOps
    ambient); the witness passes verify_tm_division.

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

    # psi on all covered pairs, for consistency checks during the closure
    covered = {}
    for ci, (h1, h2) in enumerate(pa.h_pairs):
        for x in cov.half_cover[ci]:
            key = (x, h2)
            if covered.setdefault(key, h1) != h1:
                raise ValueError("covering is not injective on half-arrows")

    hat = {}
    for v1 in range(a1.v_size):
        vp_idx = next((j for j, (w1, _) in enumerate(pa.v_pairs) if w1 == v1), None)
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
            arrow = dc.arrow_of[(vp_idx, oi)]
            f.append(min(cov.arrow_cover[arrow]))
        hat[v1] = (tuple(f), v2)

    # K is generated from one covered element per half-arrow, jointly with
    # psi: the pairs (k, alpha value) close under addition and the hat actions
    seeds = [((min(cov.half_cover[ci]), h2), h1) for ci, (h1, h2) in enumerate(pa.h_pairs)]
    letters = {v1: (vhat, v1) for v1, vhat in hat.items()}
    gen = generate(PairOps(ops, a1), letters, seeds, budget=budget)
    psi = _as_map(gen.h_elems)
    if isinstance(psi, tuple):
        raise ValueError("covering is not functional at %r" % (gen.h_elems[psi[1]][0],))
    for key, value in psi.items():
        if covered.get(key, value) != value:
            raise ValueError("covering violates psi-consistency at %r" % (key,))
    return TmDivisionWitness(tuple(sorted(psi)), psi, hat), ops


def dct_backward(dc: DerivedCategory, delta: WreathMorphism, budget=200000) -> Covering:
    """From a factorization of alpha through outer o (beta algebra), with the
    inner projection of delta equal to beta letterwise, build the covering of
    the derived category by the outer algebra.

    Half-arrow covers collect the outer coordinates of delta on realizing
    forests; arrow covers collect f_q(h) over realizing contexts q.  The
    construction checks the factorization hypotheses and the result passes
    verify_covering.
    """
    pa = dc.pa
    alpha, beta = pa.alpha, pa.beta
    if delta.alphabet != alpha.alphabet:
        raise FactorizationError("delta is over a different alphabet")
    if delta.inner is not beta.algebra and delta.inner != beta.algebra:
        raise FactorizationError("the inner factor of delta must be the beta algebra")
    for a in sorted(alpha.alphabet):
        if delta.letters[a][1] != beta.letters[a]:
            raise FactorizationError(
                "projection of delta disagrees with beta on a letter", witness=a
            )

    letters = {a: (delta.letters[a], alpha.letters[a]) for a in alpha.alphabet}
    gen = generate(PairOps(delta.ops(), alpha.algebra), letters, budget=budget)

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

    half_cover = [set() for _ in range(len(pa.h_pairs))]
    for (dh, ah) in gen.h_elems:
        ho, hi = dh
        ci = pa.h_index.get((ah, hi))
        if ci is None:
            raise FactorizationError("delta inner coordinate strays off the pair closure")
        half_cover[ci].add(ho)

    arrow_cover = [set() for _ in range(len(dc.arrow_keys))]
    for (dv, av) in gen.v_elems:
        f, vi = dv
        vp_idx = pa.v_index.get((av, vi))
        if vp_idx is None:
            raise FactorizationError("delta vertical coordinate strays off the pair closure")
        for oi, h2 in enumerate(dc.objects):
            arrow = dc.arrow_of[(vp_idx, oi)]
            arrow_cover[arrow].add(f[h2])

    cov = Covering(
        delta.outer,
        tuple(frozenset(s) for s in half_cover),
        tuple(frozenset(s) for s in arrow_cover),
    )
    rep = verify_covering(dc.category, delta.outer, cov)
    if not rep.ok:
        raise FactorizationError("constructed covering does not verify: %r" % rep.violations[:3])
    return cov
