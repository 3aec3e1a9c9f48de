"""Curated small algebras, recognizers and categories used by the demos and
test suite."""

from __future__ import annotations

from .algebra import Morphism, Recognizer, flat_algebra, transformation_algebra
from .category import category_from_json
from .terms import make_alphabet

__all__ = [
    "flat_or",
    "flat_z2",
    "flat_z3",
    "trivial_algebra",
    "flat_max3",
    "flat_trunc3",
    "flat_diamond",
    "flat_subsets",
    "contains_a",
    "parity_a",
    "contains_a_redundant",
    "empty_language",
    "universal_language",
    "a_has_b_child",
    "interval_category",
    "z2_fiber_category",
]


def flat_or():
    """Two-element join semilattice acting on itself; idempotent commutative."""
    return flat_algebra([[0, 1], [1, 1]], 0)


def flat_z2():
    """Z/2 under addition; commutative but not idempotent."""
    return flat_algebra([[0, 1], [1, 0]], 0)


def flat_z3():
    return flat_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)


def trivial_algebra():
    return flat_algebra([[0]], 0)


def flat_max3():
    """Three-element chain under max; idempotent commutative."""
    return flat_algebra([[max(i, j) for j in range(3)] for i in range(3)], 0)


def flat_trunc3():
    """Addition truncated at 2; commutative, not idempotent (1+1=2)."""
    return flat_algebra([[min(i + j, 2) for j in range(3)] for i in range(3)], 0)


def flat_diamond():
    """Subsets of a two-element set under union (a 4-element semilattice)."""
    return flat_subsets(2)


def flat_subsets(n):
    size = 1 << n
    return flat_algebra([[i | j for j in range(size)] for i in range(size)], 0)


def contains_a(alphabet="ab"):
    """Forests containing at least one node labeled a."""
    alphabet = make_alphabet(alphabet)
    alg = flat_or()
    letters = {x: (1 if x == "a" else 0) for x in alphabet}
    return Recognizer(Morphism(alg, alphabet, letters), frozenset({1}))


def parity_a(alphabet="ab"):
    """Forests with an even number of nodes labeled a."""
    alphabet = make_alphabet(alphabet)
    alg = flat_z2()
    letters = {x: (1 if x == "a" else 0) for x in alphabet}
    return Recognizer(Morphism(alg, alphabet, letters), frozenset({0}))


def contains_a_redundant(alphabet="ab"):
    """contains-a over a redundant 3-state algebra (counts a's up to 2), so
    states 1 and 2 are acceptance-equivalent and the syntactic algebra is the
    2-element flat join."""
    alphabet = make_alphabet(alphabet)
    alg = flat_trunc3()
    letters = {x: (1 if x == "a" else 0) for x in alphabet}
    return Recognizer(Morphism(alg, alphabet, letters), frozenset({1, 2}))


def empty_language(alphabet="ab"):
    alphabet = make_alphabet(alphabet)
    alg = flat_or()
    letters = {x: 0 for x in alphabet}
    return Recognizer(Morphism(alg, alphabet, letters), frozenset())


def universal_language(alphabet="ab"):
    alphabet = make_alphabet(alphabet)
    alg = flat_or()
    letters = {x: 0 for x in alphabet}
    return Recognizer(Morphism(alg, alphabet, letters), frozenset({0}))


def a_has_b_child(alphabet="ab"):
    """Forests in which some node labeled a has a child labeled b.

    Built from the obvious bottom-up automaton: a state is a pair
    (pattern seen, some root labeled b), encoded as 2*pattern + broot.
    """
    alphabet = make_alphabet(alphabet)
    if "a" not in alphabet or "b" not in alphabet:
        raise ValueError("needs letters a and b")
    states = [(p, r) for p in (0, 1) for r in (0, 1)]
    index = {s: i for i, s in enumerate(states)}

    def addf(x, y):
        return index[(x[0] | y[0], x[1] | y[1])]

    add = [[addf(x, y) for y in states] for x in states]
    letter_maps = {}
    for lab in alphabet:
        out = []
        for (p, r) in states:
            np = p | (1 if (lab == "a" and r) else 0)
            nr = 1 if lab == "b" else 0
            out.append(index[(np, nr)])
        letter_maps[lab] = out
    alg, letters, _ = transformation_algebra(add, index[(0, 0)], letter_maps)
    accept = frozenset(i for i, (p, r) in enumerate(states) if p)
    return Recognizer(Morphism(alg, alphabet, letters), accept)


def interval_category():
    """Two objects 0 <= 1 under join, one half-arrow per object, and a single
    non-identity arrow 0 -> 1; globally idempotent and commutative."""
    # half-arrows: 0 = e0 (to object 0, the identity), 1 = e1 (to object 1)
    # arrows: 0 = id0, 1 = id1, 2 = u: 0 -> 1
    return category_from_json({
        "objects": {"size": 2, "add": [[0, 1], [1, 1]], "zero": 0},
        "halfarrows": {"size": 2, "add": [[0, 1], [1, 1]], "one": 0, "end": [0, 1]},
        "arrows": [{"start": x, "end": y} for x, y in ((0, 0), (1, 1), (0, 1))],
        "identity": [0, 1],
        "comp": {"0,0": 0, "0,2": 2, "1,1": 1, "2,1": 2},
        "act": {"0,0": 0, "0,2": 1, "1,1": 1},
        "ins": {"0,0": 0, "0,1": 2, "1,0": 1, "1,1": 1, "2,0": 2, "2,1": 2},
    })


def z2_fiber_category():
    """Two objects under join; the half-arrows over object 1 form Z/2 and the
    arrow w adds the generator, so horizontal idempotence fails even though
    the objects are idempotent.  A valid category that is not globally
    idempotent and commutative."""
    # half-arrows: 0 = e0 (identity, to 0), 1 = c1 (to 1), 2 = d1 (to 1)
    # arrows: 0 = id0, 1 = id1, 2 = w: 1 -> 1 (adds c1), 3 = uc, 4 = ud: 0 -> 1
    return category_from_json({
        "objects": {"size": 2, "add": [[0, 1], [1, 1]], "zero": 0},
        "halfarrows": {"size": 3, "add": [[0, 1, 2], [1, 2, 1], [2, 1, 2]], "one": 0, "end": [0, 1, 1]},
        "arrows": [{"start": x, "end": y} for x, y in ((0, 0), (1, 1), (1, 1), (0, 1), (0, 1))],
        "identity": [0, 1],
        "comp": {
            "0,0": 0, "0,3": 3, "0,4": 4,
            "1,1": 1, "1,2": 2,
            "2,1": 2, "2,2": 1,
            "3,1": 3, "3,2": 4,
            "4,1": 4, "4,2": 3,
        },
        "act": {"0,0": 0, "0,3": 1, "0,4": 2, "1,1": 1, "1,2": 2, "2,1": 2, "2,2": 1},
        "ins": {
            "0,0": 0, "0,1": 3, "0,2": 4,
            "1,0": 1, "1,1": 2, "1,2": 1,
            "2,0": 2, "2,1": 1, "2,2": 2,
            "3,0": 3, "3,1": 4, "3,2": 3,
            "4,0": 4, "4,1": 3, "4,2": 4,
        },
    })
