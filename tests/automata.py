"""Bottom-up forest automata given by Python functions, with known answers,
and the derived-category cases built from them and the samples, shared by
the test modules; the automata mirror `perfbench/corpus.Automaton`."""

import itertools

from forestalg import ktypes, samples, terms
from forestalg.algebra import Morphism, Recognizer, transformation_algebra


def automaton(alphabet, states, zero, add, step, final):
    """The recognizer of a bottom-up automaton given by Python functions."""
    index = {st: i for i, st in enumerate(states)}
    table = [[index[add(x, y)] for y in states] for x in states]
    maps = {a: [index[step(a, st)] for st in states] for a in alphabet}
    alg, letters, _ = transformation_algebra(table, index[zero], maps)
    accept = frozenset(i for i, st in enumerate(states) if final(st))
    return Recognizer(Morphism(alg, terms.make_alphabet(alphabet), letters), accept)


def leaf_depth(alphabet, m, r):
    """Some leaf lies at depth = r (mod m); not LT for m >= 2."""
    subsets = [frozenset(c) for n in range(m + 1) for c in itertools.combinations(range(m), n)]

    def deepen(depths):
        return frozenset((d + 1) % m for d in depths) if depths else frozenset({1 % m})

    return automaton(
        alphabet, subsets, frozenset(), frozenset.union, lambda a, st: deepen(st), lambda st: r in st
    )


def a_above_b(alphabet):
    """Some a has a b descendant: not LT over {a,b,c}, but over {a,b} the
    same as some a having a b child, which is LT."""
    return automaton(
        alphabet,
        [(p, b) for p in (0, 1) for b in (0, 1)],
        (0, 0),
        lambda x, y: (x[0] | y[0], x[1] | y[1]),
        lambda a, st: (st[0] | (a == "a" and st[1]), st[1] | (a == "b")),
        lambda st: st[0] == 1,
    )


def count_xor_depth(alphabet, m, r, d, s):
    """(number of a-nodes = r mod m) xor (some leaf at depth = s mod d); the
    count makes H non-idempotent."""
    subsets = [frozenset(c) for n in range(d + 1) for c in itertools.combinations(range(d), n)]

    def deepen(depths):
        return frozenset((x + 1) % d for x in depths) if depths else frozenset({1 % d})

    return automaton(
        alphabet,
        [(c, x) for c in range(m) for x in subsets],
        (0, frozenset()),
        lambda x, y: ((x[0] + y[0]) % m, x[1] | y[1]),
        lambda a, st: ((st[0] + (a == "a")) % m, deepen(st[1])),
        lambda st: (st[0] == r) != (s in st[1]),
    )


# accept predicates of lt_recognizer over (node types, root types)


def even_node_types(nodes, roots):
    return len(nodes) % 2 == 0


def one_root_type(nodes, roots):
    return len(roots) == 1


def at_most_one_node_type(nodes, roots):
    return len(nodes) <= 1


def _lt(alphabet, pred):
    return lambda: ktypes.lt_recognizer(alphabet, 1, pred).recognizer


# (recognizer maker, depths k) of every small case whose depth-k derived
# category builds and checks its identities in under 2 s on a 2-core host.
# Left out: a_has_b_child("abc") at k = 1 (3.5 s, 7195 arrows).
DERIVED_CASES = {
    "contains_a": (samples.contains_a, (0, 1)),
    "parity_a": (samples.parity_a, (0, 1)),
    "parity_a-a": (lambda: samples.parity_a("a"), (0, 1, 2)),
    "a_has_b_child-ab": (lambda: samples.a_has_b_child("ab"), (0, 1)),
    "a_has_b_child-abc": (lambda: samples.a_has_b_child("abc"), (0,)),
    "empty": (samples.empty_language, (0, 1)),
    "universal": (samples.universal_language, (0, 1)),
    "leaf-depth-a-m2": (lambda: leaf_depth("a", 2, 1), (0, 1, 2)),
    "leaf-depth-a-m3": (lambda: leaf_depth("a", 3, 1), (0, 1, 2)),
    "leaf-depth-a-m4": (lambda: leaf_depth("a", 4, 1), (0, 1, 2)),
    "leaf-depth-ab-m2": (lambda: leaf_depth("ab", 2, 1), (0, 1)),
    "leaf-depth-ab-m3": (lambda: leaf_depth("ab", 3, 1), (0, 1)),
    "a-above-b-ab": (lambda: a_above_b("ab"), (0, 1)),
    "a-above-b-abc": (lambda: a_above_b("abc"), (0, 1)),
    "lt-a-even": (_lt("a", even_node_types), (0, 1, 2)),
    "lt-a-one-root": (_lt("a", one_root_type), (0, 1, 2)),
    "lt-a-one-node": (_lt("a", at_most_one_node_type), (0, 1, 2)),
    "lt-ab-even": (_lt("ab", even_node_types), (0, 1)),
    "lt-ab-one-root": (_lt("ab", one_root_type), (0, 1)),
    "lt-ab-one-node": (_lt("ab", at_most_one_node_type), (0, 1)),
}
