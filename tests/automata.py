"""Bottom-up forest automata given by Python functions, with known answers,
shared by the test modules; they mirror `perfbench/corpus.Automaton`."""

import itertools

from forestalg import terms
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
