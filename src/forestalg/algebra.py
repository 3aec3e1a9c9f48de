"""Finite forest algebras given by explicit tables.

A finite forest algebra is a pair of monoids (H, V): H commutative, written
additively with identity `zero`; V written multiplicatively with identity
`one`.  V acts on H on the right, the action is faithful, and for every
v in V and h in H there is an insertion element ins(v, h) in V with
g . ins(v, h) = g.v + h for all g.

Tables are 0-based and row-major with the row as the left operand.  All
objects here are immutable; operations are pure.  `validate_algebra` checks
every law where tables enter from outside: in `algebra_from_json`,
`recognizer_from_json` and `flat_algebra`, and on the state monoid given to
`transformation_algebra`.  Algebras built from algebras obey every law by
construction and are not validated; the tests validate them.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import terms
from .terms import Context, Forest, apply_context

__all__ = [
    "AlgebraLawError",
    "BudgetError",
    "ForestAlgebra",
    "FlatMaskAlgebra",
    "Morphism",
    "evaluate_forest",
    "evaluate_context",
    "Recognizer",
    "validate_algebra",
    "flat_algebra",
    "direct_product",
    "algebra_to_json",
    "algebra_from_json",
    "recognizer_to_json",
    "recognizer_from_json",
    "AutomatonOps",
    "PairOps",
    "Generated",
    "generate",
    "witness_forest",
    "witness_context",
    "SyntacticResult",
    "syntactic_algebra",
    "WreathProduct",
    "wreath",
    "WreathOps",
    "wreath_generated",
    "generated_subalgebra",
    "DivisionWitness",
    "TmDivisionWitness",
    "verify_division",
    "verify_tm_division",
    "division_to_tm",
    "tm_to_division",
    "search_division",
]


class AlgebraLawError(ValueError):
    """A forest-algebra law fails; carries the law name and witness indices."""

    def __init__(self, law, where, message):
        super().__init__("%s: %s (witness %r)" % (law, message, where))
        self.law = law
        self.where = where


class BudgetError(RuntimeError):
    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})


def _freeze(table):
    return tuple(tuple(row) for row in table)


@dataclass(frozen=True)
class ForestAlgebra:
    """The tables of a finite forest algebra, taken unchecked."""

    h_size: int
    add: tuple
    zero: int
    v_size: int
    mul: tuple
    one: int
    act: tuple  # act[h][v] -> h
    ins: tuple  # ins[v][h] -> v

    # elementwise ops; the same protocol is offered by WreathOps
    def h_add(self, x, y):
        return self.add[x][y]

    @property
    def h_zero(self):
        return self.zero

    def v_mul(self, u, w):
        return self.mul[u][w]

    @property
    def v_one(self):
        return self.one

    def act_(self, h, v):
        return self.act[h][v]

    def ins_(self, v, h):
        return self.ins[v][h]

    def h_idempotent(self):
        return all(self.add[h][h] == h for h in range(self.h_size))

    def h_nonidempotent_witness(self):
        for h in range(self.h_size):
            if self.add[h][h] != h:
                return h
        return None


def _index_array(table, shape):
    """A table of indices as an integer array.  Entries too large for int64
    are kept as Python ints; they are out of range and the range checks
    report them."""
    try:
        return np.array(table, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(table, dtype=object).reshape(shape)


def _first(mask):
    """Index of the first true entry of a boolean vector, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _check_range(arr, size, law):
    bad = _first(((arr < 0) | (arr >= size)).ravel())
    if bad is not None:
        raise AlgebraLawError(law, (int(arr.flat[bad]),), "entry out of range")


def _row_keys(arr):
    """The bytes of each row of a 2-d integer array, as dict keys."""
    return [row.tobytes() for row in np.ascontiguousarray(arr)]


def _check_monoid(size, table, unit, name, commutative):
    """Check the monoid laws of a size x size table; return it as an array."""
    if len(table) != size or any(len(row) != size for row in table):
        raise AlgebraLawError(name + "-shape", (), "table is not %d x %d" % (size, size))
    t = _index_array(table, (size, size))
    _check_range(t, size, name + "-shape")
    elems = np.arange(size)
    x = _first((t[unit] != elems) | (t[:, unit] != elems)) if size else None
    if x is not None:
        raise AlgebraLawError(name + "-identity", (x,), "unit law fails")
    # row x: commutativity xy = yx, then associativity (xy)z = x(yz) over all
    # y, z; checked one x at a time so no size^3 array is built
    comm_bad = np.zeros(size, dtype=bool)
    for x in range(size):
        if commutative:
            comm_bad = t[x] != t[:, x]
        assoc_bad = t[t[x]] != t[x][t]
        y = _first(comm_bad | assoc_bad.any(axis=1))
        if y is None:
            continue
        if comm_bad[y]:
            raise AlgebraLawError(name + "-commutativity", (x, y), "xy != yx")
        z = _first(assoc_bad[y])
        raise AlgebraLawError(name + "-associativity", (x, y, z), "(xy)z != x(yz)")
    return t


def _check_faithful(act):
    """Raise the lexicographically first pair of equal columns of the act
    array: the first two occurrences of the column repeated first."""
    first_of, clash = {}, None
    for v, column in enumerate(_row_keys(act.T)):
        v1 = first_of.setdefault(column, v)
        if v1 != v and (clash is None or v1 < clash[0]):
            clash = (v1, v)
    if clash is not None:
        raise AlgebraLawError("faithfulness", clash, "distinct v act identically")


def _derive_ins(add, act):
    """ins(v, h) is the unique v' with g.v' = g.v + h for all g: as the action
    is faithful, the element whose act column is column h of add[act[:, v]]."""
    element_of = {column: w for w, column in enumerate(_row_keys(act.T))}
    ins = [[element_of.get(c) for c in _row_keys(add[act[:, v]].T)] for v in range(act.shape[1])]
    missing = next(((v, row.index(None)) for v, row in enumerate(ins) if None in row), None)
    if missing is not None:
        raise AlgebraLawError("insertion-missing", missing, "no element realizes g.v + h")
    return ins


def validate_algebra(h_add, zero, v_mul, one, act, ins=None):
    """Check every forest-algebra law; return the algebra or raise the first
    violation as an AlgebraLawError with concrete indices."""
    h_size = len(h_add)
    v_size = len(v_mul)
    add = _check_monoid(h_size, h_add, zero, "h", commutative=True)
    mul = _check_monoid(v_size, v_mul, one, "v", commutative=False)
    if len(act) != h_size or any(len(row) != v_size for row in act):
        raise AlgebraLawError("action-shape", (), "act is not %d x %d" % (h_size, v_size))
    a = _index_array(act, (h_size, v_size))
    _check_range(a, h_size, "action-shape")
    for h in range(h_size):
        if a[h, one] != h:
            raise AlgebraLawError("action-identity", (h,), "h.1 != h")
        comp_bad = a[a[h]] != a[h][mul]
        v1 = _first(comp_bad.any(axis=1))
        if v1 is not None:
            v2 = _first(comp_bad[v1])
            raise AlgebraLawError("action-composition", (h, v1, v2), "(hv1)v2 != h(v1v2)")
    _check_faithful(a)
    if ins is None:
        ins = _derive_ins(add, a)
    else:
        if len(ins) != v_size or any(len(row) != h_size for row in ins):
            raise AlgebraLawError("insertion-shape", (), "ins is not %d x %d" % (v_size, h_size))
        ins_arr = _index_array(ins, (v_size, h_size))
        for v in range(v_size):
            row = ins_arr[v]
            out_of_range = (row < 0) | (row >= v_size)
            # mismatch[g, h] is g.ins(v, h) != g.v + h
            in_range = np.where(out_of_range, 0, row).astype(np.int64, copy=False)
            mismatch = a[:, in_range] != add[a[:, v]]
            h = _first(out_of_range | mismatch.any(axis=0))
            if h is None:
                continue
            if out_of_range[h]:
                raise AlgebraLawError("insertion-shape", (v, h), "entry out of range")
            g = _first(mismatch[:, h])
            raise AlgebraLawError("insertion", (v, h, g), "g.ins(v,h) != g.v + h")
    return _algebra(h_add, zero, v_mul, one, act, ins)


def _algebra(add, zero, mul, one, act, ins):
    """The ForestAlgebra of the given tables, frozen, with no checks."""
    return ForestAlgebra(
        len(add), _freeze(add), zero, len(mul), _freeze(mul), one, _freeze(act), _freeze(ins)
    )


def flat_algebra(add_table, zero):
    """The flat algebra (H, H) of a commutative monoid acting on itself by
    addition; idempotent H gives the flat idempotent-commutative case."""
    return validate_algebra(add_table, zero, add_table, zero, add_table, add_table)


class FlatMaskAlgebra:
    """The flat idempotent-commutative algebra of all subsets of an n-element
    set under union, with elements represented as bitmasks and no tables.

    Offers the same elementwise protocol as ForestAlgebra, so coverings and
    division witnesses can live over it without materializing 2^n tables.
    """

    def __init__(self, n_symbols):
        self.n_symbols = n_symbols

    @property
    def h_zero(self):
        return 0

    @property
    def v_one(self):
        return 0

    def h_add(self, x, y):
        return x | y

    def v_mul(self, u, w):
        return u | w

    def act_(self, h, v):
        return h | v

    def ins_(self, v, h):
        return v | h

    def __eq__(self, other):
        return isinstance(other, FlatMaskAlgebra) and other.n_symbols == self.n_symbols


# The four operations in report order: (left kind, elementwise operation,
# right kind, result kind, table name, carrier clause, map clause), where a
# kind is "h" or "v".
_OPS = (
    ("h", "h_add", "h", "h", "add", "h-carrier-add-closed", "h-map-add"),
    ("h", "act_", "v", "h", "act", "h-carrier-act-closed", "map-act"),
    ("v", "v_mul", "v", "v", "mul", "v-carrier-mul-closed", "v-map-mul"),
    ("v", "ins_", "h", "v", "ins", "v-carrier-ins-closed", "map-ins"),
)


def _products(ops, h_elems, v_elems):
    """One row per element x and operation: (entry of _OPS, x, the right
    operands y, the products x op y), in report order: the H elements, then
    the V elements, each with its operations in _OPS order."""
    elems = {"h": h_elems, "v": v_elems}
    for kind in ("h", "v"):
        row = [(e, getattr(ops, e[1]), elems[e[2]]) for e in _OPS if e[0] == kind]
        for x in elems[kind]:
            for entry, op, rights in row:
                yield entry, x, rights, [op(x, y) for y in rights]


def _map_failures(ops, h_elems, v_elems, h_map, v_map, target):
    """Yield (map clause, (x, y)) for each product of the elements under
    `ops` whose image under h_map and v_map is not the product of the images
    in the target's tables, in report order."""
    maps = {"h": h_map, "v": v_map}
    for entry, x, rights, products in _products(ops, h_elems, v_elems):
        left, _, right, result, name, _, clause = entry
        row, image, right_image = getattr(target, name)[maps[left][x]], maps[result], maps[right]
        for y, z in zip(rights, products):
            if image[z] != row[right_image[y]]:
                yield clause, (x, y)


def _classes(elems, signature):
    """Number the classes of elements with equal signatures in order of first
    appearance; return each element's class and each class's first element."""
    class_of, first, number = {}, [], {}
    for x in elems:
        c = class_of[x] = number.setdefault(signature(x), len(first))
        if c == len(first):
            first.append(x)
    return class_of, first


def direct_product(a, b):
    """Componentwise product algebra, with index = i_a * b_size + i_b."""
    hs = list(itertools.product(range(a.h_size), range(b.h_size)))
    vs = list(itertools.product(range(a.v_size), range(b.v_size)))
    h_index, v_index = {x: i for i, x in enumerate(hs)}, {u: i for i, u in enumerate(vs)}
    add, act, mul, ins = _all_tables(PairOps(a, b), hs, h_index, vs, v_index)
    _check_faithful(np.array(act))  # a factor built directly may be unfaithful
    alg = _algebra(add, h_index[a.zero, b.zero], mul, v_index[a.one, b.one], act, ins)
    return alg, hs, vs


# ---------------------------------------------------------------------------
# Morphisms and recognizers


@dataclass(frozen=True)
class Morphism:
    """The unique extension of a letter-to-V map to the free forest algebra."""

    algebra: ForestAlgebra
    alphabet: frozenset
    letters: dict  # label -> V index

    def __post_init__(self):
        for a in self.alphabet:
            if a not in self.letters:
                raise ValueError("letter map not total: missing %r" % a)

    def letter(self, a):
        try:
            return self.letters[a]
        except KeyError:
            raise terms.UnknownLabelError(a, 0) from None

    def eval_forest(self, s: Forest) -> int:
        return evaluate_forest(self.algebra, self.letter, s)

    def eval_context(self, p: Context) -> int:
        return evaluate_context(self.algebra, self.letter, p)


def evaluate_forest(ops, letter, s: Forest):
    """The value of s under the morphism that sends each label a to the V
    element letter(a) of `ops`, which offers the elementwise protocol.

    Iterative, so any depth evaluates: the stack holds one entry per level
    above the one being summed, with that level's remaining trees, its sum
    so far and the tree above it.  Each distinct tree object is evaluated
    once, so the equal subtrees that a parse shares cost one lookup each."""
    h_add, act, zero = ops.h_add, ops.act_, ops.h_zero
    stack, value_of = [], {}  # value_of: the id of a tree of s, alive while s is, -> its value
    trees, h, tree = iter(s.trees), zero, None
    while True:
        for t in trees:
            value = value_of.get(id(t))
            if value is None:
                if t.children.trees:
                    stack.append((trees, h, tree))
                    trees, h, tree = iter(t.children.trees), zero, t
                    break
                value = value_of[id(t)] = act(zero, letter(t.label))
            h = h_add(h, value)
        else:
            if not stack:
                return h
            value = value_of[id(tree)] = act(h, letter(tree.label))
            trees, h, tree = stack.pop()
            h = h_add(h, value)


def evaluate_context(ops, letter, p: Context):
    """The value of context p, as `evaluate_forest`: the spine is walked down
    to the hole, then folded back up with one letter and one rest per step."""
    steps = [p]
    while steps[-1].spine is not None:
        steps.append(steps[-1].spine[1])
    v = ops.v_one
    for q in reversed(steps):
        if q.spine is not None:
            v = ops.v_mul(v, letter(q.spine[0]))
        if q.rest.trees:
            v = ops.v_mul(v, ops.ins_(ops.v_one, evaluate_forest(ops, letter, q.rest)))
    return v


@dataclass(frozen=True)
class Recognizer:
    morphism: Morphism
    accept: frozenset  # subset of H indices

    def __post_init__(self):
        for h in self.accept:
            if not (0 <= h < self.morphism.algebra.h_size):
                raise ValueError("accept state %r out of range" % (h,))

    @property
    def algebra(self):
        return self.morphism.algebra

    @property
    def alphabet(self):
        return self.morphism.alphabet

    def accepts(self, s: Forest) -> bool:
        return self.morphism.eval_forest(s) in self.accept


# ---------------------------------------------------------------------------
# JSON file formats


def algebra_to_json(alg):
    return {
        "h": {"size": alg.h_size, "add": [list(r) for r in alg.add], "zero": alg.zero},
        "v": {"size": alg.v_size, "mul": [list(r) for r in alg.mul], "one": alg.one},
        "act": [list(r) for r in alg.act],
        "ins": [list(r) for r in alg.ins],
    }


def algebra_from_json(data):
    h = data["h"]
    v = data["v"]
    return validate_algebra(h["add"], h["zero"], v["mul"], v["one"], data["act"], data.get("ins"))


def recognizer_to_json(rec):
    out = algebra_to_json(rec.algebra)
    out["alphabet"] = sorted(rec.alphabet)
    out["letters"] = {a: rec.morphism.letters[a] for a in sorted(rec.alphabet)}
    out["accept"] = sorted(rec.accept)
    return out


def recognizer_from_json(data):
    alg = algebra_from_json(data)
    alphabet = terms.make_alphabet(data["alphabet"])
    letters = dict(data["letters"])
    for a, v in letters.items():
        if a not in alphabet:
            raise ValueError("letter %r not in alphabet" % a)
        if not (0 <= v < alg.v_size):
            raise ValueError("letter %r maps outside V" % a)
    m = Morphism(alg, alphabet, letters)
    return Recognizer(m, frozenset(data["accept"]))


class AutomatonOps:
    """A deterministic bottom-up forest automaton in the elementwise protocol:
    H is a state index and V the tuple of states that a context sends each
    state to; `add` is the state addition table, `letters` maps each label to
    its tuple, and `states` optionally names the state of each index."""

    def __init__(self, add, zero, letters, states=None):
        self.add = add
        self.h_zero = zero
        self.v_one = tuple(range(len(add)))
        self.letters = letters
        self.states = states

    def h_add(self, x, y):
        return self.add[x][y]

    def v_mul(self, u, w):
        return tuple(map(w.__getitem__, u))  # u, then w

    def act_(self, h, v):
        return v[h]

    def ins_(self, v, h):
        return tuple(map(self.add[h].__getitem__, v))  # v, then add h


def transformation_algebra(h_add, zero, letter_maps, budget=100000):
    """Forest algebra of a deterministic bottom-up forest automaton.

    Takes a commutative state monoid (h_add, zero) and one transition map per
    letter.  H is the states, numbered as given.  V is the transformation
    monoid on the states generated by the letter maps and the add-with-state
    maps, closed by `generate` and numbered in its admission order (V
    element 0 is the identity).  As ins(v, g + h) = ins(ins(v, g), h), the
    tree states (letter images of reachable states) generate the maps that
    add a reachable state; the states this closure does not reach are
    `h_gens` of a second one.  The tables are read off that closure's rows
    by `_gen_tables`.  A monoid of transformations acts faithfully and
    inserts by addition, so only the inputs are validated.  Raises
    BudgetError once the closed states plus the V elements exceed `budget`.
    Returns the algebra, the letter map into V and the `Generated` closure,
    whose V elements are the transformation tuples; `witness_context`
    replays each unless its derivation inserts an unreachable state (then
    ValueError)."""
    n = len(h_add)
    add = _check_monoid(n, h_add, zero, "h", commutative=True)
    letters = {}
    for a in sorted(letter_maps):
        tau = tuple(letter_maps[a])
        if len(tau) != n or any(not (0 <= x < n) for x in tau):
            raise ValueError("letter map for %r is not a transformation of the states" % a)
        letters[a] = tau
    ops = AutomatonOps(add.tolist(), zero, letters)
    gen = generate(ops, letters, budget=budget)
    unreached = [h for h in range(n) if h not in gen.h_index]
    if unreached:
        gen = generate(ops, letters, h_gens=unreached, budget=budget)
    # H keeps the state numbers (range(n) maps each to itself), V admission order
    add, act, mul, ins = _gen_tables(gen, range(n), range(n), gen.v_elems, gen.v_index)
    alg = _algebra(add, zero, mul, 0, act, ins)
    return alg, {a: gen.v_index[tau] for a, tau in letters.items()}, gen


# ---------------------------------------------------------------------------
# Generated subalgebras and derivation replay


class PairOps:
    """Componentwise arithmetic in the product of two algebras that offer the
    elementwise protocol; elements are (first, second) pairs."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    @property
    def h_zero(self):
        return (self.first.h_zero, self.second.h_zero)

    @property
    def v_one(self):
        return (self.first.v_one, self.second.v_one)

    def h_add(self, x, y):
        return (self.first.h_add(x[0], y[0]), self.second.h_add(x[1], y[1]))

    def v_mul(self, u, w):
        return (self.first.v_mul(u[0], w[0]), self.second.v_mul(u[1], w[1]))

    def act_(self, x, u):
        return (self.first.act_(x[0], u[0]), self.second.act_(x[1], u[1]))

    def ins_(self, u, x):
        return (self.first.ins_(u[0], x[0]), self.second.ins_(u[1], x[1]))


@dataclass
class Generated:
    """Elements in admission order, their indices, and one derivation each:
    ("zero",) | ("gen", i) | ("add", i, j) | ("act", i, j) for H, and
    ("one",) | ("letter", i, label) | ("ins", i, j) for V, where i and j
    index earlier elements (act: H then V; ins: V then H).  Row x of h_rows
    (v_rows) holds the indices of x act_ (v_mul) each letter image in label
    order, then of x h_add (ins_) each additive generator in admission order."""

    h_elems: tuple
    v_elems: tuple
    h_index: dict
    v_index: dict
    h_derivs: tuple
    v_derivs: tuple
    h_rows: tuple = ()
    v_rows: tuple = ()


def generate(ops, letters, h_gens=(), *, budget):
    """The least H containing zero and `h_gens` and the least V containing
    one that are closed under h_add and act_ (H) and under v_mul and ins_
    (V), closed by generators.  The additive generators are the elements
    admitted as one of `h_gens` or as a tree value x g (x in H, g a letter
    image).  H closes under adding them and under the letter actions, V under
    right multiplication by the letter images and under ins(v, t) for the
    generators t.  In a forest algebra that is enough: every H element is a
    sum of generators, and ins(v, h) = v ins(one, h) is additive in h.

    `ops` offers the elementwise protocol; `letters` maps labels to V
    elements.  Each element meets each generator and letter once, so the
    work is O((|H| + |V|)(#generators + #letters)), and the products are kept
    as the rows that `_gen_tables` reads; raises BudgetError once |H| + |V|
    exceeds `budget`."""
    h_add, v_mul, act, ins = ops.h_add, ops.v_mul, ops.act_, ops.ins_
    gens = sorted(letters.items())
    H = h_elems, h_index, h_derivs = [], {}, []
    V = v_elems, v_index, v_derivs = [], {}, []
    adds, h_rows, v_rows = [], [], []  # the generators' H indices; processed elements' rows

    def admit(elems, index, derivs, x, deriv):
        if x not in index:
            index[x] = len(elems)
            elems.append(x)
            derivs.append(deriv)
            if deriv[0] in ("gen", "act"):
                adds.append(index[x])
            if len(h_elems) + len(v_elems) > budget:
                raise BudgetError(
                    "generated closure exceeded budget",
                    {"h": len(h_elems), "v": len(v_elems), "budget": budget},
                )
        return index[x]

    admit(*V, ops.v_one, ("one",))
    admit(*H, ops.h_zero, ("zero",))
    for i, x in enumerate(h_gens):
        admit(*H, x, ("gen", i))
    # processed: the elements with rows and the generators below ti; a generator
    # meets the elements processed before it, the later ones meet it in turn
    ti = 0
    while ti < len(adds) or len(v_rows) < len(v_elems) or len(h_rows) < len(h_elems):
        if ti < len(adds):
            j = adds[ti]
            for i, row in enumerate(h_rows):
                row.append(admit(*H, h_add(h_elems[i], h_elems[j]), ("add", i, j)))
            for i, row in enumerate(v_rows):
                row.append(admit(*V, ins(v_elems[i], h_elems[j]), ("ins", i, j)))
            ti += 1
        elif len(v_rows) < len(v_elems):
            vi, row = len(v_rows), []
            for a, g in gens:
                row.append(admit(*V, v_mul(v_elems[vi], g), ("letter", vi, a)))
            for j in adds[:ti]:
                row.append(admit(*V, ins(v_elems[vi], h_elems[j]), ("ins", vi, j)))
            v_rows.append(row)
        else:
            hi, row = len(h_rows), []
            for _, g in gens:
                row.append(admit(*H, act(h_elems[hi], g), ("act", hi, v_index[g])))
            for j in adds[:ti]:
                row.append(admit(*H, h_add(h_elems[hi], h_elems[j]), ("add", hi, j)))
            h_rows.append(row)
    return Generated(
        tuple(h_elems), tuple(v_elems), h_index, v_index, tuple(h_derivs), tuple(v_derivs),
        tuple(h_rows), tuple(v_rows),
    )


def _gen_arrays(gen):
    """The add, act, mul and ins tables of a `Generated` over its admission
    indices, column by column along the derivations.  Row column c multiplies
    by a letter image or by ins(one, t) (g + t = g ins(one, t)), so if row i
    holds w at c, then u w = (u v_i) c and h w = (h v_i) c; and g + (h_i + t)
    = (g + h_i) + t, ins(v, h_i + t) = ins(ins(v, h_i), t)."""
    hr, vr = np.array(gen.h_rows, dtype=np.int32), np.array(gen.v_rows, dtype=np.int32)
    (nh, width), nv = hr.shape, len(vr)
    adds = [h for h, d in enumerate(gen.h_derivs) if d[0] in ("gen", "act")]
    column = {t: c for c, t in enumerate(adds, width - len(adds))}
    add, act, mul, ins = (np.empty(s, np.int32) for s in ((nh, nh), (nh, nv), (nv, nv), (nv, nh)))
    # zero and one are element 0 of H and V; a generator t is zero + t
    add[:, 0], act[:, 0], mul[:, 0], ins[:, 0] = range(nh), range(nh), range(nv), range(nv)
    for h, d in enumerate(gen.h_derivs[1:], 1):
        i, c = (d[1], column[d[2]]) if d[0] == "add" else (0, column[h])
        add[:, h], ins[:, h] = hr[add[:, i], c], vr[ins[:, i], c]
    for w, d in enumerate(gen.v_derivs[1:], 1):
        c = gen.v_rows[d[1]].index(w)
        act[:, w], mul[:, w] = hr[act[:, d[1]], c], vr[mul[:, d[1]], c]
    return add, act, mul, ins


def _gen_tables(gen, h_elems, h_index, v_elems, v_index, arrays=None):
    """The add, act, mul and ins tables of elements of a `Generated`, read off
    its rows: row x, column y is the index (maybe of a class) of x op y.
    `arrays` are its `_gen_arrays` if already built."""
    pick = {"h": [gen.h_index[x] for x in h_elems], "v": [gen.v_index[u] for u in v_elems]}
    number = {"h": np.array([h_index[x] for x in gen.h_elems], dtype=np.int32)}
    number["v"] = np.array([v_index[u] for u in gen.v_elems], dtype=np.int32)
    return [
        number[result][table[np.ix_(pick[left], pick[right])]].tolist()
        for (left, _, right, result, *_), table in zip(_OPS, arrays or _gen_arrays(gen))
    ]


def _all_tables(ops, h_elems, h_index, v_elems, v_index):
    """`_gen_tables` of all the given elements, which must be closed under
    `ops`: each one is a generator, so each product is an entry of a row."""
    gen = generate(ops, dict(enumerate(v_elems)), h_elems, budget=len(h_elems) + len(v_elems))
    return _gen_tables(gen, h_elems, h_index, v_elems, v_index)


def _as_map(pairs):
    """The map x -> y of a list of (x, y) pairs, or the indices (i, j) of the
    first two pairs that share x but differ in y."""
    first = {}
    for j, (x, y) in enumerate(pairs):
        i = first.setdefault(x, j)
        if pairs[i][1] != y:
            return i, j
    return {x: pairs[i][1] for x, i in first.items()}


# derivation step -> its operands' kinds and the term built from their terms
_STEPS = {
    "zero": ("", lambda d: terms.EMPTY),
    "add": ("hh", lambda d, s, t: s + t),
    "act": ("hv", lambda d, s, p: apply_context(s, p)),
    "one": ("", lambda d: terms.HOLE),
    "letter": ("v", lambda d, p: terms.compose(p, Context(terms.EMPTY, (d[2], terms.HOLE)))),
    "ins": ("vh", lambda d, p, s: terms.compose(p, Context(s, None))),
}


def _replay(gen, kind, i, done=None):
    """Replay derivation i of kind "h" or "v" of a `Generated` into a term,
    operands first from an explicit stack, each at most once per memo `done`."""
    derivs = {"h": gen.h_derivs, "v": gen.v_derivs}
    done, stack = {} if done is None else done, [(kind, i)]
    while stack:
        at = stack[-1]
        d = derivs[at[0]][at[1]]
        if d[0] == "gen":
            raise ValueError(
                "H element %d is h_gens[%d] and has no term to replay" % (at[1], d[1])
            )
        kinds, build = _STEPS[d[0]]
        operands = list(zip(kinds, d[1:]))
        todo = [o for o in operands if o not in done]
        stack.extend(todo)
        if not todo:
            stack.pop()
            if at not in done:  # it was on the stack twice
                done[at] = build(d, *map(done.get, operands))
    return done[kind, i]


def witness_forest(gen, i) -> Forest:
    """A forest evaluating to horizontal element i of a `Generated`; raises
    ValueError when its derivation reaches an element of `h_gens`."""
    return _replay(gen, "h", i)


def witness_context(gen, j) -> Context:
    """A context evaluating to vertical element j of a `Generated`, with the
    same ValueError as `witness_forest`."""
    return _replay(gen, "v", j)


class _Replayed(Sequence):
    """The terms of chosen elements of one kind of a `Generated`, each
    replayed when read, through a shared `_replay` memo."""

    def __init__(self, gen, kind, elems, done):
        self.gen, self.kind, self.elems, self.done = gen, kind, elems, done

    def __len__(self):
        return len(self.elems)

    def __getitem__(self, i):
        return _replay(self.gen, self.kind, self.elems[i], self.done)


@dataclass
class SyntacticResult:
    algebra: ForestAlgebra
    h_map: dict  # reachable input H index -> syntactic H index
    v_map: dict  # reachable input V index -> syntactic V index
    recognizer: Recognizer
    h_terms: Sequence  # representative Forest per syntactic H element, replayed on read
    v_terms: Sequence  # representative Context per syntactic V element, replayed on read


def syntactic_algebra(rec: Recognizer) -> SyntacticResult:
    """Minimal algebra recognizing the same language: restrict to the part
    reachable from the letters, identify the H elements that no context
    separates, and identify the V elements that act alike on those classes.

    The first partition is already a congruence, so no refinement follows.
    Contexts alone are experiment-complete because 1 + g = ins(one, g) lies
    in V: h + g is h ins(one, g), and h v w is h (v w), so a context that
    separates h + g from h' + g, or h v from h' v, separates h from h'.

    Classes are keyed by the bytes of their acceptance rows (H) and class
    columns (V) and gathered from the input's tables; a quotient by a
    congruence obeys every law its input does, so none is checked here.
    """
    alg = rec.algebra
    gen = generate(alg, rec.morphism.letters, budget=alg.h_size + alg.v_size)
    hs = sorted(gen.h_index)
    vs = sorted(gen.v_index)
    reach = np.array(alg.act)[np.ix_(hs, vs)]  # the reachable H are closed under the action
    accepting = np.array([h in rec.accept for h in range(alg.h_size)])
    h_class, h_reps = _classes(hs, dict(zip(hs, _row_keys(accepting[reach]))).get)
    of = {"h": np.array([h_class.get(h, 0) for h in range(alg.h_size)])}  # 0 if unreachable
    v_class, v_reps = _classes(vs, dict(zip(vs, _row_keys(of["h"][reach].T))).get)
    of["v"] = np.array([v_class.get(v, 0) for v in range(alg.v_size)])
    reps = {"h": h_reps, "v": v_reps}
    add, act, mul, ins = (
        of[result][np.array(getattr(alg, name))[np.ix_(reps[left], reps[right])]].tolist()
        for left, _, right, result, name, *_ in _OPS
    )
    syn = _algebra(add, h_class[alg.zero], mul, v_class[alg.one], act, ins)

    letters = {a: v_class[rec.morphism.letters[a]] for a in rec.alphabet}
    morphism = Morphism(syn, rec.alphabet, letters)
    new_accept = frozenset(h_class[h] for h in hs if h in rec.accept)
    out_rec = Recognizer(morphism, new_accept)

    done = {}  # one replay memo for all the representatives
    h_terms = _Replayed(gen, "h", [gen.h_index[h] for h in h_reps], done)
    v_terms = _Replayed(gen, "v", [gen.v_index[v] for v in v_reps], done)
    return SyntacticResult(syn, h_class, v_class, out_rec, h_terms, v_terms)


# ---------------------------------------------------------------------------
# Wreath products


class WreathOps:
    """Elementwise arithmetic in outer o inner without materializing tables.

    Horizontal elements are pairs (h_outer, h_inner); vertical elements are
    pairs (f, v_inner) with f a tuple over inner H of outer V elements.
    Action: (h, k)(f, v) = (h . f(k), k . v).  The inner factor must carry
    tables; the outer factor only needs the elementwise protocol, so a
    FlatMaskAlgebra works there.
    """

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner

    @property
    def h_zero(self):
        return (self.outer.h_zero, self.inner.zero)

    @property
    def v_one(self):
        return (tuple(self.outer.v_one for _ in range(self.inner.h_size)), self.inner.one)

    def h_add(self, x, y):
        return (self.outer.h_add(x[0], y[0]), self.inner.add[x[1]][y[1]])

    def v_mul(self, u, w):
        f1, v1 = u
        f2, v2 = w
        inner = self.inner
        f = tuple(
            self.outer.v_mul(f1[k], f2[inner.act[k][v1]]) for k in range(inner.h_size)
        )
        return (f, inner.mul[v1][v2])

    def act_(self, x, u):
        f, v = u
        return (self.outer.act_(x[0], f[x[1]]), self.inner.act[x[1]][v])

    def ins_(self, u, x):
        f, v = u
        g = tuple(self.outer.ins_(f[k], x[0]) for k in range(self.inner.h_size))
        return (g, self.inner.ins[v][x[1]])


@dataclass
class WreathProduct:
    algebra: ForestAlgebra
    outer: ForestAlgebra
    inner: ForestAlgebra
    h_pairs: tuple  # wreath H index -> (h_outer, h_inner)
    v_pairs: tuple  # wreath V index -> (f tuple, v_inner), the least of its class
    h_index: dict
    v_index: dict  # every (f tuple, v_inner) pair of the algebra -> wreath V index
    pi_h: tuple  # projection onto the inner coordinate
    pi_v: tuple

    def pi_check(self):
        """Exhaustively verify that the inner-coordinate projection is a
        forest algebra homomorphism onto the inner factor, table by table."""
        alg, pi = self.algebra, dict(h=np.array(self.pi_h), v=np.array(self.pi_v))
        same = [pi["h"][alg.zero] == self.inner.zero, pi["v"][alg.one] == self.inner.one]
        for left, _, right, result, name, _, _ in _OPS:
            image, at = pi[result][np.array(getattr(alg, name))], np.ix_(pi[left], pi[right])
            same.append(np.array_equal(image, np.array(getattr(self.inner, name))[at]))
        return all(same)


def wreath(outer, inner, budget=100000):
    """Full wreath product outer o inner with explicit tables.

    Horizontal part is the direct product; vertical elements are pairs of a
    function table inner-H -> outer-V and an inner V element.
    """
    v_count = outer.v_size ** inner.h_size * inner.v_size
    if v_count > budget:
        raise BudgetError(
            "wreath vertical monoid needs %d elements (budget %d)" % (v_count, budget),
            {"required": v_count, "budget": budget},
        )
    ops = WreathOps(outer, inner)
    h_elems = list(itertools.product(range(outer.h_size), range(inner.h_size)))
    functions = itertools.product(range(outer.v_size), repeat=inner.h_size)
    v_elems = list(itertools.product(functions, range(inner.v_size)))
    h_index = {x: i for i, x in enumerate(h_elems)}
    v_index = {u: i for i, u in enumerate(v_elems)}
    add, act, mul, ins = _all_tables(ops, h_elems, h_index, v_elems, v_index)
    _check_faithful(np.array(act))  # faithful if both factors are; one built directly may not be
    alg = _algebra(add, h_index[ops.h_zero], mul, v_index[ops.v_one], act, ins)
    pi_h = tuple(p[1] for p in h_elems)
    pi_v = tuple(p[1] for p in v_elems)
    return WreathProduct(
        alg, outer, inner, tuple(h_elems), tuple(v_elems), h_index, v_index, pi_h, pi_v
    )


def wreath_generated(outer, inner, v_gens, h_gens=(), budget=20000):
    """The subalgebra of outer o inner generated by the given vertical pairs
    (and optional horizontal pairs), materialized as tables.

    Generated vertical pairs that act identically on the generated horizontal
    part are one element of the faithful quotient: `v_pairs` holds the
    smallest pair of each class and `v_index` maps every generated pair to its
    class.
    """
    ops = WreathOps(outer, inner)
    letters = dict(enumerate((tuple(f), v) for f, v in v_gens))
    gen = generate(ops, letters, h_gens, budget=budget)
    arrays = _gen_arrays(gen)
    h_elems = sorted(gen.h_index)
    h_index = {x: i for i, x in enumerate(h_elems)}
    column = _row_keys(arrays[1].T)  # the act column of each pair, its class signature
    v_index, v_elems = _classes(sorted(gen.v_index), lambda u: column[gen.v_index[u]])
    add, act, mul, ins = _gen_tables(gen, h_elems, h_index, v_elems, v_index, arrays)
    alg = _algebra(add, h_index[ops.h_zero], mul, v_index[ops.v_one], act, ins)
    pi_h = tuple(p[1] for p in h_elems)
    pi_v = tuple(p[1] for p in v_elems)
    return WreathProduct(
        alg, outer, inner, tuple(h_elems), tuple(v_elems), h_index, v_index, pi_h, pi_v
    )


def generated_subalgebra(alg, h_gens=(), v_gens=()):
    """Smallest index sets closed under add, mul, act and ins containing the
    generators plus zero and one, found by `generate`, with the restricted
    tables and the sorted embeddings.

    The restriction can lose faithfulness; validate separately if needed.
    """
    gen = generate(alg, dict(enumerate(v_gens)), h_gens, budget=alg.h_size + alg.v_size)
    h_embed = tuple(sorted(gen.h_index))
    v_embed = tuple(sorted(gen.v_index))
    h_index = {h: i for i, h in enumerate(h_embed)}
    v_index = {v: i for i, v in enumerate(v_embed)}
    add, act, mul, ins = _gen_tables(gen, h_embed, h_index, v_embed, v_index)
    sub = _algebra(add, h_index[alg.zero], mul, v_index[alg.one], act, ins)
    return sub, h_embed, v_embed


# ---------------------------------------------------------------------------
# Division and tm-division


@dataclass
class DivisionWitness:
    """target divides ambient: a subalgebra of the ambient (carriers) and a
    surjective pair of maps onto the target compatible with all operations."""

    h_carrier: tuple  # ambient H elements
    v_carrier: tuple  # ambient V elements
    h_map: dict  # ambient H element -> target H index
    v_map: dict  # ambient V element -> target V index


@dataclass
class TmDivisionWitness:
    """Transformation-monoid style division: a submonoid K of the ambient H,
    a surjective homomorphism psi onto the target H, and a chosen ambient
    vertical element hat(v) per target v with K.hat(v) in K and
    psi(k.hat(v)) = psi(k).v."""

    k_elements: tuple
    psi: dict
    hat: dict


@dataclass
class CheckReport:
    ok: bool
    violations: list = field(default_factory=list)

    def fail(self, clause, where):
        self.ok = False
        self.violations.append((clause, where))


def verify_division(target, ambient, w: DivisionWitness) -> CheckReport:
    rep = CheckReport(True)
    hc = list(w.h_carrier)
    vc = list(w.v_carrier)
    carrier = {"h": set(hc), "v": set(vc)}
    if ambient.h_zero not in carrier["h"]:
        rep.fail("h-carrier-zero", ())
    if ambient.v_one not in carrier["v"]:
        rep.fail("v-carrier-one", ())
    for (_, _, _, result, _, clause, _), x, rights, products in _products(ambient, hc, vc):
        for y, z in zip(rights, products):
            if z not in carrier[result]:
                rep.fail(clause, (x, y))
    if not rep.ok:
        return rep
    hm, vm = w.h_map, w.v_map
    if set(hm) != carrier["h"] or set(vm) != carrier["v"]:
        rep.fail("map-domain", ())
        return rep
    if set(hm.values()) != set(range(target.h_size)):
        rep.fail("h-map-surjective", ())
    if set(vm.values()) != set(range(target.v_size)):
        rep.fail("v-map-surjective", ())
    if hm[ambient.h_zero] != target.zero:
        rep.fail("h-map-zero", ())
    if vm[ambient.v_one] != target.one:
        rep.fail("v-map-one", ())
    for clause, where in _map_failures(ambient, hc, vc, hm, vm, target):
        rep.fail(clause, where)
    return rep


def verify_tm_division(target, ambient, w: TmDivisionWitness) -> CheckReport:
    """ambient may be a ForestAlgebra or a WreathOps (lazy wreath)."""
    rep = CheckReport(True)
    ks = list(w.k_elements)
    kset = set(ks)
    if ambient.h_zero not in kset:
        rep.fail("k-zero", ())
    for x in ks:
        for y in ks:
            if ambient.h_add(x, y) not in kset:
                rep.fail("k-add-closed", (x, y))
    if set(w.psi) != kset:
        rep.fail("psi-domain", ())
        return rep
    if set(w.psi.values()) != set(range(target.h_size)):
        rep.fail("psi-surjective", ())
    if not rep.ok:
        return rep
    if w.psi[ambient.h_zero] != target.zero:
        rep.fail("psi-zero", ())
    for x in ks:
        for y in ks:
            if w.psi[ambient.h_add(x, y)] != target.add[w.psi[x]][w.psi[y]]:
                rep.fail("psi-homomorphism", (x, y))
    if set(w.hat) != set(range(target.v_size)):
        rep.fail("hat-domain", ())
        return rep
    for v, vhat in w.hat.items():
        for k in ks:
            img = ambient.act_(k, vhat)
            if img not in kset:
                rep.fail("k-hat-closed", (k, v))
            elif w.psi[img] != target.act[w.psi[k]][v]:
                rep.fail("psi-equivariance", (k, v))
    return rep


def division_to_tm(target, ambient, w: DivisionWitness) -> TmDivisionWitness:
    """Forward direction of the equivalence of the two division notions:
    K is the horizontal carrier, psi the horizontal map, and hat(v) any
    carrier element mapping to v (smallest, for reproducibility)."""
    rep = verify_division(target, ambient, w)
    if not rep.ok:
        raise ValueError("invalid division witness: %r" % rep.violations[:3])
    hat = {}
    for u in sorted(w.v_carrier):
        v = w.v_map[u]
        hat.setdefault(v, u)
    return TmDivisionWitness(tuple(w.h_carrier), dict(w.h_map), hat)


def tm_to_division(target, ambient, w: TmDivisionWitness, budget=200000) -> DivisionWitness:
    """Backward direction, via the free algebra over one letter per target V
    element: delta sends the letter for v to hat(v), gamma sends it to v, and
    the joint reachable image of (delta, gamma) gives the carrier and maps."""
    rep = verify_tm_division(target, ambient, w)
    if not rep.ok:
        raise ValueError("invalid tm-division witness: %r" % rep.violations[:3])
    gen = generate(PairOps(ambient, target), {v: (w.hat[v], v) for v in w.hat}, budget=budget)
    h_map, v_map = _as_map(gen.h_elems), _as_map(gen.v_elems)
    for m, elems in ((h_map, gen.h_elems), (v_map, gen.v_elems)):
        if isinstance(m, tuple):
            x = elems[m[1]][0]
            raise ValueError("delta image does not determine the target value at %r" % (x,))
    return DivisionWitness(tuple(sorted(h_map)), tuple(sorted(v_map)), h_map, v_map)


def search_division(target, ambient, h_cap=8, v_cap=12, max_gens=3):
    """Exhaustive search for a division witness of target into ambient.

    Enumerates vertical generator subsets of the ambient (by size, then
    lexicographically) and all assignments of target V elements to the
    generators; the joint image of an assignment, generated in the product,
    forces the images of all other elements.  Returns the first candidate
    that verifies, or None.
    """
    if ambient.h_size > h_cap or ambient.v_size > v_cap:
        raise BudgetError(
            "ambient too large for search (|H|=%d cap %d, |V|=%d cap %d)"
            % (ambient.h_size, h_cap, ambient.v_size, v_cap)
        )
    ops = PairOps(ambient, target)
    # the product has no more elements than this, so the budget never binds
    budget = ambient.h_size * target.h_size + ambient.v_size * target.v_size
    for size in range(0, min(max_gens, ambient.v_size) + 1):
        for gens in itertools.combinations(range(ambient.v_size), size):
            for assign in itertools.product(range(target.v_size), repeat=size):
                gen = generate(ops, {g: (g, tv) for g, tv in zip(gens, assign)}, budget=budget)
                h_map, v_map = _as_map(gen.h_elems), _as_map(gen.v_elems)
                if isinstance(h_map, tuple) or isinstance(v_map, tuple):
                    continue  # the assignment does not extend to a morphism
                w = DivisionWitness(tuple(sorted(h_map)), tuple(sorted(v_map)), h_map, v_map)
                if verify_division(target, ambient, w).ok:
                    return w
    return None
