"""Depth-k node types of forests and the derived finite machinery.

The depth-k type of a node is the atom for k = 0, and otherwise the pair of
its label and the set of depth-(k-1) types of its children.  Two forests are
root-equivalent at depth k when their root type sets agree; that relation is
a forest algebra congruence; its quotient is built here, as tables over the
reachable root-type sets or elementwise.  k-local testability is phrased
over the finer relation that also compares the type sets of all nodes.

Types are hash-consed in an append-only interner; ids are stable within a
session, and the canonical text rendering is what goes into transcripts.
Beware the growth rate: the number of depth-k types over an alphabet A obeys
N_k = |A| * 2^(N_{k-1}), so materialized quotients are only feasible for very
small k; the builders take budgets and fail loudly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import terms
from .algebra import (
    AutomatonOps,
    BudgetError,
    Morphism,
    Recognizer,
    transformation_algebra,
)
from .terms import Forest, enumerate_forests

__all__ = [
    "ATOM",
    "type_render",
    "type_depth",
    "type_label",
    "type_children",
    "truncate",
    "node_types",
    "root_types",
    "same_root_types",
    "klt_equivalent",
    "klt_signature",
    "KTypeAlgebra",
    "ktype_algebra",
    "LtMachine",
    "lt_recognizer",
    "classes_predicate",
    "lt_oracle",
]


class _Universe:
    """Append-only interner for depth-k types; concurrent reads are safe and
    interning is serialized through a lock.  Truncations and renders are
    memoized in `_trunc` and `_render` by `terms._fold`, children first, so
    types of any depth truncate and render."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = [(0, None, frozenset())]  # id 0 is the depth-0 atom
        self._by_key = {(0, None, frozenset()): 0}
        self._trunc = {}
        self._render = {0: "*"}

    def intern(self, depth, label, child_ids):
        key = (depth, label, child_ids)
        tid = self._by_key.get(key)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._by_key.get(key)
            if tid is None:
                tid = len(self._entries)
                self._entries.append(key)
                self._by_key[key] = tid
            return tid

    def entry(self, tid):
        return self._entries[tid]

    def truncate(self, tid, j):
        depth = self._entries[tid][0]
        if j > depth:
            raise ValueError("cannot truncate a depth-%d type to depth %d" % (depth, j))
        if j == depth:
            return tid
        if j == 0:
            return ATOM
        entries = self._entries  # below the root 0 < i < depth(t), and (t, 1) has atoms below

        def children(at):
            t, i = at
            return [(c, i - 1) for c in entries[t][2]] if i > 1 else ()

        def combine(at, kids):
            t, i = at
            _, label, types = entries[t]
            kids = frozenset(kids) if i > 1 else _ATOMS if types else _NO_TYPES
            return self.intern(i, label, kids)

        return terms._fold((tid, j), children, combine, self._trunc)

    def render(self, tid):
        return self._render.get(tid) or terms._fold(tid, self._kids, self._text, self._render)

    def _kids(self, tid):
        return self._entries[tid][2]

    def _text(self, tid, kids):
        return "%s{%s}" % (self._entries[tid][1], ",".join(sorted(kids)))


_UNIVERSE = _Universe()
ATOM = 0
_ATOMS = frozenset({ATOM})
_NO_TYPES = frozenset()


def type_render(tid):
    return _UNIVERSE.render(tid)


def type_depth(tid):
    return _UNIVERSE.entry(tid)[0]


def type_label(tid):
    return _UNIVERSE.entry(tid)[1]


def type_children(tid):
    """Ids of the child types one level down (empty for the atom)."""
    return _UNIVERSE.entry(tid)[2]


def truncate(tid, j):
    """Forget structure below depth j; idempotent, commutes with formation."""
    return _UNIVERSE.truncate(tid, j)


def _tree_type(tree, k, memo):
    """The depth-k type of a tree, at any depth: the (node, j) entries to
    type are listed parents first from an explicit stack, then typed in
    reverse, children first as a recursion would.  `memo` maps (id(node), j)
    to a depth-j type, so a lookup never compares deep terms."""
    if k == 0:
        return ATOM
    order, stack = [], [(tree, k)]
    while stack:
        entry = stack.pop()
        node, j = entry
        if (id(node), j) not in memo:
            order.append(entry)
            if j > 1:
                for c in node.children.trees:
                    stack.append((c, j - 1))
    intern = _UNIVERSE.intern
    for node, j in reversed(order):
        kids = node.children.trees
        if j == 1:
            types = _ATOMS if kids else _NO_TYPES
        else:
            types = frozenset([memo[id(c), j - 1] for c in kids])
        memo[id(node), j] = intern(j, node.label, types)
    return memo[id(tree), k]


def root_types(s: Forest, k: int) -> frozenset:
    """The set of depth-k types of the root nodes of s."""
    memo = {}
    return frozenset(_tree_type(t, k, memo) for t in s.trees)


def node_types(s: Forest, k: int) -> frozenset:
    """The set of depth-k types over all nodes of s."""
    memo = {}
    out = set()
    stack = list(reversed(s.trees))
    while stack:
        t = stack.pop()
        out.add(_tree_type(t, k, memo))
        stack.extend(reversed(t.children.trees))
    return frozenset(out)


def same_root_types(s, t, k):
    """Equality of root type sets at depth k (a congruence)."""
    return root_types(s, k) == root_types(t, k)


def klt_signature(s, k):
    """The invariant deciding membership in k-locally-testable languages:
    the node type set at depth k plus the root type set at depth k-1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return (node_types(s, k), root_types(s, k - 1))


def klt_equivalent(s, t, k):
    return klt_signature(s, k) == klt_signature(t, k)


# ---------------------------------------------------------------------------
# Materialized quotient algebras


def _elem_order_key(x):
    # node-set members are type ids by default, arbitrary view keys otherwise
    if isinstance(x, int):
        return _UNIVERSE.render(x)
    return str(x)


def _state_order_key(state):
    if isinstance(state, frozenset):
        return (len(state), tuple(sorted(_elem_order_key(t) for t in state)))
    n, r = state
    return (_state_order_key(n), _state_order_key(r))


def _discover(initial, letter_step, alphabet, budget):
    """The states reachable from `initial`, the zero of `_state_add`, in a
    deterministic order, closed by generators as `algebra.generate` closes H:
    the generators are the tree states (a letter applied to a state), and
    each state, in admission order, gets every letter applied and every tree
    state found so far added.  That reaches every sum of tree states, so it
    is the closure under pairwise addition too: the last-found tree state of
    a sum is processed after the others are found, and so is each state it
    reaches by adding them.  The work is O(|states| (|tree states| +
    |letters|)); raises BudgetError once the states exceed `budget`."""
    states, order, trees = {initial}, [initial], []
    letters = sorted(alphabet)

    def admit(st):
        if st in states:
            return False
        states.add(st)
        order.append(st)
        if len(states) > budget:
            raise BudgetError(
                "state closure exceeded budget", {"states": len(states), "budget": budget}
            )
        return True

    for st in order:  # admit appends, so this reaches every state
        for a in letters:
            tree = letter_step(a, st)
            if admit(tree):
                trees.append(tree)
        for tree in trees:
            admit(_state_add(st, tree))
    return sorted(states, key=_state_order_key)


def _state_add(x, y):
    if isinstance(x, frozenset):
        return x | y
    return (x[0] | y[0], x[1] | y[1])


@dataclass
class KTypeAlgebra:
    """The quotient algebra of root-type equivalence at depth k, with the
    projection morphism; H elements are the reachable root-type sets, in the
    order of `states`, and V elements are transformations of them, in
    `transformation_algebra`'s order.  Every state is reachable, so the
    closure behind V replays each element into a context, but the quotient
    keeps no derivations; terms realizing an element come from
    `derived.pair_closure` over this morphism."""

    alphabet: frozenset
    k: int
    algebra: object
    morphism: Morphism
    states: tuple  # H index -> frozenset of type ids

    def value_of(self, s: Forest) -> int:
        return self.morphism.eval_forest(s)

    def state_render(self, i):
        return "{%s}" % ",".join(sorted(_UNIVERSE.render(t) for t in self.states[i]))


def _apply_letter_root(a, state, k):
    if k == 0:
        return frozenset({ATOM})
    kids = frozenset(truncate(t, k - 1) for t in state)
    return frozenset({_UNIVERSE.intern(k, a, kids)})


def _require_root_sets_fit(n_letters, k, budget):
    """Every set of the T depth-k types (T_0 = 1, T_j = |A| * 2^T_{j-1}) is
    the root-type set of a forest, and `ktype_algebra` tabulates the union of
    every two of them; raise BudgetError when those 4^T unions exceed the
    budget."""
    n_types = 1
    for depth in range(k + 1):
        n_types = n_letters << n_types if depth else 1
        if 2 * n_types >= budget.bit_length():  # and T only grows with the depth
            raise BudgetError(
                "4^%d root-type set unions at depth %d exceed the budget" % (n_types, depth),
                {"depth": depth, "types": n_types, "budget": budget},
            )


def _automaton_ops(initial, letter_step, alphabet, budget):
    """The automaton on the states `_discover` reaches from `initial`, in its
    order, with their `_state_add` table and letter maps, as `AutomatonOps`."""
    states = tuple(_discover(initial, letter_step, alphabet, budget))
    index = {st: i for i, st in enumerate(states)}
    add = [[index[_state_add(x, y)] for y in states] for x in states]
    letters = {a: tuple(index[letter_step(a, st)] for st in states) for a in sorted(alphabet)}
    return AutomatonOps(add, index[initial], letters, states)


def _root_type_ops(alphabet, k, budget):
    """The depth-k root-type quotient elementwise, with no transformation
    monoid: H indexes the reachable root-type sets `states`, V is a map of
    them in `AutomatonOps`'s form and `add` is the union table.  The 4^T
    guard runs first."""
    _require_root_sets_fit(len(alphabet), k, budget)
    step = lambda a, st: _apply_letter_root(a, st, k)
    return _automaton_ops(frozenset(), step, alphabet, budget)


def ktype_algebra(alphabet, k, budget=20000) -> KTypeAlgebra:
    """Materialize the depth-k root-type quotient as a forest algebra.

    H is the closure of the empty set under union and letter application,
    all 2^T sets of the T depth-k types, in `_discover`'s order; V is the
    transformation monoid generated by the letter maps and the
    union-with-state maps, in `transformation_algebra`'s order.  Every set
    is a union of tree states (root-type sets of one tree), so the maps that
    add those generate V.  The budget bounds the states, then the states
    plus the V elements, and its 4^T guard runs before either closure
    starts: the union table has 4^T entries.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    alphabet = terms.make_alphabet(alphabet)
    ops = _root_type_ops(alphabet, k, budget)
    alg, letters, _ = transformation_algebra(ops.add, ops.h_zero, ops.letters, budget)
    return KTypeAlgebra(alphabet, k, alg, Morphism(alg, alphabet, letters), ops.states)


@dataclass
class LtMachine:
    """Recognizer over the reachable k-local signatures (node type set plus
    root type set one level down); its languages are exactly the unions of
    signature classes selected by the predicate."""

    alphabet: frozenset
    k: int
    recognizer: Recognizer
    states: tuple  # H index -> (node type ids, root type ids at k-1)


def _apply_letter_sig(a, state, k, view=None):
    nodes, roots = state
    new_type = _UNIVERSE.intern(k, a, roots)
    new_roots = frozenset({truncate(new_type, k - 1)})
    key = new_type if view is None else view(new_type)
    if key is None:
        return (nodes, new_roots)
    return (nodes | frozenset({key}), new_roots)


def classes_predicate(representatives, k):
    """Accept exactly the k-local classes of the given representative forests."""
    sigs = {klt_signature(s, k) for s in representatives}

    def pred(nodes, roots):
        return (nodes, roots) in sigs

    return pred


def lt_recognizer(alphabet, k, accept, budget=4000, node_view=None) -> LtMachine:
    """Build a recognizer for a union of k-local classes.

    `accept` is either a predicate over (node type set, root type set at
    depth k-1) or an iterable of representative forests whose classes are
    accepted.

    The full signature closure explodes for k >= 2 over more than one letter
    (its states enumerate the reachable k-local classes themselves) and then
    this raises a BudgetError.  When the predicate factors through a coarser
    view of the node types, pass `node_view`: a function mapping a type id to
    a key, or to None to drop it; states then track the set of keys instead
    of the raw node set.  That machine is an exact quotient of the signature
    machine, so the recognized language is still a union of k-local classes,
    unchanged, provided `accept` reads the key set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alphabet = terms.make_alphabet(alphabet)
    if not callable(accept):
        reps = list(accept)
        if node_view is not None:
            raise ValueError("representative acceptSpec requires the default node view")
        accept = classes_predicate(reps, k)
    step = lambda a, st: _apply_letter_sig(a, st, k, node_view)
    ops = _automaton_ops((frozenset(), frozenset()), step, alphabet, budget)
    alg, letters, _ = transformation_algebra(ops.add, ops.h_zero, ops.letters, budget)
    morphism = Morphism(alg, alphabet, letters)
    accepted = frozenset(i for i, st in enumerate(ops.states) if accept(st[0], st[1]))
    return LtMachine(alphabet, k, Recognizer(morphism, accepted), ops.states)


def lt_oracle(rec: Recognizer, k: int, max_nodes: int):
    """Search enumerated forests for two k-locally-equivalent forests with
    different acceptance.  A witness refutes k-local testability of the
    recognized language conclusively; absence up to the bound is evidence
    only.  Returns (s, t) or None.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    groups = {}
    for s in enumerate_forests(rec.alphabet, max_nodes):
        sig = klt_signature(s, k)
        verdict = rec.accepts(s)
        prev = groups.get(sig)
        if prev is None:
            groups[sig] = (s, verdict)
        elif prev[1] != verdict:
            return (prev[0], s) if prev[1] else (s, prev[0])
    return None
