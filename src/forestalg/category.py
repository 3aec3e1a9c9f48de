"""Finite forest categories, diagrams, and division by flat algebras.

A forest category has a commutative monoid of objects, a commutative monoid
of half-arrows with an end map onto the objects, and arrows between objects
with composition, a faithful action on half-arrows, and an insertion
operation pairing an arrow with a half-arrow.  A category with one object is
exactly a forest algebra, and insertion has the algebra's one defining law,
c.ins(u, d) = c.u + d for every half-arrow c at the start of u and every d;
its laws under composition and nesting follow (`ForestCategory`).

Diagrams are forests whose leaves are half-arrows and whose internal nodes
are arrows, the start of each node matching the sum of its children's ends;
they evaluate to half-arrows.  Removing one leaf exposes an object and gives
a context diagram, which evaluates to an arrow.  Diagrams of any depth
evaluate, render and give their support, by `terms._fold` and `_render`.

Everything is table-driven and immutable; checks are exhaustive and report
the first witness.  The tables are positional nested tuples, as a
`ForestAlgebra`'s are: composition and the action are indexed by the slot of
the right-hand arrow among the arrows out of its start, so they hold no
entry outside their domain, and `compose`, `act_on` and `insert` read them.
`validate_category` checks every law where tables enter from outside, in
`category_from_json`, which places the keyed entries of the file format and
reads the hand-built samples too; the categories built from algebras are
not validated, and the tests validate them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, reduce

import numpy as np

from .algebra import (
    AlgebraLawError,
    BudgetError,
    FlatMaskAlgebra,
    ForestAlgebra,
    _check_faithful,
    _check_monoid,
    _first,
    _freeze,
    _index_array,
    _ints,
)
from .terms import _fold, _render

__all__ = [
    "CategoryLawError",
    "DiagramError",
    "ForestCategory",
    "validate_category",
    "one_object_category",
    "category_to_json",
    "category_from_json",
    "hleaf",
    "dnode",
    "oleaf",
    "eval_forest_diagram",
    "eval_context_diagram",
    "diagram_support",
    "diagram_rootsum",
    "render_diagram",
    "IdentityReport",
    "check_identities",
    "brute_force_global_ic",
    "Covering",
    "canonical_flat_cover",
    "verify_covering",
    "CoverReport",
]


# a category law fails: the same error, law name and witness as for algebras
CategoryLawError = AlgebraLawError


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class ForestCategory:
    """The tables of a finite forest category, taken unchecked.

    Arrow v sits at slot[v], its place in arrows_from(arr_start[v]), and
    comp[u][slot[v]] is u.v and act[c][slot[u]] is c.u.  Their rows are
    padded to the widest arrows_from by repeating column 0, so a gather over
    whole rows only repeats real instances.

    ins[u][d] is total, and the insertion law c.ins(u, d) = c.u + d, for
    every c at start(u), defines it.  With faithfulness it gives
    f.ins(u, d) = ins(f.u, d) and ins(ins(u, c), d) = ins(u, c + d): each
    pair of sides is coterminal, and every e at their start acts alike on
    them,

        e.(f.ins(u, d)) = (e.f).u + d = e.ins(f.u, d)
        e.ins(ins(u, c), d) = e.u + c + d = e.ins(u, c + d)."""

    obj_size: int
    obj_add: tuple
    obj_zero: int
    harr_size: int
    harr_add: tuple
    harr_one: int
    harr_end: tuple
    arr_size: int
    arr_start: tuple
    arr_end: tuple
    identity: tuple  # per object: its identity arrow
    comp: tuple  # comp[u][slot[v]] = u.v for v out of end(u)
    act: tuple  # act[c][slot[u]] = c.u for u out of end(c)
    ins: tuple  # ins[u][c]

    def obj_sum(self, x, y):
        return self.obj_add[x][y]

    def hsum(self, c, d):
        return self.harr_add[c][d]

    def compose(self, u, v):
        if self.arr_end[u] != self.arr_start[v]:
            raise DiagramError("arrow %d does not meet arrow %d" % (u, v))
        return self.comp[u][self.slot[v]]

    def act_on(self, c, u):
        if self.harr_end[c] != self.arr_start[u]:
            raise DiagramError("half-arrow %d does not meet arrow %d" % (c, u))
        return self.act[c][self.slot[u]]

    def insert(self, u, c):
        return self.ins[u][c]

    def arrows_from(self, x):
        return self._by_object[0][x]

    def arrows_to(self, x):
        return self._by_object[1][x]

    def harrs_to(self, x):
        return self._by_object[2][x]

    @cached_property
    def _by_object(self):
        """Arrows by start and by end object, half-arrows by end object."""
        ends = (self.arr_start, self.arr_end, self.harr_end)
        return tuple(tuple(map(tuple, _by_end(by, self.obj_size))) for by in ends)

    @cached_property
    def slot(self):
        slot = [0] * self.arr_size
        for outs in self._by_object[0]:
            for j, v in enumerate(outs):
                slot[v] = j
        return tuple(slot)

    def objects_idempotent(self):
        return all(self.obj_add[x][x] == x for x in range(self.obj_size))


def _by_end(ends, obj_size):
    """Row x: the indices i with ends[i] == x, in order."""
    rows = [[] for _ in range(obj_size)]
    for i, x in enumerate(ends):
        rows[x].append(i)
    return rows


def _pad(rows):
    """The rows, each padded to the widest by repeating its first entry: the
    positional layout of `ForestCategory`."""
    width = max(map(len, rows))
    return [list(row) + list(row[:1]) * (width - len(row)) for row in rows]


def _check_ends(cat):
    """Check every law that does not read comp, act or ins.  These give each
    object a half-arrow and its identity, an arrow out of it and into it,
    so no row of the positional tables is empty.  Returns the additions."""
    obj_add = _check_monoid(cat.obj_size, cat.obj_add, cat.obj_zero, "objects", commutative=True)
    harr_add = _check_monoid(cat.harr_size, cat.harr_add, cat.harr_one, "halfarrows", commutative=True)
    objs, harrs, arrs = cat.obj_size, cat.harr_size, cat.arr_size
    for law, ends, sizes in (
        ("end-shape", cat.harr_end, (harrs, objs)),
        ("identity-shape", cat.identity, (objs, arrs)),
        ("arrow-endpoints", cat.arr_start, (arrs, objs)),
        ("arrow-endpoints", cat.arr_end, (arrs, objs)),
    ):
        if len(ends) != sizes[0]:
            raise CategoryLawError(law, (), "not %d entries" % sizes[0])
        bad = next((i for i, x in enumerate(ends) if not 0 <= x < sizes[1]), None)
        if bad is not None:
            raise CategoryLawError(law, (bad,), "entry out of range")
    # end is a monoid homomorphism onto the objects
    end = np.array(cat.harr_end, dtype=np.int64)
    if end[cat.harr_one] != cat.obj_zero:
        raise CategoryLawError("end-homomorphism", (cat.harr_one,), "end(identity) != 0")
    bad = _first((end[harr_add] != obj_add[end[:, None], end]).ravel())
    if bad is not None:
        raise CategoryLawError("end-homomorphism", divmod(bad, harrs), "end(c+d) != end(c)+end(d)")
    x = _first(np.bincount(end, minlength=objs) == 0)
    if x is not None:
        raise CategoryLawError("end-onto", (x,), "object has no half-arrow")
    for x, e in enumerate(cat.identity):
        if cat.arr_start[e] != x or cat.arr_end[e] != x:
            raise CategoryLawError("identity-endpoints", (x,), "identity not an endo-arrow")
    return obj_add, harr_add


def _check_table(table, cols, size, law):
    """`table` as an int32 array, which must be shaped like `cols`, the arrows
    (or half-arrows) of its columns, with entries in range(size) and each
    padding column repeating column 0; a witness is a row and an arrow."""
    if len(table) != len(cols) or any(len(row) != cols.shape[1] for row in table):
        raise CategoryLawError(law, (), "table is not %d x %d" % cols.shape)
    t = _index_array(table, cols.shape)
    bad = _first(((t < 0) | (t >= size) | (cols == cols[:, :1]) & (t != t[:, :1])).ravel())
    if bad is not None:
        i, j = divmod(bad, cols.shape[1])
        raise CategoryLawError(law, (i, int(cols[i, j])), "entry out of range or padding not column 0")
    return t.astype(np.int32)


def _check_law(groups, per_row, bad_rows, where):
    """Raise the law and witness where(row, ...) of the least index at which
    bad_rows(x, rows) is true, over the groups (x, rows) of ascending rows;
    within a group that is its first in row-major order.  A group goes in
    blocks of about 2^20 entries, at most `per_row` a row."""
    hits = []
    for x, rows in groups:
        step = max(1, (1 << 20) // per_row)
        for lo in range(0, len(rows), step):
            bad = bad_rows(x, rows[lo : lo + step])
            hit = _first(bad.ravel())
            if hit is not None:
                i, *rest = np.unravel_index(hit, bad.shape)
                hits.append((int(rows[lo + i]), *map(int, rest)))
                break
    if hits:
        law, witness = where(*min(hits))
        raise CategoryLawError(law, tuple(map(int, witness)), "does not hold")


def validate_category(cat: ForestCategory) -> ForestCategory:
    """Exhaustively check the forest category axioms, reporting the first
    violation with the element ids that instantiate it."""
    return _check_tables(cat, *_check_ends(cat))


def _check_tables(cat, obj_add, harr_add):
    """Check every law that reads comp, act or ins, given the additions that
    `_check_ends` checked.  Each law is a gather over whole rows, object by
    object and in blocks of rows; padding only repeats column 0, so the first
    failure in row-major order is the first in the loop order over the arrows."""
    objs, harrs, arrs = cat.obj_size, cat.harr_size, cat.arr_size
    arrays = (cat.arr_start, cat.arr_end, cat.harr_end, cat.identity, cat.slot)
    start, end, hend, e, slot = (np.array(t, dtype=np.int32) for t in arrays)
    # the arrows by start and by end, the half-arrows by end, and padded
    by_object = (cat.arrows_from, cat.arrows_to, cat.harrs_to)
    outs, into, onto = ([np.array(by(x), dtype=np.int32) for x in range(objs)] for by in by_object)
    outs_pad, onto_pad = (np.array(_pad(rows), dtype=np.int32) for rows in (outs, onto))
    after, acts, width = outs_pad[end], outs_pad[hend], outs_pad.shape[1]  # the arrows after u, c
    comp = _check_table(cat.comp, after, arrs, "composition-shape")
    act = _check_table(cat.act, acts, harrs, "action-shape")
    ins = _check_table(cat.ins, np.broadcast_to(np.arange(harrs), (arrs, harrs)), arrs, "insertion-shape")
    over = slot[comp]  # over[v, k]: the slot of v.after[v, k]
    halves, arrows = np.arange(harrs, dtype=np.int32), np.arange(arrs, dtype=np.int32)
    every = [(None, arrows)]

    def composed(x, u):  # (u.v).w = u.(v.w) for the v out of x = end(u)
        return comp[comp[u][:, : len(outs[x])]] != np.take(comp[u], over[outs[x]], axis=1)

    right, left = comp[arrows, slot[e[end]]] != arrows, comp[e[start], slot] != arrows

    def unit(_, x):  # u . id(x) = u for the u into x, then id(x) . u = u for the u out of x
        return np.stack([right & (end == x[:, None]), left & (start == x[:, None])], 2)

    def acted(x, c):  # c . id(x) = c, then (c.u).w = c.(u.w) for the u out of x = end(c)
        assoc = act[act[c][:, : len(outs[x])]] != np.take(act[c], over[outs[x]], axis=1)
        return np.concatenate([act[c, slot[e[x]], None] != c[:, None], assoc.reshape(len(c), -1)], 1)

    def act_witness(c, i):
        if i == 0:
            return "action-identity", (c,)
        v = acts[c, (i - 1) // width]
        return "action-associativity", (c, v, after[v, (i - 1) % width])

    def inserted(x, u):  # c.ins(u, d) = c.u + d for every d and the c into x = start(u)
        cols = act[onto[x]].T  # cols[slot[w], i] = c.w for the i-th c into x
        # the right side gathers d + c.u, which is c.u + d as + commutes
        return cols[slot[ins[u]]] != np.take(harr_add, cols[slot[u]], axis=1).transpose(1, 0, 2)

    _check_law(
        every, width, lambda _, u: (start[comp[u]] != start[u, None]) | (end[comp[u]] != end[after[u]]),
        lambda u, j: ("composition-endpoints", (u, after[u, j])),
    )
    _check_law(
        enumerate(into), width**2, composed,
        lambda u, j, k: ("composition-associativity", (u, after[u, j], after[after[u, j], k])),
    )
    _check_law(
        [(None, np.arange(objs))], 2 * arrs, unit,
        lambda x, u, side: (("identity-right", "identity-left")[side], (u, x)),
    )
    _check_law(
        [(None, halves)], width, lambda _, c: hend[act[c]] != end[acts[c]],
        lambda c, j: ("action-endpoints", (c, acts[c, j])),
    )
    _check_law(enumerate(onto), 1 + width**2, acted, act_witness)
    try:  # coterminal arrows acting alike on the half-arrows into their start are equal
        _check_faithful(np.vstack([start, end, act[onto_pad[start], slot[:, None]].T]))
    except AlgebraLawError as error:
        raise CategoryLawError("action-faithfulness", error.where, "arrows indistinguishable") from None
    _check_law(
        every, harrs,
        lambda _, u: (start[ins[u]] != start[u, None]) | (end[ins[u]] != obj_add[end[u, None], hend]),
        lambda u, c: ("insertion-endpoints", (u, c)),
    )
    _check_law(
        enumerate(outs), harrs * onto_pad.shape[1], inserted,
        lambda u, d, i: ("insertion", (u, d, onto[start[u]][i])),
    )
    return cat


def one_object_category(alg: ForestAlgebra) -> ForestCategory:
    """A forest category with one object is a forest algebra; this is that
    correspondence, pointed the other way.  Each arrow's slot is its index,
    so the tables are the algebra's.  It obeys every law that `alg` does, so
    it is not validated here."""
    return ForestCategory(
        obj_size=1,
        obj_add=((0,),),
        obj_zero=0,
        harr_size=alg.h_size,
        harr_add=alg.add,
        harr_one=alg.zero,
        harr_end=tuple(0 for _ in range(alg.h_size)),
        arr_size=alg.v_size,
        arr_start=tuple(0 for _ in range(alg.v_size)),
        arr_end=tuple(0 for _ in range(alg.v_size)),
        identity=(alg.one,),
        comp=alg.mul,
        act=alg.act,
        ins=alg.ins,
    )


def category_to_json(cat):
    def keyed(table, rows, cols):  # the keys (i, j) of row i run over cols(rows[i])
        return {"%d,%d" % (i, j): k for i, x in enumerate(rows) for j, k in zip(cols(x), table[i])}

    return {
        "objects": {"size": cat.obj_size, "add": [list(r) for r in cat.obj_add], "zero": cat.obj_zero},
        "halfarrows": {
            "size": cat.harr_size,
            "add": [list(r) for r in cat.harr_add],
            "one": cat.harr_one,
            "end": list(cat.harr_end),
        },
        "arrows": [
            {"start": cat.arr_start[u], "end": cat.arr_end[u]} for u in range(cat.arr_size)
        ],
        "identity": list(cat.identity),
        "comp": keyed(cat.comp, cat.arr_end, cat.arrows_from),
        "act": keyed(cat.act, cat.harr_end, cat.arrows_from),
        "ins": keyed(cat.ins, range(cat.arr_size), lambda _: range(cat.harr_size)),
    }


def category_from_json(data):
    """The validated category of a `category_to_json` document, which the
    hand-built samples are too.  Its comp, act and ins are keyed by "i,j";
    a key that is not two integers in range raises the table's shape law,
    and a key outside the domain, or one missing, composition-domain,
    action-domain or insertion-total, at the first such key in row-major
    order.  The entries are then placed in the positional layout."""

    def unkey(d, law):
        out = {}
        for k, v in d.items():
            try:
                key = tuple(map(int, k.split(",")))
            except ValueError:
                key = ()
            if len(key) != 2:
                raise CategoryLawError(law, (k,), "key is not two integers")
            out[key] = _ints(v, law, 0, key)
        return out

    o, h, arrows = data["objects"], data["halfarrows"], data["arrows"]
    cat = ForestCategory(
        obj_size=_ints(o["size"], "objects-shape"),
        obj_add=_ints(o["add"], "objects-shape", 2),
        obj_zero=_ints(o["zero"], "objects-shape"),
        harr_size=_ints(h["size"], "halfarrows-shape"),
        harr_add=_ints(h["add"], "halfarrows-shape", 2),
        harr_one=_ints(h["one"], "halfarrows-shape"),
        harr_end=_ints(h["end"], "end-shape", 1),
        arr_size=len(arrows),
        arr_start=_ints([a["start"] for a in arrows], "arrow-endpoints", 1),
        arr_end=_ints([a["end"] for a in arrows], "arrow-endpoints", 1),
        identity=_ints(data["identity"], "identity-shape", 1),
        comp=(),
        act=(),
        ins=(),
    )
    shape = {"comp": "composition-shape", "act": "action-shape", "ins": "insertion-shape"}
    keyed = {name: unkey(data[name], law) for name, law in shape.items()}
    ends = _check_ends(cat)
    for name, domain, rows, cols, col_ends in (
        ("comp", "composition-domain", cat.arr_end, cat.arrows_from, cat.arr_start),
        ("act", "action-domain", cat.harr_end, cat.arrows_from, cat.arr_start),
        ("ins", "insertion-total", (0,) * cat.arr_size, lambda _: range(cat.harr_size), (0,) * cat.harr_size),
    ):
        table = keyed[name]  # key (i, j) is due iff j is in cols(rows[i]), iff col_ends[j] == rows[i]
        bad = [key for key in table if not (0 <= key[0] < len(rows) and 0 <= key[1] < len(col_ends))]
        if bad:
            raise CategoryLawError(shape[name], bad[0], "key out of range")
        bad = [key for key in table if rows[key[0]] != col_ends[key[1]]]
        bad += [(i, j) for i, x in enumerate(rows) for j in cols(x) if (i, j) not in table]
        if bad:
            raise CategoryLawError(domain, min(bad), "key missing or outside the domain")
        keyed[name] = _freeze(_pad([[table[i, j] for j in cols(x)] for i, x in enumerate(rows)]))
    return _check_tables(replace(cat, **keyed), *ends)


# ---------------------------------------------------------------------------
# Diagrams.  A forest diagram is a tuple of trees; a tree is ("h", c) for a
# half-arrow leaf, ("o", x) for an exposed object (context diagrams only),
# or ("n", u, children) with children a forest diagram.


def hleaf(c):
    return ("h", c)


def oleaf(x):
    return ("o", x)


def dnode(u, children):
    return ("n", u, tuple(children))


def _tree_end(cat, tree):
    kind = tree[0]
    if kind == "h":
        return cat.harr_end[tree[1]]
    if kind == "o":
        return tree[1]
    if kind == "s":  # indexed slot of a multicontext: ("s", slot, end)
        return tree[2]
    return cat.arr_end[tree[1]]


def diagram_rootsum(cat, diagram):
    return reduce(cat.obj_sum, [_tree_end(cat, t) for t in diagram], cat.obj_zero)


def diagram_support(cat, diagram):
    """The set of half-arrows and arrows occurring, as ('h', id) / ('a', id)."""
    out, stack = set(), list(diagram)
    while stack:
        tree = stack.pop()
        if tree[0] == "h":
            out.add(("h", tree[1]))
        elif tree[0] == "n":
            out.add(("a", tree[1]))
            stack.extend(tree[2])
    return frozenset(out)


def _kids(tree):
    return tree[2] if tree[0] == "n" else ()


def _forest_value(cat, diagram, done):
    """The value of a forest diagram, its trees' values folded into the memo
    `done` by id."""

    def combine(tree, values):
        if tree[0] == "h":
            return tree[1]
        if tree[0] == "o":
            raise DiagramError("exposed object in a forest diagram")
        return cat.act_on(reduce(cat.hsum, values, cat.harr_one), tree[1])

    return reduce(cat.hsum, [_fold(t, _kids, combine, done, id) for t in diagram], cat.harr_one)


def eval_forest_diagram(cat, diagram):
    """Canonical evaluation: children are summed in the half-arrow monoid,
    then acted on by the node's arrow."""
    return _forest_value(cat, diagram, {})


def eval_context_diagram(cat, diagram):
    """Evaluate a diagram with exactly one exposed object to an arrow; returns
    (arrow id, exposed object).  The hole path is walked down, each level
    holding one tree with the hole, and the arrow is built back up: from the
    identity at the hole, each level inserts the value of its other trees
    and composes with the arrow of the node above it."""
    holed, done = {}, {}  # holed: id of a tree -> whether it holds the hole
    levels, tree = [], ("n", None, diagram)
    while tree[0] == "n":
        _, u, forest = tree
        holes = [i for i, t in enumerate(forest) if _fold(t, _kids, _holds, holed, id)]
        if len(holes) != 1:
            raise DiagramError("context diagram needs exactly one exposed object")
        i = holes[0]
        levels.append((u, forest[:i] + forest[i + 1 :]))
        tree = forest[i]
    arrow = cat.identity[tree[1]]
    for u, rest in reversed(levels):
        if rest:
            arrow = cat.insert(arrow, _forest_value(cat, rest, done))
        if u is not None:
            arrow = cat.compose(arrow, u)
    return arrow, tree[1]


def _holds(tree, flags):
    return tree[0] == "o" or any(flags)


_LEAF_TEXT = {"h": "h%d", "o": "<%d>", "s": "<slot%d:%d>"}


def _diagram_head(tree):
    if tree[0] == "n":
        return ("a%d" % tree[1], tree[2]) if tree[2] else ("a%d()" % tree[1], ())
    return _LEAF_TEXT[tree[0]] % tree[1:], ()


def render_diagram(diagram):
    return _render(diagram, _diagram_head) if diagram else "()"


# ---------------------------------------------------------------------------
# Bounded diagram enumeration (sibling order canonicalized by construction:
# forests pick trees with nondecreasing generation index)


class _Enumerator:
    def __init__(self, cat, extra_leaves=()):
        self.cat = cat
        # a leaf is ("h", c) or an extra like ("o", x); each gets an index bit
        self.extra = tuple(extra_leaves)
        self._tree_list = []  # size-major: (tree, size, end, slots_mask)
        self._tree_offsets = {0: 0}
        self._forests = {}

    def trees_upto(self, n):
        top = max(self._tree_offsets)
        for size in range(top + 1, n + 1):
            level = []
            if size == 1:
                for c in range(self.cat.harr_size):
                    level.append((("h", c), 1, self.cat.harr_end[c], 0))
                for i, end in enumerate(self.extra):
                    level.append((("s", i, end), 1, end, 1 << i))
            else:
                for u in range(self.cat.arr_size):
                    for forest, rootsum, slots in self.forests_exact(size - 1):
                        if rootsum == self.cat.arr_start[u]:
                            level.append((("n", u, forest), size, self.cat.arr_end[u], slots))
            self._tree_list.extend(level)
            self._tree_offsets[size] = len(self._tree_list)
        return self._tree_list[: self._tree_offsets[n]]

    def forests_exact(self, n):
        key = n
        if key in self._forests:
            return self._forests[key]
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
                    tree, size, end, tslots = trees[idx]
                    if size > remaining:
                        break  # so are all later trees: the list is size-major
                    if tslots & slots:
                        continue  # each exposed slot used at most once
                    acc.append(tree)
                    build(
                        remaining - size,
                        idx,
                        acc,
                        self.cat.obj_sum(rootsum, end),
                        slots | tslots,
                    )
                    acc.pop()

            build(n, 0, [], self.cat.obj_zero, 0)
        self._forests[key] = out
        return out


def brute_force_global_ic(cat, max_nodes):
    """Enumerate all forest diagrams with at most max_nodes nodes, bucket by
    (support, rootsum), and report the first bucket holding two different
    values.  A witness conclusively refutes the support condition; absence up
    to the bound is evidence only.

    Returns None or (diagram1, diagram2, support, rootsum, value1, value2).
    """
    enum = _Enumerator(cat)
    buckets = {}
    for n in range(0, max_nodes + 1):
        for forest, rootsum, _ in enum.forests_exact(n):
            value = eval_forest_diagram(cat, forest)
            key = (diagram_support(cat, forest), rootsum)
            prev = buckets.get(key)
            if prev is None:
                buckets[key] = (value, forest)
            elif prev[0] != value:
                return (prev[1], forest, key[0], key[1], prev[0], value)
    return None


# ---------------------------------------------------------------------------
# The three identities equivalent to global idempotent-commutativity (for
# idempotent commutative objects); the tests check their derived
# consequences against them (tests/derived_identities.py)


@dataclass
class IdentityReport:
    objects_ic: bool
    loop_removal: tuple | None = None
    horizontal_absorption: tuple | None = None
    horizontal_idempotence: tuple | None = None

    def all_hold(self):
        return (
            self.objects_ic
            and self.loop_removal is None
            and self.horizontal_absorption is None
            and self.horizontal_idempotence is None
        )


def _first_violation(add, left, right, cols):
    """The first (row, col) in row-major order with add[left][col] !=
    add[right][col]; the callers know that one exists."""
    hits = np.flatnonzero(add[left][:, cols] != add[right][:, cols])
    return divmod(int(hits[0]), len(cols))


def _orbit_classes(add, rows):
    """The orbit classes of each H value x, made on first use: rows[x] holds
    x's products x.q with the contexts q it meets, and cls(x)[h] = cls(x)[h']
    iff h + x.q = h' + x.q for every such q.  So y.t + x.u = z.t + x.u for
    all t and u iff cls(x)[y.t] = cls(x)[z.t] for every t.  The rows are an
    algebra's act table or a category's, whose padding adds nothing."""

    @cache
    def cls(x):
        orbit = np.bincount(rows[x], minlength=len(add)) > 0
        keys = {}  # add row on the orbit -> class, numbered by first appearance
        return np.array([keys.setdefault(row.tobytes(), len(keys)) for row in add[:, orbit]])

    return cls


def _absorption_failure(add, rows, groups):
    """The first (r, s, t, u) with (r+s)t + ru != st + ru, over the groups
    (r, ss) in order, each s of ss in order, then the columns t and u, or
    None; the rows of r+s and s must line up."""
    cls = _orbit_classes(add, rows)
    for r, ss in groups:
        ss = np.array(ss, dtype=np.int64)
        # (r+s)t + ru = st + ru for all t, u iff cls_r[rows[r+s]] = cls_r[rows[s]]
        bad = (cls(r)[rows[add[r, ss]]] != cls(r)[rows[ss]]).any(1)
        if bad.any():
            s = int(ss[bad.argmax()])
            return (r, s, *_first_violation(add, rows[add[r, s]], rows[s], rows[r]))
    return None


def _loop_failure(add, rows, groups):
    """The first (r, p, q, q') with rpq + rpq' != rq + rpq', rp = rows[r, p],
    over the groups (r, ps) in order, each column p of ps in order, then the
    columns q and q', or None; the rows of rp and r must line up."""
    cls = _orbit_classes(add, rows)
    for r, ps in groups:
        ps = np.array(ps, dtype=np.int64)
        # rpq + rpq' = rq + rpq' for all q, q' iff cls_rp[rows[rp]] = cls_rp[rows[r]],
        # so the pairs (r, p) count only through their distinct rp
        rps, which = np.unique(rows[r, ps], return_inverse=True)
        table = np.stack([cls(int(rp)) for rp in rps])
        bad = (table[:, rows[r]] != table[np.arange(len(rps))[:, None], rows[rps]]).any(1)[which]
        if bad.any():
            p = int(ps[bad.argmax()])
            rp = rows[r, p]
            return (r, p, *_first_violation(add, rows[rp], rows[r], rows[rp]))
    return None


def check_identities(cat) -> IdentityReport:
    """Exhaustively check loop removal, horizontal absorption and horizontal
    idempotence; each failure carries the instantiating ids.  The identities
    characterize global idempotent-commutativity only when the object monoid
    is idempotent and commutative, which is reported as a precondition.

    Absorption and loop removal test every s of one r at once on the orbit
    classes of the rows of `act`, whose columns are the arrows out of end(r)
    and whose padding only repeats column 0, so no first failure lies in
    it; each witness is the first failing instance in the loop order r, s,
    then the two arrows."""
    add = np.array(cat.harr_add, dtype=np.int64).reshape(cat.harr_size, cat.harr_size)
    rows = np.array(cat.act, dtype=np.int64)
    ends, outs = cat.harr_end, [cat.arrows_from(y) for y in cat.harr_end]
    # loop removal over the loops s at end(r), each named by its column
    loops = ((r, [i for i, s in enumerate(outs[r]) if cat.arr_end[s] == y]) for r, y in enumerate(ends))
    loop = _loop_failure(add, rows, loops)
    if loop is not None:
        r, *cols = loop
        loop = (r, *(outs[r][i] for i in cols))
    # horizontal absorption over the s whose end absorbs end(r)
    absorbing = ((r, [s for s, y in enumerate(ends) if cat.obj_add[x][y] == y]) for r, x in enumerate(ends))
    absorption = _absorption_failure(add, rows, absorbing)
    if absorption is not None:
        r, s, t, u = absorption
        absorption = (r, s, outs[s][t], outs[r][u])
    idempotence = ((r,) for r in range(cat.harr_size) if cat.hsum(r, r) != r)
    return IdentityReport(cat.objects_idempotent(), loop, absorption, next(idempotence, None))


# ---------------------------------------------------------------------------
# The canonical flat cover and covering verification


@dataclass
class Covering:
    """A candidate division of a category by a forest algebra: a nonempty set
    of H elements per half-arrow and of V elements per arrow."""

    algebra: ForestAlgebra
    half_cover: tuple  # per half-arrow: frozenset of H indices
    arrow_cover: tuple  # per arrow: frozenset of V indices


@dataclass
class CoverReport:
    ok: bool
    violations: list = field(default_factory=list)

    def fail(self, clause, where):
        self.ok = False
        if len(self.violations) < 50:
            self.violations.append((clause, where))


def _clauses(cat):
    """The division clauses: one per defined instance of the four operations,
    as (name, where, op, left, right, target).  `op` names the elementwise
    operation of the covering algebra; the operands and the target are rows,
    half-arrow c at row c and arrow u at row harr_size + u, and row i is also
    bit i of a support mask.  A cover is closed under a clause when op maps
    every member pair of the left and right covers into the target's cover;
    in the other direction, each clause builds a diagram of the target from
    diagrams of its operands."""
    out, a = [], cat.harr_size  # arrow u is row a + u
    for u in range(cat.arr_size):
        for v, w in zip(cat.arrows_from(cat.arr_end[u]), cat.comp[u]):
            out.append(("preserve-composition", (u, v), "v_mul", a + u, a + v, a + w))
    for c in range(cat.harr_size):
        for u, d in zip(cat.arrows_from(cat.harr_end[c]), cat.act[c]):
            out.append(("preserve-action", (c, u), "act_", c, a + u, d))
    for c in range(cat.harr_size):
        for d in range(cat.harr_size):
            out.append(("preserve-addition", (c, d), "h_add", c, d, cat.harr_add[c][d]))
    for u in range(cat.arr_size):
        for c in range(cat.harr_size):
            out.append(("preserve-insertion", (u, c), "ins_", a + u, c, a + cat.ins[u][c]))
    return out


def _subset_sums(a, n, sign):
    """Over the last axis, indexed by n-bit masks: the zeta transform (sign 1,
    each entry becomes the sum over its submasks) or its inverse, the Möbius
    transform (sign -1).  The union-convolution of two indicators is the
    Möbius transform of the product of their zeta transforms.  A bool input
    is summed in int32 (no sum exceeds 2^n, exact for n < 31), all else in
    int64.  Below bit 3 the runs of 2^b are short: each column is one add."""
    v = np.array(a, dtype=np.int32 if np.asarray(a).dtype == bool else np.int64)
    step = np.add if sign > 0 else np.subtract
    for b in range(n):
        h, w = 1 << b, v.reshape(-1, 2 << b)
        for lo, hi in [(j, h + j) for j in range(h)] if b < 3 else [(slice(h), slice(h, None))]:
            step(w[:, hi], w[:, lo], out=w[:, hi])
    return v


def _target_escapes(zeta, inside, n, clauses, target):
    """The masks that the clauses aimed at `target` reach outside its cover
    indicator `inside`, given the zeta transforms of all covers; each clause
    is (left, right, target) rows.  Their int64 products are summed and the
    sum is inverted once: the inverse of each product counts pairs and is
    never negative, so the sum is positive exactly where some clause
    reaches."""
    reach = np.zeros(inside.shape, dtype=np.int64)
    for left, right, _ in (c for c in clauses if c[2] == target):
        reach += np.multiply(zeta[left], zeta[right], dtype=np.int64)
    return (_subset_sums(reach, n, -1) > 0) & ~inside


def verify_covering(cat, alg, cov: Covering) -> CoverReport:
    """Exhaustive check of the division clauses: every cover is nonempty,
    holds only elements of the algebra, is closed under each clause of
    `_clauses`, and is disjoint from the covers of the coterminal elements.
    Covers that are empty or hold a member out of range are reported alone.

    The algebra only needs the elementwise protocol; cover members are its
    elements (indices below h_size or v_size for table algebras, masks below
    2^n_symbols for FlatMaskAlgebra).  A
    table algebra is checked member pair by member pair, and a failure names
    the clause with the pair appended.  Over a FlatMaskAlgebra the covers are
    zeta-transformed once, one sum of union-convolutions per target finds the
    targets that fail, and only the clauses aimed at those are convolved one
    by one; a failure names the clause.
    """
    rep = CoverReport(True)
    covers, nh = tuple(cov.half_cover) + tuple(cov.arrow_cover), cat.harr_size
    mask = isinstance(alg, FlatMaskAlgebra)
    if mask:
        n = alg.n_symbols
        inside = np.zeros((len(covers), 1 << n), dtype=bool)
    for i, members in enumerate(covers):
        if mask:
            try:
                m = np.fromiter(members, np.int64, len(members))
                fits = not (m >> n).any()  # no bit from bit n up, as a negative mask has
            except OverflowError:  # beyond int64
                fits = False
            if fits:
                inside[i, m] = True
        else:
            fits = all(0 <= m < (alg.h_size if i < nh else alg.v_size) for m in members)
        if not members or not fits:
            kind, at = ("half", i) if i < nh else ("arrow", i - nh)
            rep.fail("%s-cover-%s" % (kind, "range" if members else "nonempty"), (at,))
    if not rep.ok:
        return rep
    if mask:
        zeta = _subset_sums(inside, n, 1)
        clauses = _clauses(cat)
        rows = [c[3:] for c in clauses]
        failing = [_target_escapes(zeta, inside[t], n, rows, t).any() for t in range(len(covers))]
        # a target fails exactly when one of the clauses aimed at it does
        for name, where, _, left, right, t in clauses:
            if failing[t] and _target_escapes(zeta, inside[t], n, [(left, right, t)], t).any():
                rep.fail(name, where)
    else:
        for name, where, op, left, right, target in _clauses(cat):
            f, allowed = getattr(alg, op), covers[target]
            for p in covers[left]:
                for q in covers[right]:
                    if f(p, q) not in allowed:
                        rep.fail(name, where + (p, q))
    # injectivity on coterminal elements
    arrow_ends = list(zip(cat.arr_start, cat.arr_end))
    for kind, ends, members in (
        ("arrows", arrow_ends, cov.arrow_cover),
        ("halfarrows", cat.harr_end, cov.half_cover),
    ):
        for i, j in itertools.combinations(range(len(ends)), 2):
            if ends[i] == ends[j] and members[i] & members[j]:
                rep.fail("injectivity-" + kind, (i, j))
    return rep


def canonical_flat_cover(cat, max_symbols=18):
    """The canonical candidate division by a flat idempotent-commutative
    algebra: the supports of diagrams cover their values, inside the full
    subset monoid of the half-arrows and arrows.

    Computed as the least cover closed under the clauses `verify_covering`
    checks, seeded with {c} at each half-arrow c, {u} at each arrow u and the
    empty support at `harr_one` and at each identity arrow.  Each clause
    builds a diagram from two diagrams, and every diagram is built by clause
    instances, so the fixpoint is exactly the set of diagram supports.  It
    does not depend on the order of evaluation, so after one zeta transform
    of every cover a worklist pops a target and adds what `_target_escapes`
    finds; a cover that grew is re-transformed alone and queues the targets
    of the clauses that read it.  The subset monoid has 2^(half-arrows +
    arrows) elements, so the symbol count is capped.

    Returns (Covering over a FlatMaskAlgebra, stats).
    """
    nh = cat.harr_size
    nsym = nh + cat.arr_size
    if nsym > max_symbols:
        raise BudgetError(
            "canonical cover needs 2^%d supports (cap 2^%d)" % (nsym, max_symbols),
            {"symbols": nsym, "cap": max_symbols},
        )
    inside = np.zeros((nsym, 1 << nsym), dtype=bool)
    for i in range(nsym):
        inside[i, 1 << i] = True
    inside[cat.harr_one, 0] = True
    for e in cat.identity:
        inside[nh + e, 0] = True
    clauses = [c[3:] for c in _clauses(cat)]
    readers = [{t for left, right, t in clauses if i in (left, right)} for i in range(nsym)]
    zeta = _subset_sums(inside, nsym, 1)
    queue = list(range(nsym))
    while queue:
        t = queue.pop(0)
        new = _target_escapes(zeta, inside[t], nsym, clauses, t)
        if new.any():
            inside[t] |= new
            zeta[t] = _subset_sums(inside[t], nsym, 1)
            queue.extend(s for s in readers[t] if s not in queue)

    alg = FlatMaskAlgebra(nsym)
    covers = [frozenset(np.flatnonzero(r).tolist()) for r in inside]
    cov = Covering(alg, tuple(covers[:nh]), tuple(covers[nh:]))
    stats = {
        "forest_pairs": sum(len(s) for s in cov.half_cover),
        "context_pairs": sum(len(s) for s in cov.arrow_cover),
        "symbols": nsym,
    }
    return cov, stats
