"""Finite forest categories, diagrams, and division by flat algebras.

A forest category has a commutative monoid of objects, a commutative monoid
of half-arrows with an end map onto the objects, and arrows between objects
with composition, a faithful action on half-arrows, and an insertion
operation pairing an arrow with a half-arrow.  A category with one object is
exactly a forest algebra.

Diagrams are forests whose leaves are half-arrows and whose internal nodes
are arrows, the start of each node matching the sum of its children's ends;
they evaluate to half-arrows.  Removing one leaf exposes an object and gives
a context diagram, which evaluates to an arrow.

Everything is table-driven and immutable; checks are exhaustive and report
the first witness.  `validate_category` checks every law where tables enter
from outside, in `category_from_json` and the hand-built samples; the
categories built from algebras are not validated, and the tests validate
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import BudgetError, FlatMaskAlgebra, ForestAlgebra

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
    "eval_forest_diagram_alt",
    "eval_context_diagram",
    "diagram_support",
    "diagram_rootsum",
    "render_diagram",
    "IdentityReport",
    "check_identities",
    "DerivedIdentityReport",
    "check_derived_identities",
    "brute_force_global_ic",
    "Covering",
    "canonical_flat_cover",
    "verify_covering",
    "CoverReport",
]


class CategoryLawError(ValueError):
    def __init__(self, law, where, message):
        super().__init__("%s: %s (witness %r)" % (law, message, where))
        self.law = law
        self.where = where


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class ForestCategory:
    """The tables of a finite forest category, taken unchecked."""

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
    comp: dict  # (u, v) -> w, defined iff arr_end[u] == arr_start[v]
    act: dict  # (c, u) -> d, defined iff harr_end[c] == arr_start[u]
    ins: dict  # (u, c) -> w, total

    def obj_sum(self, x, y):
        return self.obj_add[x][y]

    def hsum(self, c, d):
        return self.harr_add[c][d]

    def act_on(self, c, u):
        try:
            return self.act[(c, u)]
        except KeyError:
            raise DiagramError("half-arrow %d does not meet arrow %d" % (c, u)) from None

    def arrows_from(self, x):
        return self._by_object[0].get(x, ())

    def arrows_to(self, x):
        return self._by_object[1].get(x, ())

    def harrs_to(self, x):
        return self._by_object[2].get(x, ())

    @cached_property
    def _by_object(self):
        """Arrows by start and by end object, half-arrows by end object."""
        out = ({}, {}, {})
        for by, ends in zip(out, (self.arr_start, self.arr_end, self.harr_end)):
            for i, x in enumerate(ends):
                by.setdefault(x, []).append(i)
        return tuple({x: tuple(items) for x, items in by.items()} for by in out)

    def objects_idempotent(self):
        return all(self.obj_add[x][x] == x for x in range(self.obj_size))


def _check_comm_monoid(size, table, unit, name):
    if len(table) != size or any(len(r) != size for r in table):
        raise CategoryLawError(name + "-shape", (), "not %d x %d" % (size, size))
    for x in range(size):
        if table[unit][x] != x or table[x][unit] != x:
            raise CategoryLawError(name + "-identity", (x,), "unit law fails")
        for y in range(size):
            if table[x][y] != table[y][x]:
                raise CategoryLawError(name + "-commutativity", (x, y), "xy != yx")
            for z in range(size):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise CategoryLawError(name + "-associativity", (x, y, z), "not associative")


def validate_category(cat: ForestCategory) -> ForestCategory:
    """Exhaustively check the forest category axioms, reporting the first
    violation with the element ids that instantiate it."""
    _check_comm_monoid(cat.obj_size, cat.obj_add, cat.obj_zero, "objects")
    _check_comm_monoid(cat.harr_size, cat.harr_add, cat.harr_one, "halfarrows")
    # end is a monoid homomorphism onto the objects
    if len(cat.harr_end) != cat.harr_size:
        raise CategoryLawError("end-shape", (), "end array has wrong length")
    if cat.harr_end[cat.harr_one] != cat.obj_zero:
        raise CategoryLawError("end-homomorphism", (cat.harr_one,), "end(identity) != 0")
    for c in range(cat.harr_size):
        for d in range(cat.harr_size):
            if cat.harr_end[cat.harr_add[c][d]] != cat.obj_add[cat.harr_end[c]][cat.harr_end[d]]:
                raise CategoryLawError("end-homomorphism", (c, d), "end(c+d) != end(c)+end(d)")
    covered = set(cat.harr_end)
    for x in range(cat.obj_size):
        if x not in covered:
            raise CategoryLawError("end-onto", (x,), "object has no half-arrow")
    # arrows: endpoints, composition domain, associativity, identities
    for u in range(cat.arr_size):
        if not (0 <= cat.arr_start[u] < cat.obj_size and 0 <= cat.arr_end[u] < cat.obj_size):
            raise CategoryLawError("arrow-endpoints", (u,), "endpoint out of range")
    for u in range(cat.arr_size):
        for v in range(cat.arr_size):
            defined = (u, v) in cat.comp
            matches = cat.arr_end[u] == cat.arr_start[v]
            if defined != matches:
                raise CategoryLawError("composition-domain", (u, v), "domain mismatch")
            if defined:
                w = cat.comp[(u, v)]
                if cat.arr_start[w] != cat.arr_start[u] or cat.arr_end[w] != cat.arr_end[v]:
                    raise CategoryLawError("composition-endpoints", (u, v), "bad endpoints")
    for u in range(cat.arr_size):
        for v in cat.arrows_from(cat.arr_end[u]):
            for w in cat.arrows_from(cat.arr_end[v]):
                if cat.comp[(cat.comp[(u, v)], w)] != cat.comp[(u, cat.comp[(v, w)])]:
                    raise CategoryLawError("composition-associativity", (u, v, w), "not associative")
    if len(cat.identity) != cat.obj_size:
        raise CategoryLawError("identity-shape", (), "one identity arrow per object")
    for x in range(cat.obj_size):
        e = cat.identity[x]
        if cat.arr_start[e] != x or cat.arr_end[e] != x:
            raise CategoryLawError("identity-endpoints", (x,), "identity not an endo-arrow")
        for u in range(cat.arr_size):
            if cat.arr_end[u] == x and cat.comp[(u, e)] != u:
                raise CategoryLawError("identity-right", (u, x), "u . id != u")
            if cat.arr_start[u] == x and cat.comp[(e, u)] != u:
                raise CategoryLawError("identity-left", (u, x), "id . u != u")
    # action on half-arrows
    for c in range(cat.harr_size):
        for u in range(cat.arr_size):
            defined = (c, u) in cat.act
            matches = cat.harr_end[c] == cat.arr_start[u]
            if defined != matches:
                raise CategoryLawError("action-domain", (c, u), "domain mismatch")
            if defined and cat.harr_end[cat.act[(c, u)]] != cat.arr_end[u]:
                raise CategoryLawError("action-endpoints", (c, u), "bad end")
    for c in range(cat.harr_size):
        x = cat.harr_end[c]
        if cat.act[(c, cat.identity[x])] != c:
            raise CategoryLawError("action-identity", (c,), "c . id != c")
        for u in cat.arrows_from(x):
            for w in cat.arrows_from(cat.arr_end[u]):
                if cat.act[(cat.act[(c, u)], w)] != cat.act[(c, cat.comp[(u, w)])]:
                    raise CategoryLawError("action-associativity", (c, u, w), "not associative")
    # faithfulness: coterminal arrows acting identically must be equal
    for u in range(cat.arr_size):
        for v in range(u + 1, cat.arr_size):
            if cat.arr_start[u] == cat.arr_start[v] and cat.arr_end[u] == cat.arr_end[v]:
                incoming = cat.harrs_to(cat.arr_start[u])
                if all(cat.act[(c, u)] == cat.act[(c, v)] for c in incoming):
                    raise CategoryLawError("action-faithfulness", (u, v), "arrows indistinguishable")
    # insertion: totality, endpoints, pre-composition and nesting laws
    for u in range(cat.arr_size):
        for c in range(cat.harr_size):
            if (u, c) not in cat.ins:
                raise CategoryLawError("insertion-total", (u, c), "missing insertion")
            w = cat.ins[(u, c)]
            if cat.arr_start[w] != cat.arr_start[u] or cat.arr_end[w] != cat.obj_add[
                cat.arr_end[u]
            ][cat.harr_end[c]]:
                raise CategoryLawError("insertion-endpoints", (u, c), "bad endpoints")
    for u in range(cat.arr_size):
        for c in range(cat.harr_size):
            w = cat.ins[(u, c)]
            for f in cat.arrows_to(cat.arr_start[u]):
                if cat.comp[(f, w)] != cat.ins[(cat.comp[(f, u)], c)]:
                    raise CategoryLawError(
                        "insertion-precomposition", (f, u, c), "f.ins(u,c) != ins(f.u,c)"
                    )
            for d in range(cat.harr_size):
                if cat.ins[(w, d)] != cat.ins[(u, cat.harr_add[c][d])]:
                    raise CategoryLawError(
                        "insertion-nesting", (u, c, d), "ins(ins(u,c),d) != ins(u,c+d)"
                    )
    return cat


def one_object_category(alg: ForestAlgebra) -> ForestCategory:
    """A forest category with one object is a forest algebra; this is that
    correspondence, pointed the other way.  It obeys every law that `alg`
    does, so it is not validated here."""
    comp = {(u, v): alg.mul[u][v] for u in range(alg.v_size) for v in range(alg.v_size)}
    act = {(c, u): alg.act[c][u] for c in range(alg.h_size) for u in range(alg.v_size)}
    ins = {(u, c): alg.ins[u][c] for u in range(alg.v_size) for c in range(alg.h_size)}
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
        comp=comp,
        act=act,
        ins=ins,
    )


def category_to_json(cat):
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
        "comp": {"%d,%d" % k: v for k, v in sorted(cat.comp.items())},
        "act": {"%d,%d" % k: v for k, v in sorted(cat.act.items())},
        "ins": {"%d,%d" % k: v for k, v in sorted(cat.ins.items())},
    }


def category_from_json(data):
    def unkey(d):
        out = {}
        for k, v in d.items():
            i, j = k.split(",")
            out[(int(i), int(j))] = v
        return out

    o, h = data["objects"], data["halfarrows"]
    arrows = data["arrows"]
    cat = ForestCategory(
        obj_size=o["size"],
        obj_add=tuple(tuple(r) for r in o["add"]),
        obj_zero=o["zero"],
        harr_size=h["size"],
        harr_add=tuple(tuple(r) for r in h["add"]),
        harr_one=h["one"],
        harr_end=tuple(h["end"]),
        arr_size=len(arrows),
        arr_start=tuple(a["start"] for a in arrows),
        arr_end=tuple(a["end"] for a in arrows),
        identity=tuple(data["identity"]),
        comp=unkey(data["comp"]),
        act=unkey(data["act"]),
        ins=unkey(data["ins"]),
    )
    return validate_category(cat)


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
    x = cat.obj_zero
    for t in diagram:
        x = cat.obj_sum(x, _tree_end(cat, t))
    return x


def diagram_support(cat, diagram):
    """The set of half-arrows and arrows occurring, as ('h', id) / ('a', id)."""
    out = set()

    def walk(tree):
        if tree[0] == "h":
            out.add(("h", tree[1]))
        elif tree[0] == "n":
            out.add(("a", tree[1]))
            for t in tree[2]:
                walk(t)

    for t in diagram:
        walk(t)
    return frozenset(out)


def _eval_tree(cat, tree):
    if tree[0] == "h":
        return tree[1]
    if tree[0] == "o":
        raise DiagramError("exposed object in a forest diagram")
    _, u, children = tree
    c = eval_forest_diagram(cat, children)
    if cat.harr_end[c] != cat.arr_start[u]:
        raise DiagramError("children of arrow %d end at the wrong object" % u)
    return cat.act[(c, u)]


def eval_forest_diagram(cat, diagram):
    """Canonical evaluation: children are summed in the half-arrow monoid,
    then acted on by the node's arrow."""
    c = cat.harr_one
    for t in diagram:
        c = cat.hsum(c, _eval_tree(cat, t))
    return c


def eval_forest_diagram_alt(cat, diagram):
    """Alternative parse: when the first tree is an arrow over children, its
    siblings are absorbed into that arrow by insertion instead of being summed
    afterwards, and sums fold to the right.  Agreement with the canonical
    evaluation is a tested property of a category, not an assumption."""
    if not diagram:
        return cat.harr_one
    first, rest = diagram[0], diagram[1:]
    if rest:
        rest_vals = [eval_forest_diagram_alt(cat, (t,)) for t in rest]
        rest_val = rest_vals[-1]
        for v in reversed(rest_vals[:-1]):
            rest_val = cat.hsum(v, rest_val)
    else:
        rest_val = None
    if first[0] == "n":
        _, u, kids = first
        inner = eval_forest_diagram_alt(cat, kids)
        w = u if rest_val is None else cat.ins[(u, rest_val)]
        return cat.act_on(inner, w)
    v = first[1] if first[0] == "h" else None
    if v is None:
        raise DiagramError("exposed object in a forest diagram")
    return v if rest_val is None else cat.hsum(v, rest_val)


def eval_context_diagram(cat, diagram):
    """Evaluate a diagram with exactly one exposed object to an arrow; returns
    (arrow id, exposed object)."""
    holes = [i for i, t in enumerate(diagram) if _contains_hole(t)]
    if len(holes) != 1:
        raise DiagramError("context diagram needs exactly one exposed object")
    i = holes[0]
    rest = diagram[:i] + diagram[i + 1 :]
    arrow, start = _eval_ctx_tree(cat, diagram[i])
    if rest:
        c = eval_forest_diagram(cat, rest)
        arrow = cat.ins[(arrow, c)]
    return arrow, start


def _contains_hole(tree):
    if tree[0] == "o":
        return True
    if tree[0] == "n":
        return any(_contains_hole(t) for t in tree[2])
    return False


def _eval_ctx_tree(cat, tree):
    if tree[0] == "o":
        x = tree[1]
        return cat.identity[x], x
    if tree[0] != "n":
        raise DiagramError("hole path runs through a leaf")
    _, u, children = tree
    arrow, start = eval_context_diagram(cat, children)
    if cat.arr_end[arrow] != cat.arr_start[u]:
        raise DiagramError("context children end at the wrong object")
    return cat.comp[(arrow, u)], start


def render_diagram(diagram):
    def tree(t):
        if t[0] == "h":
            return "h%d" % t[1]
        if t[0] == "o":
            return "<%d>" % t[1]
        if t[0] == "s":
            return "<slot%d:%d>" % (t[1], t[2])
        _, u, kids = t
        if not kids:
            return "a%d()" % u
        return "a%d(%s)" % (u, render_diagram(kids))

    return "+".join(tree(t) for t in diagram) if diagram else "()"


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
# idempotent commutative objects), and their derived consequences


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


def check_identities(cat) -> IdentityReport:
    """Exhaustively check loop removal, horizontal absorption and horizontal
    idempotence; each failure carries the instantiating ids.  The identities
    characterize global idempotent-commutativity only when the object monoid
    is idempotent and commutative, which is reported as a precondition."""
    idempotence = ((r,) for r in range(cat.harr_size) if cat.hsum(r, r) != r)
    return IdentityReport(
        objects_ic=cat.objects_idempotent(),
        loop_removal=_loop_removal(cat),
        horizontal_absorption=_horizontal_absorption(cat),
        horizontal_idempotence=next(idempotence, None),
    )


def _loop_removal(cat):
    for r in range(cat.harr_size):
        y = cat.harr_end[r]
        loops = [s for s in cat.arrows_from(y) if cat.arr_end[s] == y]
        outs = cat.arrows_from(y)
        for s in loops:
            rs = cat.act[(r, s)]
            for t1 in outs:
                left1 = cat.act[(rs, t1)]
                right1 = cat.act[(r, t1)]
                for t2 in outs:
                    tail = cat.act[(rs, t2)]
                    if cat.hsum(left1, tail) != cat.hsum(right1, tail):
                        return (r, s, t1, t2)
    return None


def _horizontal_absorption(cat):
    for r in range(cat.harr_size):
        x = cat.harr_end[r]
        for s in range(cat.harr_size):
            xs = cat.harr_end[s]
            if cat.obj_sum(x, xs) != xs:
                continue  # end(s) must absorb end(r)
            rs = cat.hsum(r, s)
            for t in cat.arrows_from(xs):
                left_t = cat.act[(rs, t)]
                right_t = cat.act[(s, t)]
                if left_t == right_t:
                    continue
                for u in cat.arrows_from(x):
                    ru = cat.act[(r, u)]
                    if cat.hsum(left_t, ru) != cat.hsum(right_t, ru):
                        return (r, s, t, u)
    return None


@dataclass
class DerivedIdentityReport:
    vertical_idempotence: tuple | None = None
    horizontal_swap: tuple | None = None
    nested_insertion_variant: tuple | None = None
    horizontal_transfer: tuple | None = None

    def all_hold(self):
        return all(
            v is None
            for v in (
                self.vertical_idempotence,
                self.horizontal_swap,
                self.nested_insertion_variant,
                self.horizontal_transfer,
            )
        )


def check_derived_identities(cat, transfer_bound=4) -> DerivedIdentityReport:
    """Check the four consequences of the three identities: whenever
    check_identities passes on idempotent-commutative objects these must also
    pass.  There is no precondition; the report is informational."""
    # vertical idempotence: endo-arrows are idempotent
    endo = (u for u in range(cat.arr_size) if cat.arr_start[u] == cat.arr_end[u])
    vertical = ((u,) for u in endo if cat.comp[(u, u)] != u)
    return DerivedIdentityReport(
        vertical_idempotence=next(vertical, None),
        horizontal_swap=_horizontal_swap(cat),
        nested_insertion_variant=_nested_insertion_variant(cat),
        horizontal_transfer=_check_horizontal_transfer(cat, transfer_bound),
    )


def _horizontal_swap(cat):
    """rt + su = st + ru for r,s ending at the same object."""
    for r in range(cat.harr_size):
        x = cat.harr_end[r]
        for s in cat.harrs_to(x):
            for t in cat.arrows_from(x):
                rt, st = cat.act[(r, t)], cat.act[(s, t)]
                for u in cat.arrows_from(x):
                    ru, su = cat.act[(r, u)], cat.act[(s, u)]
                    if cat.hsum(rt, su) != cat.hsum(st, ru):
                        return (r, s, t, u)
    return None


def _nested_insertion_variant(cat):
    """(r+t)s + ru = (ru+t)s + ru, for u: x -> x+y with y = end(t)."""
    for r in range(cat.harr_size):
        x = cat.harr_end[r]
        for t in range(cat.harr_size):
            y = cat.harr_end[t]
            xy = cat.obj_sum(x, y)
            for u in cat.arrows_from(x):
                if cat.arr_end[u] != xy:
                    continue
                ru = cat.act[(r, u)]
                lhs_head = cat.hsum(r, t)
                rhs_head = cat.hsum(ru, t)
                if cat.harr_end[rhs_head] != xy:
                    continue  # without idempotent objects this may not typecheck
                for sarr in cat.arrows_from(xy):
                    lhs = cat.hsum(cat.act[(lhs_head, sarr)], ru)
                    rhs = cat.hsum(cat.act[(rhs_head, sarr)], ru)
                    if lhs != rhs:
                        return (r, t, u, sarr)
    return None


def _check_horizontal_transfer(cat, bound):
    """Multicontext identity D(v+w, v, u) = D(u+w, v, u) where end(v)=x,
    end(w)=y, end(u)=x+y and the three slots expose x+y, x, x+y; checked over
    all multicontext diagrams with at most `bound` nodes."""
    combos = {}
    for v in range(cat.harr_size):
        x = cat.harr_end[v]
        for w in range(cat.harr_size):
            y = cat.harr_end[w]
            xy = cat.obj_sum(x, y)
            for u in cat.harrs_to(xy):
                vw = cat.hsum(v, w)
                uw = cat.hsum(u, w)
                if cat.harr_end[vw] != xy or cat.harr_end[uw] != xy:
                    continue
                combos.setdefault((x, xy), []).append((v, w, u, vw, uw))
    full = (1 << 3) - 1
    for (x, xy), triples in sorted(combos.items()):
        enum = _Enumerator(cat, extra_leaves=(xy, x, xy))
        for n in range(3, bound + 1):
            for forest, _, slots in enum.forests_exact(n):
                if slots != full:
                    continue
                for (v, w, u, vw, uw) in triples:
                    lhs = eval_forest_diagram(cat, _fill(forest, (vw, v, u)))
                    rhs = eval_forest_diagram(cat, _fill(forest, (uw, v, u)))
                    if lhs != rhs:
                        return (v, w, u, render_diagram(forest))
    return None


def _fill(diagram, values):
    """Substitute half-arrows for the indexed slots of a multicontext."""

    def tree(t):
        if t[0] == "s":
            return ("h", values[t[1]])
        if t[0] == "n":
            return ("n", t[1], tuple(tree(k) for k in t[2]))
        return t

    return tuple(tree(t) for t in diagram)


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
    operation of the covering algebra; the operands and the target are
    ("h", half-arrow) or ("a", arrow), the symbols of `diagram_support`.  A
    cover is closed under a clause when op maps every member pair of the left
    and right covers into the target's cover; in the other direction, each
    clause builds a diagram of the target from diagrams of its operands."""
    out = []
    for u in range(cat.arr_size):
        for v in cat.arrows_from(cat.arr_end[u]):
            w = cat.comp[(u, v)]
            out.append(("preserve-composition", (u, v), "v_mul", ("a", u), ("a", v), ("a", w)))
    for c in range(cat.harr_size):
        for u in cat.arrows_from(cat.harr_end[c]):
            d = cat.act[(c, u)]
            out.append(("preserve-action", (c, u), "act_", ("h", c), ("a", u), ("h", d)))
    for c in range(cat.harr_size):
        for d in range(cat.harr_size):
            e = cat.harr_add[c][d]
            out.append(("preserve-addition", (c, d), "h_add", ("h", c), ("h", d), ("h", e)))
    for u in range(cat.arr_size):
        for c in range(cat.harr_size):
            w = cat.ins[(u, c)]
            out.append(("preserve-insertion", (u, c), "ins_", ("a", u), ("h", c), ("a", w)))
    return out


def _rows(cat):
    """Each symbol's row: half-arrows, then arrows.  Row i is also bit i of
    a support mask."""
    rows = {("h", c): c for c in range(cat.harr_size)}
    rows.update((("a", u), cat.harr_size + u) for u in range(cat.arr_size))
    return rows


def _subset_sums(a, n, sign):
    """Over the last axis, indexed by n-bit masks: the zeta transform (sign 1,
    each entry becomes the sum over its submasks) or its inverse, the Möbius
    transform (sign -1).  The union-convolution of two indicators is the
    Möbius transform of the product of their zeta transforms."""
    v = np.array(a, dtype=np.int64)
    step = np.add if sign > 0 else np.subtract
    for b in range(n):
        w = v.reshape(-1, 2, 1 << b)
        step(w[:, 1, :], w[:, 0, :], out=w[:, 1, :])
    return v


def _escapes(zeta, inside, n, clauses):
    """The masks that some clause reaches outside its target's cover, shaped
    like the cover indicators `inside`, given their zeta transforms.  Each
    clause is (left, right, target) rows.  The products aimed at each target
    are summed and each sum is inverted once: the inverse of each product
    counts pairs and is never negative, so a sum is positive exactly where
    some clause reaches."""
    reach = np.zeros_like(zeta)
    for left, right, target in clauses:
        reach[target] += zeta[left] * zeta[right]
    return (_subset_sums(reach, n, -1) > 0) & ~inside


def verify_covering(cat, alg, cov: Covering) -> CoverReport:
    """Exhaustive check of the division clauses: every cover is nonempty,
    closed under each clause of `_clauses`, and disjoint from the covers of
    the coterminal elements.

    The algebra only needs the elementwise protocol; cover members are its
    elements (indices for table algebras, masks for FlatMaskAlgebra).  A
    table algebra is checked member pair by member pair, and a failure names
    the clause with the pair appended.  Over a FlatMaskAlgebra the covers are
    zeta-transformed once, one sum of union-convolutions per target finds the
    targets that fail, and only the clauses aimed at those are convolved one
    by one; a failure names the clause.
    """
    rep = CoverReport(True)
    for c in range(cat.harr_size):
        if not cov.half_cover[c]:
            rep.fail("half-cover-nonempty", (c,))
    for u in range(cat.arr_size):
        if not cov.arrow_cover[u]:
            rep.fail("arrow-cover-nonempty", (u,))
    if not rep.ok:
        return rep
    row = _rows(cat)
    covers = tuple(cov.half_cover) + tuple(cov.arrow_cover)
    if isinstance(alg, FlatMaskAlgebra):
        n = alg.n_symbols
        inside = np.zeros((len(covers), 1 << n), dtype=bool)
        for i, members in enumerate(covers):
            inside[i, list(members)] = True
        zeta = _subset_sums(inside, n, 1)
        clauses = _clauses(cat)
        clause_rows = [(row[left], row[right], row[target]) for *_, left, right, target in clauses]
        failing = _escapes(zeta, inside, n, clause_rows).any(axis=1)
        # a target fails exactly when one of the clauses aimed at it does
        for name, where, _, left, right, target in clauses:
            if failing[row[target]]:
                got = _subset_sums(zeta[row[left]] * zeta[row[right]], n, -1)
                if (got[~inside[row[target]]] > 0).any():
                    rep.fail(name, where)
    else:
        for name, where, op, left, right, target in _clauses(cat):
            f, allowed = getattr(alg, op), covers[row[target]]
            for p in covers[row[left]]:
                for q in covers[row[right]]:
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
    instances, so the fixpoint is exactly the set of diagram supports.  Each
    round zeta-transforms every cover once and adds what `_escapes` finds.
    The subset monoid has 2^(half-arrows + arrows) elements, so the symbol
    count is capped.

    Returns (Covering over a FlatMaskAlgebra, stats).
    """
    nh = cat.harr_size
    nsym = nh + cat.arr_size
    if nsym > max_symbols:
        raise BudgetError(
            "canonical cover needs 2^%d supports (cap 2^%d)" % (nsym, max_symbols),
            {"symbols": nsym, "cap": max_symbols},
        )
    row = _rows(cat)
    inside = np.zeros((nsym, 1 << nsym), dtype=bool)
    for i in range(nsym):
        inside[i, 1 << i] = True
    inside[row[("h", cat.harr_one)], 0] = True
    for e in cat.identity:
        inside[row[("a", e)], 0] = True
    clauses = [(row[left], row[right], row[target]) for *_, left, right, target in _clauses(cat)]

    while True:
        new = _escapes(_subset_sums(inside, nsym, 1), inside, nsym, clauses)
        if not new.any():
            break
        inside |= new

    alg = FlatMaskAlgebra(nsym)
    covers = [frozenset(np.flatnonzero(r).tolist()) for r in inside]
    cov = Covering(alg, tuple(covers[:nh]), tuple(covers[nh:]))
    stats = {
        "forest_pairs": sum(len(s) for s in cov.half_cover),
        "context_pairs": sum(len(s) for s in cov.arrow_cover),
        "symbols": nsym,
    }
    return cov, stats
