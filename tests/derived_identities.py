"""The consequences of the three identities, and a second parse of forest
diagrams, kept beside the tests as soundness references: whenever
`check_identities` passes on idempotent-commutative objects, every check of
`check_derived_identities` must pass too, and `eval_forest_diagram_alt` must
agree with `eval_forest_diagram` on every category that obeys the laws."""

from dataclasses import dataclass

from forestalg.category import DiagramError, _Enumerator, eval_forest_diagram, render_diagram


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
        w = u if rest_val is None else cat.insert(u, rest_val)
        return cat.act_on(inner, w)
    v = first[1] if first[0] == "h" else None
    if v is None:
        raise DiagramError("exposed object in a forest diagram")
    return v if rest_val is None else cat.hsum(v, rest_val)


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
    vertical = ((u,) for u in endo if cat.compose(u, u) != u)
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
                rt, st = cat.act_on(r, t), cat.act_on(s, t)
                for u in cat.arrows_from(x):
                    ru, su = cat.act_on(r, u), cat.act_on(s, u)
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
                ru = cat.act_on(r, u)
                lhs_head = cat.hsum(r, t)
                rhs_head = cat.hsum(ru, t)
                if cat.harr_end[rhs_head] != xy:
                    continue  # without idempotent objects this may not typecheck
                for sarr in cat.arrows_from(xy):
                    lhs = cat.hsum(cat.act_on(lhs_head, sarr), ru)
                    rhs = cat.hsum(cat.act_on(rhs_head, sarr), ru)
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
