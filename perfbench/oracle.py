"""Reference answers for the benchmark, written without forestalg.

Everything here works on its own term representation: a forest is a tuple of
nodes, a node is a pair (label, children forest), and the hole of a context is
the node HOLE.  Parsing, evaluation and depth-k types are iterative, so forests
thousands of nodes deep are ordinary inputs; plugging and rendering recurse and
are only used on small terms.  The text syntax is the one forestalg renders:
`a(b+c)+a`, `0` for the empty forest, `[]` for the hole.
"""

from __future__ import annotations

import re

HOLE = ("[]", ())
_TOKEN = re.compile(r"\s*(?:(\[\])|([A-Za-z0-9_]+)|([+()]))")


class OracleError(ValueError):
    """Text that the reference parser cannot read, or a malformed term."""


def parse(text):
    """Parse forest or context text into the reference representation."""
    if text.strip() == "0":
        return ()
    stack = [[]]  # one list of finished nodes per open parenthesis
    labels = []  # label of each open parenthesis
    pos, n = 0, len(text)
    expect_item = True
    pending = None  # a label read but not yet closed into a node
    while True:
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise OracleError("unexpected text at %d" % pos)
            break
        pos = m.end()
        hole, label, punct = m.groups()
        if expect_item:
            if hole:
                stack[-1].append(HOLE)
                expect_item = False
            elif label:
                pending = label
                expect_item = False
            else:
                raise OracleError("expected a term at %d" % m.start())
            continue
        if punct == "(" and pending is not None:
            labels.append(pending)
            stack.append([])
            pending = None
            expect_item = True
            continue
        if pending is not None:
            stack[-1].append((pending, ()))
            pending = None
        if punct == "+":
            expect_item = True
        elif punct == ")":
            if not labels:
                raise OracleError("unbalanced ')' at %d" % m.start())
            children = tuple(stack.pop())
            stack[-1].append((labels.pop(), children))
        else:
            raise OracleError("unexpected token at %d" % m.start())
    if pending is not None:
        stack[-1].append((pending, ()))
    if labels or expect_item:
        raise OracleError("unterminated term")
    return tuple(stack[0])


def _postorder(forest):
    """(node, parent index or None) in preorder, without recursion; read it
    backwards to see every node after its children."""
    order = []
    stack = [(node, None) for node in forest]
    while stack:
        node, parent = stack.pop()
        idx = len(order)
        order.append((node, parent))
        stack.extend((child, idx) for child in node[1])
    return order


def fold(forest, leaf_of_node, combine):
    """Bottom-up fold: a node's value is leaf_of_node(label, children value);
    a forest's value is combine over its trees, starting from combine's unit."""
    order = _postorder(forest)
    zero, add = combine
    acc = [zero] * len(order)
    top = zero
    for idx in range(len(order) - 1, -1, -1):
        node, parent = order[idx]
        value = leaf_of_node(node[0], acc[idx])
        if parent is None:
            top = add(top, value)
        else:
            acc[parent] = add(acc[parent], value)
    return top


def evaluate_tables(forest, algebra, letters):
    """Value of a forest under a table algebra: sums of act(children, letter)."""
    add = algebra.add
    act = algebra.act
    return fold(forest, lambda a, h: act[h][letters[a]], (algebra.zero, lambda x, y: add[x][y]))


def canon(forest):
    """A canonical key: equal keys exactly for equal forests as multisets."""
    return fold(
        forest,
        lambda a, kids: ((a, kids),),
        ((), lambda x, y: tuple(sorted(x + y))),
    )


def plug(context, forest):
    """Substitute forest for the hole of context."""
    found = []

    def walk(f):
        out = []
        for node in f:
            if node == HOLE:
                found.append(True)
                out.extend(forest)
            else:
                out.append((node[0], walk(node[1])))
        return tuple(out)

    result = walk(context)
    if len(found) != 1:
        raise OracleError("a context needs exactly one hole, found %d" % len(found))
    return result


def root_types(forest, k):
    """Renders of the depth-k types of the roots, in forestalg's text form:
    `*` at depth 0, otherwise `label{child types at depth k-1, sorted}`."""
    return frozenset(_types(forest, k)[0])


def node_types(forest, k):
    """Renders of the depth-k types of every node."""
    return frozenset(_types(forest, k)[1])


def _types(forest, k):
    order = _postorder(forest)
    # per node: its type at every depth 0..k, computed from the children's
    kids = [[] for _ in order]
    roots, nodes = [], []
    for idx in range(len(order) - 1, -1, -1):
        node, parent = order[idx]
        row = ["*"]
        for j in range(1, k + 1):
            inner = ",".join(sorted({c[j - 1] for c in kids[idx]}))
            row.append("%s{%s}" % (node[0], inner))
        kids[idx] = None
        nodes.append(row[k])
        if parent is None:
            roots.append(row[k])
        else:
            kids[parent].append(row)
    return roots, nodes


def klt_signature(forest, k):
    """(node types at depth k, root types at depth k-1)."""
    return node_types(forest, k), root_types(forest, k - 1)


def add(f, g):
    return tuple(f) + tuple(g)


def render(forest):
    if not forest:
        return "0"
    return "+".join(a if not kids else "%s(%s)" % (a, render(kids)) for a, kids in forest)


def forests_upto(labels, max_nodes):
    """Every forest over `labels` with at most max_nodes nodes, once each up
    to the order of siblings."""
    labels = sorted(labels)
    trees = {}  # size -> list of trees
    forests = {0: [()]}
    for n in range(1, max_nodes + 1):
        trees[n] = [(a, f) for f in forests[n - 1] for a in labels]
        pool = [(s, t) for s in range(1, n + 1) for t in trees[s]]
        out = []

        def build(remaining, start, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for i in range(start, len(pool)):
                s, t = pool[i]
                if s <= remaining:
                    build(remaining - s, i, acc + [t])

        build(n, 0, [])
        forests[n] = out
    return [f for n in range(max_nodes + 1) for f in forests[n]]


def check_evidence(evidence, accepts):
    """Replay NotLT evidence on concrete terms with the reference code.

    `accepts` decides membership of a reference forest.  Returns None when the
    evidence holds, else a one-line reason.
    """
    sep = parse(evidence["separator"])
    if "doubled" in evidence:
        r = parse(evidence["term"])
        doubled = parse(evidence["doubled"])
        if canon(doubled) != canon(add(r, r)):
            return "doubled term is not r + r"
        lhs, rhs = r, doubled
    else:
        kstar = evidence["kstar"]
        parts = [parse(t) for t in evidence["terms"]]
        lhs, rhs = parse(evidence["lhs"]), parse(evidence["rhs"])
        if evidence["kind"] == "i":
            r, s, t, u = parts
            if not root_types(r, kstar) <= root_types(s, kstar):
                return "side condition of identity (i) fails at k*"
            want_l = add(plug(t, add(r, s)), plug(u, r))
            want_r = add(plug(t, s), plug(u, r))
        else:
            r, p, q, q2 = parts
            rp = plug(p, r)
            if root_types(rp, kstar) != root_types(r, kstar):
                return "side condition of identity (ii) fails at k*"
            want_l = add(plug(q, rp), plug(q2, rp))
            want_r = add(plug(q, r), plug(q2, rp))
        if canon(lhs) != canon(want_l) or canon(rhs) != canon(want_r):
            return "lhs/rhs are not the identity's two sides"
    if accepts(plug(sep, lhs)) == accepts(plug(sep, rhs)):
        return "separator does not flip acceptance"
    return None
