"""Terms of the free forest algebra over a finite alphabet.

A forest is a finite multiset of unordered trees; a context is a forest in
which exactly one leaf slot is a hole.  Values are canonicalized on
construction (siblings sorted under a fixed structural order), so structural
equality coincides with equality of commutative-forest values.

Text grammar, whitespace-insensitive between tokens:

    forest  := "0" | tree ("+" tree)*
    tree    := label ("(" forest ")")?
    context := as forest, with the hole token "[]" used exactly once
               in tree position

Labels are nonempty tokens over [A-Za-z0-9_] drawn from a declared alphabet.
The token "0" is reserved for the empty forest and cannot be a label.
Rendering lists siblings in canonical order, "+"-separated, with no spaces;
in a context the hole spine is rendered first.

Parsing (one tokenizer and one shift-reduce loop), rendering (one token
writer, `_render`, which diagrams share), hashing (each node combines its
size and label with its children's cached hashes), comparison (the built-in
tuple comparison of keys for small terms, an explicit stack for large ones),
`apply_context` and `compose` (loops along the hole spine) work at any
depth, and so does `_fold`, the explicit-stack fold by which derivations
replay into terms, depth-k types truncate and render, and diagrams evaluate.

A parse builds one object per distinct subtree of its text, so equal
subtrees are the same object; a forest of 10^5 nodes with few distinct
subtrees keeps few objects alive.  All values are immutable after
construction and safe to share across threads and between terms.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice
from operator import attrgetter

__all__ = [
    "Tree",
    "Forest",
    "Context",
    "EMPTY",
    "HOLE",
    "ParseError",
    "UnknownLabelError",
    "make_alphabet",
    "parse_forest",
    "parse_context",
    "apply_context",
    "compose",
    "enumerate_forests",
    "enumerate_contexts",
]

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+")


class ParseError(ValueError):
    """Syntax error in a term, with a character position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownLabelError(ParseError):
    def __init__(self, label, position):
        super().__init__("unknown label %r" % label, position)
        self.label = label


def make_alphabet(labels) -> frozenset:
    """Validate and freeze an alphabet of labels."""
    out = set()
    for lab in labels:
        if not isinstance(lab, str) or _LABEL_RE.fullmatch(lab) is None:
            raise ValueError("invalid label %r: must match [A-Za-z0-9_]+" % (lab,))
        if lab == "0":
            raise ValueError('label "0" is reserved for the empty forest')
        out.add(lab)
    if not out:
        raise ValueError("alphabet must be nonempty")
    return frozenset(out)


# Terms with fewer nodes than this nest their keys shallowly enough for the
# built-in tuple comparison, which recurses along the nesting.
_SHALLOW = 128
_KEY, _SIZE, _HASH = attrgetter("key"), attrgetter("size"), attrgetter("_hash")


def _key_order(x, y):
    """-1, 0 or 1 as key x sorts before, with or after key y in Python's
    tuple order, walked from an explicit stack so keys of any depth compare:
    the items of the common prefix in order, then the lengths."""
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is tuple:
            stack.append((len(x), len(y)))
            stack.extend(reversed(list(zip(x, y))))
        elif x != y:
            return -1 if x < y else 1
    return 0


class _Term:
    """Equality, order and hash of a term from its `key`, `size` and `_hash`.
    A key nests at most about twice as deep as its term has nodes, and a
    comparison descends no deeper than the shallower key, so a term below
    _SHALLOW nodes compares with anything by the built-in tuple comparison."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, type(self)) or self._hash != other._hash:
            return False
        if self.size < _SHALLOW:
            return self.key == other.key
        return _key_order(self.key, other.key) == 0

    def __lt__(self, other):
        if self.size < _SHALLOW:
            return self.key < other.key
        return _key_order(self.key, other.key) < 0

    def __hash__(self):
        return self._hash


class Tree(_Term):
    """A node label over a canonical forest of children."""

    __slots__ = ("label", "children", "size", "key", "_hash")

    def __init__(self, label, children):
        self.label = label
        self.children = children
        self.size = 1 + children.size
        # Total structural order: node count, then root label, then children.
        self.key = (self.size, label, children.key)
        # from the children's cached hash, so a node hashes in O(1)
        self._hash = hash((self.size, label, children._hash))

    def render(self):
        return _render((self,))

    def __repr__(self):
        return "Tree[%s]" % self.render()


class Forest(_Term):
    """A canonical multiset of trees; the horizontal part of the free algebra."""

    __slots__ = ("trees", "size", "key", "_hash")

    def __init__(self, trees=()):
        ts = list(trees)
        self.size = sum(map(_SIZE, ts))
        # below _SHALLOW a tree's key orders it as __lt__ does, with no
        # Python call per comparison
        shallow = self.size < _SHALLOW or max(map(_SIZE, ts)) < _SHALLOW
        ts.sort(key=_KEY if shallow else None)
        self.trees = tuple(ts)
        self.key = tuple(map(_KEY, ts))
        self._hash = hash((self.size, *map(_HASH, ts)))

    @property
    def is_empty(self):
        return not self.trees

    def __add__(self, other):
        return Forest(self.trees + other.trees)

    def adjoin(self, label):
        """The one-tree forest with `label` at the root over this forest."""
        return Forest((Tree(label, self),))

    def render(self):
        return _render(self.trees) if self.trees else "0"

    def __repr__(self):
        return "Forest[%s]" % self.render()

    __str__ = render


EMPTY = Forest()


def _fold(root, children, combine, done, key=lambda node: node):
    """The value of `root` in the memo `done`, which maps key(node) to
    combine(node, values of the collection children(node), in its order).
    Filled bottom-up from an explicit stack, so any depth folds: a node's
    children not yet in `done` are pushed in order, the last is folded
    first, and a node pushed twice is folded once."""
    stack = [] if key(root) in done else [root]
    while stack:
        node = stack[-1]
        kids = children(node)
        todo = [c for c in kids if key(c) not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        at = key(node)
        if at not in done:
            done[at] = combine(node, [done[key(c)] for c in kids])
    return done[key(root)]


def _render(items, head=attrgetter("label", "children.trees")):
    """The "+"-separated text of a nonempty sum of items, where head(item)
    is its text and its children: nonempty children are written in
    parentheses after the text.  One loop over a stack of the sums being
    written, so any depth renders: each item is followed by "+", and a sum
    that ends turns its last "+" into ")", which the top level drops."""
    out, stack = [], [iter(items)]
    append = out.append
    while stack:
        for item in stack[-1]:
            text, kids = head(item)
            if kids:
                append(text + "(")
                stack.append(iter(kids))
                break
            append(text)
            append("+")
        else:
            stack.pop()
            out[-1] = ")"
            append("+")
    del out[-2:]
    return "".join(out)


class Context(_Term):
    """A forest with exactly one hole at a leaf slot; acts on forests by
    substitution of the whole slot (a multi-tree forest may be plugged in).

    Stored as the multiset of trees beside the hole path (`rest`) plus an
    optional spine step `(label, inner)` descending toward the hole.
    """

    __slots__ = ("rest", "spine", "size", "key", "_hash")

    def __init__(self, rest=EMPTY, spine=None):
        self.rest = rest
        self.spine = spine
        if spine is None:
            self.size = rest.size
            self.key = (self.size, 0, "", (), rest.key)
            self._hash = hash((self.size, 0, rest._hash))
        else:
            label, inner = spine
            self.size = rest.size + 1 + inner.size
            self.key = (self.size, 1, label, inner.key, rest.key)
            self._hash = hash((self.size, 1, label, inner._hash, rest._hash))

    @property
    def is_hole(self):
        return self.spine is None and self.rest.is_empty

    def render(self):
        # the hole spine first, then the rest of each level after its ")"
        opens, closes, p = [], [], self
        while p.spine is not None:
            opens.append(p.spine[0] + "(")
            closes.append(")" + _rest_text(p.rest))
            p = p.spine[1]
        return "".join(opens) + "[]" + _rest_text(p.rest) + "".join(reversed(closes))

    def __repr__(self):
        return "Context[%s]" % self.render()

    __str__ = render


HOLE = Context()


def _rest_text(rest):
    return "+" + rest.render() if rest.trees else ""


def _spine(p):
    """The levels of p from the root down to the hole's: the last has no
    spine step, and each other level's step descends to the next."""
    levels = [p]
    while levels[-1].spine is not None:
        levels.append(levels[-1].spine[1])
    return levels


def apply_context(s, p):
    """Substitute the forest s for the hole of p, written sp in the algebra."""
    *above, bottom = _spine(p)
    out = s + bottom.rest
    for level in reversed(above):
        out = Forest((Tree(level.spine[0], out),)) + level.rest
    return out


def compose(p, q):
    """Substitute context p for the hole of q, written pq; acts p first."""
    *above, bottom = _spine(q)
    out = Context(p.rest + bottom.rest, p.spine)
    for level in reversed(above):
        out = Context(level.rest, (level.spine[0], out))
    return out


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(r"[+()]|\[\]|[A-Za-z0-9_]+")
# The first character that starts no token: a "[" without its "]", a "]"
# that closes no "[" or a character outside the grammar.
_BAD_RE = re.compile(r"\[(?!\])|(?<!\[)\]|[^\s+()\[\]A-Za-z0-9_]")
# the tokens that are not labels; "" marks the end of the text
_NOT_LABEL = frozenset(["+", "(", ")", "[]", ""])


def _position(text, i):
    """The character position of token i of text, or len(text) for the end."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


def _parse(text, alphabet, allow_hole):
    """One shift-reduce loop over the tokens.  Each open parenthesis has a
    frame [label, token index, trees, holes] above the top level's frame,
    where `holes` has a (spine, token index) entry per summand that is or
    contains the hole; a level that ends is reduced into a summand of the
    frame below.  Each distinct tree is built once, on a miss: `shared` maps
    (label, *sorted ids of its children) to it; equal children are already
    one object, so that key names the tree, and `a(0)` is the leaf (a,)."""
    bad = _BAD_RE.search(text)  # the whole text is read before any syntax
    if bad is not None:
        if bad.group() == "[":
            raise ParseError("expected ']' after '['", bad.start() + 1)
        raise ParseError("unexpected character %r" % bad.group(), bad.start())
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    leaves = {a: Tree(a, EMPTY) for a in alphabet}
    shared = {(a,): t for a, t in leaves.items()}
    frames = [[None, 0, [], []]]
    i, at_start = 0, True  # at_start: the next summand is a level's first
    while True:
        tok = tokens[i]
        i += 1
        _, _, trees, holes = frames[-1]
        value = None  # the value of a level that ends here
        if at_start and tok == "0":
            if tokens[i] == "+":
                raise ParseError(
                    'the empty-forest literal "0" cannot appear in a sum', _position(text, i)
                )
            value = EMPTY
        elif tok == "[]":
            if not allow_hole:
                raise ParseError("hole not allowed in a forest", _position(text, i - 1))
            holes.append((None, i - 1))
        elif tok in _NOT_LABEL:
            raise ParseError("expected a label", _position(text, i - 1))
        elif tok == "0":
            raise ParseError(
                'the empty-forest literal "0" cannot be used as a tree', _position(text, i - 1)
            )
        elif tok not in leaves:
            raise UnknownLabelError(tok, _position(text, i - 1))
        elif tokens[i] == "(":
            frames.append([tok, i - 1, [], []])
            i, at_start = i + 1, True
            continue
        else:
            trees.append(leaves[tok])
        while value is not None or tokens[i] != "+":
            if len(holes) > 1:
                raise ParseError("more than one hole", _position(text, holes[1][1]))
            label, label_at, kids, kid_holes = frames.pop()
            tok = tokens[i]
            if not frames:
                if tok:
                    raise ParseError("trailing input", _position(text, i))
                return value or (Context(Forest(kids), kid_holes[0][0]) if kid_holes else Forest(kids))
            if tok != ")":
                raise ParseError("expected ')'", _position(text, i))
            i += 1
            _, _, trees, holes = frames[-1]
            if kid_holes:
                holes.append(((label, Context(Forest(kids), kid_holes[0][0])), label_at))
            else:
                key = (label, *sorted(map(id, kids)))
                trees.append(shared.get(key) or shared.setdefault(key, Tree(label, Forest(kids))))
            value = None
        i, at_start = i + 1, False


def parse_forest(text, alphabet):
    value = _parse(text, frozenset(alphabet), allow_hole=False)
    assert isinstance(value, Forest)
    return value


def parse_context(text, alphabet):
    value = _parse(text, frozenset(alphabet), allow_hole=True)
    if not isinstance(value, Context):
        raise ParseError("a context needs exactly one hole", len(text))
    return value


# ---------------------------------------------------------------------------
# Bounded enumeration, used throughout as the brute-force oracle substrate.
# Order: by node count, then by the canonical structural key, so transcripts
# are reproducible.


def _norm_labels(alphabet):
    return tuple(sorted(alphabet))


@lru_cache(maxsize=None)
def _trees_upto(labels, n):
    """All trees with at most n nodes, sorted by structural key."""
    out = []
    for size in range(1, n + 1):
        level = []
        for children in _forests_exact(labels, size - 1):
            for a in labels:
                level.append(Tree(a, children))
        level.sort()
        out.extend(level)
    return tuple(out)


@lru_cache(maxsize=None)
def _forests_exact(labels, n):
    """All canonical forests with exactly n nodes, sorted by key."""
    if n == 0:
        return (EMPTY,)
    trees = _trees_upto(labels, n)

    def build(remaining, min_idx):
        if remaining == 0:
            yield ()
            return
        for idx in range(min_idx, len(trees)):
            t = trees[idx]
            if t.size > remaining:
                break  # trees are size-major sorted
            for rest in build(remaining - t.size, idx):
                yield (t,) + rest

    out = [Forest(ts) for ts in build(n, 0)]
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _contexts_exact(labels, n):
    """All contexts with exactly n labeled nodes (the hole is not counted)."""
    out = [Context(f, None) for f in _forests_exact(labels, n)]
    for inner_size in range(0, n):
        for inner in _contexts_exact(labels, inner_size):
            for rest in _forests_exact(labels, n - 1 - inner_size):
                for a in labels:
                    out.append(Context(rest, (a, inner)))
    out.sort()
    return tuple(out)


def enumerate_forests(alphabet, max_nodes):
    """Yield every canonical forest with at most max_nodes nodes, once each."""
    labels = _norm_labels(alphabet)
    for n in range(max_nodes + 1):
        yield from _forests_exact(labels, n)


def enumerate_contexts(alphabet, max_nodes):
    """Yield every context with at most max_nodes labeled nodes, once each."""
    labels = _norm_labels(alphabet)
    for n in range(max_nodes + 1):
        yield from _contexts_exact(labels, n)
