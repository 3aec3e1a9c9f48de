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

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from functools import lru_cache

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


class Tree:
    """A node label over a canonical forest of children."""

    __slots__ = ("label", "children", "size", "key", "_hash")

    def __init__(self, label, children):
        self.label = label
        self.children = children
        self.size = 1 + children.size
        # Total structural order: node count, then root label, then children.
        self.key = (self.size, label, children.key)
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Tree) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def render(self):
        if self.children.is_empty:
            return self.label
        return "%s(%s)" % (self.label, self.children.render())

    def __repr__(self):
        return "Tree[%s]" % self.render()


class Forest:
    """A canonical multiset of trees; the horizontal part of the free algebra."""

    __slots__ = ("trees", "size", "key", "_hash")

    def __init__(self, trees=()):
        ts = sorted(trees)
        self.trees = tuple(ts)
        self.size = sum(t.size for t in ts)
        self.key = tuple(t.key for t in ts)
        self._hash = hash(self.key)

    @property
    def is_empty(self):
        return not self.trees

    def __eq__(self, other):
        return isinstance(other, Forest) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return Forest(self.trees + other.trees)

    def adjoin(self, label):
        """The one-tree forest with `label` at the root over this forest."""
        return Forest((Tree(label, self),))

    def labels(self):
        out = set()
        stack = list(self.trees)
        while stack:
            t = stack.pop()
            out.add(t.label)
            stack.extend(t.children.trees)
        return out

    def render(self):
        if not self.trees:
            return "0"
        return "+".join(t.render() for t in self.trees)

    def __repr__(self):
        return "Forest[%s]" % self.render()

    __str__ = render


EMPTY = Forest()


class Context:
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
        else:
            label, inner = spine
            self.size = rest.size + 1 + inner.size
            self.key = (self.size, 1, label, inner.key, rest.key)
        self._hash = hash(self.key)

    @property
    def is_hole(self):
        return self.spine is None and self.rest.is_empty

    def __eq__(self, other):
        return isinstance(other, Context) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def labels(self):
        out = self.rest.labels()
        if self.spine is not None:
            label, inner = self.spine
            out.add(label)
            out |= inner.labels()
        return out

    def render(self):
        if self.spine is None:
            head = "[]"
        else:
            label, inner = self.spine
            head = "%s(%s)" % (label, inner.render())
        if self.rest.is_empty:
            return head
        return head + "+" + self.rest.render()

    def __repr__(self):
        return "Context[%s]" % self.render()

    __str__ = render


HOLE = Context()


def apply_context(s, p):
    """Substitute the forest s for the hole of p, written sp in the algebra."""
    if p.spine is None:
        return s + p.rest
    label, inner = p.spine
    return Forest((Tree(label, apply_context(s, inner)),)) + p.rest


def compose(p, q):
    """Substitute context p for the hole of q, written pq; acts p first."""
    if q.spine is None:
        return Context(p.rest + q.rest, p.spine)
    label, inner = q.spine
    return Context(q.rest, (label, compose(p, inner)))


# ---------------------------------------------------------------------------
# Parsing


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "+()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c == "[":
                if i + 1 < n and text[i + 1] == "]":
                    self.tokens.append(("HOLE", "[]", i))
                    i += 2
                    continue
                raise ParseError("expected ']' after '['", i + 1)
            m = _LABEL_RE.match(text, i)
            if m:
                self.tokens.append(("LABEL", m.group(), i))
                i = m.end()
                continue
            raise ParseError("unexpected character %r" % c, i)
        self.tokens.append(("END", "", n))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok


class _Parser:
    def __init__(self, text, alphabet, allow_hole):
        self.scan = _Scanner(text)
        self.alphabet = alphabet
        self.allow_hole = allow_hole

    def parse(self):
        value = self.level()
        kind, _, pos = self.scan.peek()
        if kind != "END":
            raise ParseError("trailing input", pos)
        return value

    def level(self):
        """Parse a forest or context at one nesting level."""
        kind, text, pos = self.scan.peek()
        if kind == "LABEL" and text == "0":
            self.scan.next()
            nkind, _, npos = self.scan.peek()
            if nkind == "+":
                raise ParseError('the empty-forest literal "0" cannot appear in a sum', npos)
            return EMPTY
        items = [self.item()]
        while self.scan.peek()[0] == "+":
            self.scan.next()
            items.append(self.item())
        trees = [it[1] for it in items if it[0] == "tree"]
        holes = [it for it in items if it[0] != "tree"]
        if not holes:
            return Forest(trees)
        if len(holes) > 1:
            raise ParseError("more than one hole", holes[1][2])
        kind, payload, _ = holes[0]
        rest = Forest(trees)
        if kind == "hole":
            return Context(rest, None)
        return Context(rest, payload)

    def item(self):
        """One summand: a tree, the hole, or a tree containing the hole."""
        kind, text, pos = self.scan.next()
        if kind == "HOLE":
            if not self.allow_hole:
                raise ParseError("hole not allowed in a forest", pos)
            return ("hole", None, pos)
        if kind != "LABEL":
            raise ParseError("expected a label", pos)
        if text == "0":
            raise ParseError('the empty-forest literal "0" cannot be used as a tree', pos)
        if text not in self.alphabet:
            raise UnknownLabelError(text, pos)
        if self.scan.peek()[0] == "(":
            self.scan.next()
            sub = self.level()
            ckind, _, cpos = self.scan.peek()
            if ckind != ")":
                raise ParseError("expected ')'", cpos)
            self.scan.next()
            if isinstance(sub, Forest):
                return ("tree", Tree(text, sub), pos)
            return ("spine", (text, sub), pos)
        return ("tree", Tree(text, EMPTY), pos)


def parse_forest(text, alphabet):
    alphabet = frozenset(alphabet)
    value = _Parser(text, alphabet, allow_hole=False).parse()
    assert isinstance(value, Forest)
    return value


def parse_context(text, alphabet):
    alphabet = frozenset(alphabet)
    value = _Parser(text, alphabet, allow_hole=True).parse()
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
