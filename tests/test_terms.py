import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from forestalg import decide, ktypes, samples, terms
from forestalg.algebra import evaluate_forest
from forestalg.terms import (
    EMPTY,
    HOLE,
    Context,
    Forest,
    ParseError,
    Tree,
    UnknownLabelError,
    apply_context,
    compose,
    enumerate_contexts,
    enumerate_forests,
    make_alphabet,
    parse_context,
    parse_forest,
)

AB = make_alphabet("ab")
A = make_alphabet("a")


def f(text, alphabet=AB):
    return parse_forest(text, alphabet)


def c(text, alphabet=AB):
    return parse_context(text, alphabet)


# --- parsing ---------------------------------------------------------------


def test_parse_empty_forest():
    assert f("0") is EMPTY or f("0") == EMPTY
    assert f("0").is_empty


def test_parse_two_tree_forest_with_seven_nodes():
    s = f("a(b(a)+a+b)+a(b)")
    assert len(s.trees) == 2
    assert s.size == 7


def test_parse_syntax_error_position():
    with pytest.raises(ParseError):
        f("a(")
    with pytest.raises(ParseError):
        f("a+")
    with pytest.raises(ParseError):
        f("(a)")
    with pytest.raises(ParseError):
        f("a)b")


def test_parse_unknown_label():
    with pytest.raises(UnknownLabelError):
        f("a+c")


def test_zero_literal_restrictions():
    with pytest.raises(ParseError):
        f("0+a")
    with pytest.raises(ParseError):
        f("a+0")
    with pytest.raises(ParseError):
        f("0(a)")
    assert f("a(0)") == f("a")


def test_whitespace_insensitive():
    assert f(" a ( b ( a ) + a + b ) + a ( b ) ") == f("a(b(a)+a+b)+a(b)")


def test_parse_context_identity():
    assert c("[]").is_hole


def test_parse_context_example():
    p = c("a(b(a)+a+b)+a([])")
    assert p.size == 6
    assert apply_context(EMPTY, p) == f("a(b(a)+a+b)+a")


def test_parse_context_errors():
    with pytest.raises(ParseError):
        c("a+b")  # no hole
    with pytest.raises(ParseError):
        c("[]+[]")
    with pytest.raises(ParseError):
        c("a([]+[])")
    with pytest.raises(ParseError):
        f("a([])")  # hole not allowed in forests


_RAISE_SITES = [
    # the tokenizer: "[" without "]", a character outside the grammar; it
    # reads the whole text first, so its errors win over later syntax errors
    ("forest", "a([x", ParseError, "expected ']' after '['", 3),
    ("forest", "a([", ParseError, "expected ']' after '['", 3),
    ("forest", "a-b", ParseError, "unexpected character '-'", 1),
    ("forest", "a)-", ParseError, "unexpected character '-'", 2),
    # "0" in a sum, at the "+" that follows it
    ("forest", "0+a", ParseError, 'the empty-forest literal "0" cannot appear in a sum', 1),
    ("forest", "a(0+b)", ParseError, 'the empty-forest literal "0" cannot appear in a sum', 3),
    # "0" as a tree
    ("forest", "a+0", ParseError, 'the empty-forest literal "0" cannot be used as a tree', 2),
    ("forest", "a(0)+0", ParseError, 'the empty-forest literal "0" cannot be used as a tree', 5),
    # a hole in a forest
    ("forest", "a([])", ParseError, "hole not allowed in a forest", 2),
    ("forest", "[]", ParseError, "hole not allowed in a forest", 0),
    # more than one hole, at the second one, once its level is complete
    ("context", "[]+[]", ParseError, "more than one hole", 3),
    ("context", "a([]+[])", ParseError, "more than one hole", 5),
    ("context", "a([])+b([])", ParseError, "more than one hole", 6),
    ("context", "a([]+[]", ParseError, "more than one hole", 5),
    ("context", "[]+[]+c", UnknownLabelError, "unknown label 'c'", 6),
    # expected a label
    ("forest", "", ParseError, "expected a label", 0),
    ("forest", "a+", ParseError, "expected a label", 2),
    ("forest", "(a)", ParseError, "expected a label", 0),
    ("forest", "a(+b)", ParseError, "expected a label", 2),
    ("forest", "a(", ParseError, "expected a label", 2),
    # unknown label
    ("forest", "a+c", UnknownLabelError, "unknown label 'c'", 2),
    ("forest", "a(b(c))", UnknownLabelError, "unknown label 'c'", 4),
    ("forest", "00", UnknownLabelError, "unknown label '00'", 0),
    # expected ")"
    ("forest", "a(b", ParseError, "expected ')'", 3),
    ("forest", "a(0 b)", ParseError, "expected ')'", 4),
    ("context", "a(b([])", ParseError, "expected ')'", 7),
    # trailing input
    ("forest", "a)b", ParseError, "trailing input", 1),
    ("forest", "0(a)", ParseError, "trailing input", 1),
    ("forest", "0 a", ParseError, "trailing input", 2),
    ("forest", "a b", ParseError, "trailing input", 2),
    # a context without exactly one hole, at the end of the text
    ("context", "a+b", ParseError, "a context needs exactly one hole", 3),
    ("context", "0", ParseError, "a context needs exactly one hole", 1),
    ("context", "  a(b)  ", ParseError, "a context needs exactly one hole", 8),
]


@pytest.mark.parametrize("kind, text, error, message, position", _RAISE_SITES)
def test_parse_error_type_message_and_position(kind, text, error, message, position):
    parse = parse_forest if kind == "forest" else parse_context
    with pytest.raises(ParseError) as exc:
        parse(text, AB)
    assert type(exc.value) is error
    assert str(exc.value) == "%s (at position %d)" % (message, position)
    assert exc.value.position == position


# --- the parser against the reference -----------------------------------------
# The reference is the parser before subtrees were shared: a tokenizer that
# records every token's kind and position, and a shift-reduce loop that builds
# a new tree per node.  The parser must give equal terms and the same errors.

_REF_TOKEN_RE = re.compile(r"(?P<SYM>[+()])|(?P<HOLE>\[\])|(?P<LABEL>[A-Za-z0-9_]+)|(?P<BAD>\S)")


def _ref_tokenize(text):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind, tok, pos = m.lastgroup, m.group(), m.start()
        if kind == "BAD":
            if tok == "[":
                raise ParseError("expected ']' after '['", pos + 1)
            raise ParseError("unexpected character %r" % tok, pos)
        tokens.append((kind, tok, pos))
    tokens.append(("END", "", len(text)))
    return tokens


def ref_parse(text, alphabet, allow_hole):
    tokens = _ref_tokenize(text)
    frames = [[None, 0, [], []]]
    i, at_start = 0, True
    while True:
        kind, tok, pos = tokens[i]
        i += 1
        _, _, trees, holes = frames[-1]
        value = None
        if at_start and tok == "0":
            if tokens[i][1] == "+":
                raise ParseError(
                    'the empty-forest literal "0" cannot appear in a sum', tokens[i][2]
                )
            value = EMPTY
        elif kind == "HOLE":
            if not allow_hole:
                raise ParseError("hole not allowed in a forest", pos)
            holes.append((None, pos))
        elif kind != "LABEL":
            raise ParseError("expected a label", pos)
        elif tok == "0":
            raise ParseError('the empty-forest literal "0" cannot be used as a tree', pos)
        elif tok not in alphabet:
            raise UnknownLabelError(tok, pos)
        elif tokens[i][1] == "(":
            frames.append([tok, pos, [], []])
            i, at_start = i + 1, True
            continue
        else:
            trees.append(Tree(tok, EMPTY))
        while value is not None or tokens[i][1] != "+":
            if value is None:
                if len(holes) > 1:
                    raise ParseError("more than one hole", holes[1][1])
                value = Context(Forest(trees), holes[0][0]) if holes else Forest(trees)
            label, label_pos, _, _ = frames.pop()
            kind, tok, pos = tokens[i]
            if not frames:
                if kind != "END":
                    raise ParseError("trailing input", pos)
                return value
            if tok != ")":
                raise ParseError("expected ')'", pos)
            i += 1
            _, _, trees, holes = frames[-1]
            if isinstance(value, Forest):
                trees.append(Tree(label, value))
            else:
                holes.append(((label, value), label_pos))
            value = None
        i, at_start = i + 1, False


def _outcome(parse, text, allow_hole):
    try:
        return parse(text, AB, allow_hole)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def _assert_parses_as_reference(text):
    for allow_hole in (False, True):
        got = _outcome(terms._parse, text, allow_hole)
        want = _outcome(ref_parse, text, allow_hole)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want, text
        else:
            assert type(got) is type(want)
            assert terms._key_order(got.key, want.key) == 0
            assert got.render() == want.render()
            assert hash(got) == hash(want)


def _wide_text(rng, nodes):
    """A sum of shallow random trees over {a, b} with about `nodes` nodes."""

    def tree(depth):
        kids = rng.randint(0, 3) if depth > 1 else 0
        label = rng.choice("ab")
        return label + "(" + "+".join(tree(depth - 1) for _ in range(kids)) + ")" if kids else label

    out, total = [], 0
    while total < nodes:
        out.append(tree(rng.randint(1, 5)))
        total += sum(ch.isalnum() for ch in out[-1])
    return "+".join(out)


def _holes_at_each_depth(text):
    """The text with "[]+" inserted at the top level and after each "(":
    contexts with the hole as a sibling at every depth."""
    cuts = [0] + [m.end() for m in re.finditer(r"\(", text)]
    return [text[:k] + "[]+" + text[k:] for k in cuts]


def _one_character_edits(text, rng=None, samples=None):
    """The text with one character deleted or replaced: at every position, or
    at `samples` seeded positions."""
    spots = range(len(text)) if rng is None else [rng.randrange(len(text)) for _ in range(samples)]
    for k in spots:
        yield text[:k] + text[k + 1 :]
        for ch in "ab0c+()[] -":
            if ch != text[k]:
                yield text[:k] + ch + text[k + 1 :]


@pytest.mark.parametrize("seed", range(3))
def test_wide_forests_parse_as_the_reference(seed):
    rng = random.Random(seed)
    _assert_parses_as_reference(_wide_text(rng, 20_000))
    for edited in _one_character_edits(_wide_text(rng, 300), rng, 20):
        _assert_parses_as_reference(edited)


@pytest.mark.parametrize("seed", range(2))
def test_deep_chains_parse_as_the_reference(seed):
    rng = random.Random(seed)
    for depth in (10**4, 300):
        _, _, text, context_text = _chain(depth, seed=seed)
        for t in (text, context_text):
            _assert_parses_as_reference(t)
            if depth < 10**4:
                for edited in _one_character_edits(t, rng, 10):
                    _assert_parses_as_reference(edited)


def test_contexts_with_the_hole_at_each_depth_parse_as_the_reference():
    _, _, text, context_text = _chain(40, seed=3)
    for t in [context_text] + _holes_at_each_depth(text) + _holes_at_each_depth("a(b(a)+a+b)+a(b)"):
        _assert_parses_as_reference(t)


def test_error_table_and_its_one_character_edits_parse_as_the_reference():
    small = ["0", "a", "a(b(a)+a+b)+a(b)", "a(b(a)+a+b)+a([])", "a([]+b)+b(a)", "a(0)+a"]
    for text in [row[1] for row in _RAISE_SITES] + small:
        _assert_parses_as_reference(text)
        for edited in _one_character_edits(text):
            _assert_parses_as_reference(edited)


# --- shared subtrees ------------------------------------------------------------


def _nodes(s):
    stack, out = list(s.trees), []
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(t.children.trees)
    return out


def _unshared(s):
    """s rebuilt with a new object for every node."""
    return Forest(Tree(t.label, _unshared(t.children)) for t in s.trees)


def test_a_parse_shares_equal_subtrees():
    s = f("a(b)+a(b)+b(a(b))+a(0)+a")
    assert [t.render() for t in s.trees] == ["a", "a", "a(b)", "a(b)", "b(a(b))"]
    a, a0, ab, ab2, bab = s.trees
    assert a is a0 and ab is ab2 and bab.children.trees[0] is ab
    nodes = _nodes(s)
    assert len(nodes) == 9
    assert len({id(t) for t in nodes}) == len({t.key for t in nodes}) == 4


@pytest.mark.parametrize("text", ["a(b+c)+a(c+b)", "a(0)+a", "a(a(0)+a)+a(a+a)"])
def test_sibling_order_and_an_empty_child_forest_give_one_object(text):
    # the parser keys a tree by its label and its children's ids, so the
    # order of the children and a "0" in place of no children make no
    # second object
    first, second = f(text, "abc").trees
    assert first is second


@pytest.mark.parametrize("seed", range(2))
def test_a_wide_forest_has_one_object_per_distinct_subtree(seed):
    s = f(_wide_text(random.Random(seed), 20_000))
    nodes = _nodes(s)
    assert len(nodes) == s.size
    assert len({id(t) for t in nodes}) == len({t.key for t in nodes}) < s.size // 2
    u = _unshared(s)
    assert u == s and len({id(t) for t in _nodes(u)}) == s.size
    for k in range(3):
        assert ktypes.node_types(s, k) == ktypes.node_types(u, k)
        assert ktypes.root_types(s, k) == ktypes.root_types(u, k)
    for k in (1, 2):
        assert ktypes.klt_signature(s, k) == ktypes.klt_signature(u, k)


def ref_evaluate_forest(ops, letter, s):
    """The evaluator before its memo: every node is visited, shared or not."""
    h_add, act, zero = ops.h_add, ops.act_, ops.h_zero
    stack = []
    trees, h, label = iter(s.trees), zero, None
    while True:
        for t in trees:
            if t.children.trees:
                stack.append((trees, h, label))
                trees, h, label = iter(t.children.trees), zero, t.label
                break
            h = h_add(h, act(zero, letter(t.label)))
        else:
            if not stack:
                return h
            value = act(h, letter(label))
            trees, h, label = stack.pop()
            h = h_add(h, value)


class _CountingActs:
    """An elementwise protocol that counts its act_ calls, one per tree value."""

    def __init__(self, ops):
        self.ops, self.acts = ops, 0
        self.h_zero, self.h_add = ops.h_zero, ops.h_add

    def act_(self, h, v):
        self.acts += 1
        return self.ops.act_(h, v)


def _evaluators():
    """(ops, letter) pairs: two table recognizers and the elementwise wreath
    ops of a depth-1 recognizer, whose H values are pairs."""
    for make in (samples.parity_a, samples.a_has_b_child):
        rec = make("ab")
        yield rec.algebra, rec.morphism.letter
    delta = decide.lt_wreath_recognizer("ab", 1, lambda nodes, roots: len(nodes) % 2).delta
    yield delta.algebra, delta.letters.__getitem__


@pytest.mark.parametrize("seed", range(2))
def test_evaluation_visits_each_distinct_subtree_once(seed):
    wide = f(_wide_text(random.Random(seed), 20_000))
    deep = f(_chain(10**4, seed=seed)[2])
    for ops, letter in _evaluators():
        for s in (wide, _unshared(wide), deep, EMPTY, f("a+a(b)+a(b)")):
            counting = _CountingActs(ops)
            assert evaluate_forest(counting, letter, s) == ref_evaluate_forest(ops, letter, s)
            assert counting.acts == len({id(t) for t in _nodes(s)})


def test_alphabet_validation():
    with pytest.raises(ValueError):
        make_alphabet(["0"])
    with pytest.raises(ValueError):
        make_alphabet(["a b"])
    with pytest.raises(ValueError):
        make_alphabet([])


# --- canonical forms --------------------------------------------------------


def test_canonical_quotients_sibling_order():
    # the two renderings of the running 7-node example
    assert f("a(b(a)+a+b)+a(b)") == f("a(b)+a(a+b(a)+b)")


def test_canonical_commutativity():
    assert f("b+a") == f("a+b")


def test_add_keeps_multiplicities():
    s = f("a") + f("a")
    assert s == f("a+a")
    assert s != f("a")


def test_add_unit_and_commutativity():
    s = f("a(b)")
    assert EMPTY + s == s
    assert f("a(b)") + f("b") == f("b") + f("a(b)")


def test_adjoin():
    assert EMPTY.adjoin("a") == f("a")
    assert f("b").adjoin("a") == f("a(b)")
    assert f("a+b").adjoin("b") == f("b(a+b)")


def test_apply_context_examples():
    assert apply_context(f("b"), c("a([])")) == f("a(b)")
    assert apply_context(f("b+b"), c("a([]+c)+d", make_alphabet("abcd"))) == f(
        "a(b+b+c)+d", make_alphabet("abcd")
    )
    s = f("a(b)+a")
    assert apply_context(s, HOLE) == s


def test_compose_examples():
    p = c("a([])+b")
    assert compose(p, HOLE) == p
    assert compose(HOLE, c("a([]+c)", make_alphabet("ac"))) == c(
        "a([]+c)", make_alphabet("ac")
    )
    # p goes into q
    assert compose(c("a([])"), c("b([])")) == c("b(a([]))")


def test_render_round_trip_examples():
    for text in ["0", "a", "a+a", "a(a)", "a(b(a)+a+b)+a(b)"]:
        s = f(text)
        assert parse_forest(s.render(), AB) == s
    for text in ["[]", "a([])", "a(b(a)+a+b)+a([])", "a([]+b)+b(a)"]:
        p = c(text)
        assert parse_context(p.render(), AB) == p


# --- enumeration ------------------------------------------------------------


def test_enumerate_forests_single_letter():
    got = [s.render() for s in enumerate_forests(A, 2)]
    assert got == ["0", "a", "a+a", "a(a)"]


def test_enumerate_forests_two_letters_one_node():
    got = [s.render() for s in enumerate_forests(AB, 1)]
    assert got == ["0", "a", "b"]


def test_enumerate_forests_zero_bound():
    assert list(enumerate_forests(A, 0)) == [EMPTY]


def test_enumerate_no_duplicates_and_complete():
    seen = list(enumerate_forests(AB, 4))
    assert len(seen) == len(set(seen))
    # independent count: forests of size n over k labels satisfy the
    # multiset-of-trees recurrence; check small values computed by hand
    by_size = {}
    for s in seen:
        by_size[s.size] = by_size.get(s.size, 0) + 1
    assert by_size[0] == 1
    assert by_size[1] == 2
    # size 2: a+a, a+b, b+b, a(a), a(b), b(a), b(b)
    assert by_size[2] == 7


def test_enumerate_contexts_counts():
    got = list(enumerate_contexts(A, 1))
    assert [p.render() for p in got] == ["[]", "[]+a", "a([])"]
    got2 = list(enumerate_contexts(AB, 2))
    assert len(got2) == len(set(got2))
    assert HOLE in got2


def test_enumerate_contexts_complete_small():
    # every context of size <= 3 obtained by punching one leaf slot out of
    # an enumerated forest must occur
    found = set(enumerate_contexts(A, 3))

    def punch(forest):
        # the hole occupies a whole forest slot: either at this level, or
        # inside the child slot of one of the trees
        out = {Context(forest, None)}
        for i, t in enumerate(forest.trees):
            rest = Forest(forest.trees[:i] + forest.trees[i + 1 :])
            for q in punch(t.children):
                out.add(Context(rest, (t.label, q)))
        return out

    for s in enumerate_forests(A, 3):
        for p in punch(s):
            if p.size <= 3:
                assert p in found


# --- algebraic laws on enumerated terms -------------------------------------

F3 = None
C3 = None


def setup_module():
    global F3, C3
    F3 = list(enumerate_forests(AB, 3))
    C3 = list(enumerate_contexts(AB, 2))


def test_add_commutative_associative_enumerated():
    for s in F3:
        for t in F3:
            assert s + t == t + s
    small = [x for x in F3 if x.size <= 2]
    for s in small:
        for t in small:
            for u in small:
                assert (s + t) + u == s + (t + u)


def test_action_laws_enumerated():
    for s in F3:
        assert apply_context(s, HOLE) == s
    for p in C3:
        for q in C3:
            pq = compose(p, q)
            for s in F3:
                assert apply_context(s, pq) == apply_context(apply_context(s, p), q)


def test_compose_associative_enumerated():
    for p in C3:
        for q in C3:
            for r in C3:
                assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_parser_round_trip_enumerated():
    for s in F3:
        assert parse_forest(s.render(), AB) == s
    for p in enumerate_contexts(AB, 3):
        assert parse_context(p.render(), AB) == p


def test_canonical_idempotent_and_permutation_invariant():
    import random

    rng = random.Random(0)
    for s in F3:
        perm = list(s.trees)
        rng.shuffle(perm)
        assert Forest(perm) == s
        # rebuild each tree bottom-up with shuffled children
        def rebuild(t):
            kids = [rebuild(k) for k in t.children.trees]
            rng.shuffle(kids)
            return Tree(t.label, Forest(kids))

        assert Forest(rebuild(t) for t in perm) == s


# --- hypothesis: random terms round-trip ------------------------------------


@st.composite
def forests(draw, depth=3):
    if depth == 0:
        n = 0
    else:
        n = draw(st.integers(min_value=0, max_value=3))
    trees = []
    for _ in range(n):
        label = draw(st.sampled_from("ab"))
        children = draw(forests(depth=depth - 1)) if depth > 0 else EMPTY
        trees.append(Tree(label, children))
    return Forest(trees)


@settings(max_examples=150, deadline=None)
@given(forests())
def test_hypothesis_render_parse_round_trip(s):
    assert parse_forest(s.render(), AB) == s


@settings(max_examples=150, deadline=None)
@given(forests(), forests())
def test_hypothesis_add_commutes(s, t):
    assert s + t == t + s


# --- deep terms ---------------------------------------------------------------
# Terms 10^5 nodes deep parse, hash, render, evaluate, compose and apply
# without recursion; terms thousands of nodes deep compare and sort.

DEEP = 10**5


def _chain(depth, seed=0):
    """A chain `depth` nodes deep with seeded labels and a leaf sibling on
    every tenth level above the bottom one: its steps from the root down,
    (label, leaf sibling of the node below it or None), the label of the
    bottom node, and its text as a forest and, with the hole for the bottom
    node, as a context."""
    rng = random.Random(seed)
    steps = [
        (rng.choice("ab"), rng.choice("ab") if i % 10 == 0 and i < depth - 2 else None)
        for i in range(depth - 1)
    ]
    bottom = rng.choice("ab")
    # a leaf before a deeper tree is the canonical order
    opens = [a + "(" + (b + "+" if b else "") for a, b in steps]
    text = "".join(opens) + bottom + ")" * len(steps)
    # in a context the hole spine comes first
    closes = ["+" + b + ")" if b else ")" for _, b in steps]
    context_text = "".join(a + "(" for a, _ in steps) + "[]" + "".join(reversed(closes))
    return steps, bottom, text, context_text


@pytest.fixture(scope="module")
def deep_chain():
    steps, bottom, text, context_text = _chain(DEEP)
    return steps, bottom, text, parse_forest(text, AB), context_text, parse_context(context_text, AB)


def test_deep_chain_parses_and_renders_back(deep_chain):
    steps, _, text, s, context_text, p = deep_chain
    siblings = sum(b is not None for _, b in steps)
    assert s.size == DEEP + siblings
    assert s.render() == text
    assert p.size == DEEP - 1 + siblings
    assert p.render() == context_text


def test_deep_context_composes_and_applies(deep_chain):
    steps, bottom, text, _, context_text, p = deep_chain
    assert compose(HOLE, p).render() == context_text
    assert compose(p, HOLE).render() == context_text
    q = parse_context("a([]+b)", AB)
    assert compose(p, q).render() == "a(" + context_text + "+b)"
    assert compose(q, p).render() == context_text.replace("[]", "a([]+b)")
    assert apply_context(parse_forest(bottom, AB), p).render() == text
    # with the empty forest in the hole, the last step's node is a leaf
    assert steps[-1][1] is None and steps[-2][1] is None
    cut = text.rindex("(")  # before the bottom node, then its ")"
    expected = text[:cut] + text[cut + 3 :]
    assert apply_context(EMPTY, p).render() == expected


def _fold(rec, steps, h):
    """The value of a chain's steps over a value h below the last step: each
    step adds its leaf sibling, then applies its label."""
    alg, letters = rec.algebra, rec.morphism.letters
    for a, b in reversed(steps):
        if b is not None:
            h = alg.add[h][alg.act[alg.zero][letters[b]]]
        h = alg.act[h][letters[a]]
    return h


@pytest.mark.parametrize("make", [samples.parity_a, samples.a_has_b_child])
def test_deep_chain_evaluates_as_a_bottom_up_fold(deep_chain, make):
    steps, bottom, _, s, _, p = deep_chain
    rec = make("ab")
    alg = rec.algebra
    value = _fold(rec, steps, alg.act[alg.zero][rec.morphism.letters[bottom]])
    assert rec.morphism.eval_forest(s) == value
    assert rec.accepts(s) == (value in rec.accept)
    v = rec.morphism.eval_context(p)
    assert all(alg.act[h][v] == _fold(rec, steps, h) for h in range(alg.h_size))


@pytest.mark.parametrize("make", [samples.parity_a, samples.a_has_b_child])
def test_short_chains_evaluate_as_a_bottom_up_fold(make):
    # parity and a-has-b-child are decided early on a deep chain, so short
    # chains of every depth check that each letter is read at its own node
    rec = make("ab")
    alg = rec.algebra
    for depth in range(1, 40):
        steps, bottom, text, context_text = _chain(depth, seed=depth)
        s, p = parse_forest(text, AB), parse_context(context_text, AB)
        assert s.render() == text and p.render() == context_text
        value = _fold(rec, steps, alg.act[alg.zero][rec.morphism.letters[bottom]])
        assert rec.morphism.eval_forest(s) == value
        v = rec.morphism.eval_context(p)
        assert all(alg.act[h][v] == _fold(rec, steps, h) for h in range(alg.h_size))


def test_separately_parsed_deep_chains_compare_equal():
    _, _, text, context_text = _chain(3000, seed=1)
    s, t = parse_forest(text, AB), parse_forest(text, AB)
    assert s is not t and s == t and not s < t and not t < s
    p, q = parse_context(context_text, AB), parse_context(context_text, AB)
    assert p is not q and p == q and not p < q


def test_a_sum_of_two_deep_chains_sorts_its_siblings():
    _, _, text, _ = _chain(3000, seed=1)
    _, _, other, _ = _chain(3000, seed=2)
    s = parse_forest(text, AB)
    assert parse_forest(text + "+" + text, AB) == s + s
    # chains with the same shape have the same size, so they sort by labels
    t = parse_forest(other, AB)
    assert s.size == t.size and s != t
    first, second = sorted([text, other], key=lambda x: parse_forest(x, AB))
    assert parse_forest(other + "+" + text, AB).render() == first + "+" + second


def test_large_terms_order_as_their_keys():
    # equal-sized terms past the shallow bound compare from an explicit
    # stack; the order must stay Python's tuple order on the keys, which the
    # built-in comparison still reaches at these depths
    forests, contexts = [], []
    for depth in (120, 150, 150, 200):
        for seed in range(4):
            _, _, text, context_text = _chain(depth, seed=seed)
            for variant in (text, text.replace("a", "b", 1), text[::-1].replace("a", "b", 1)[::-1]):
                forests.append(parse_forest(variant, AB))
            contexts.append(parse_context(context_text, AB))
    forests.append(forests[0] + forests[5])
    forests.append(forests[5] + forests[0])
    for pool in (forests, contexts):
        assert any(x.size == y.size and x != y for x in pool for y in pool)
        for x in pool:
            for y in pool:
                assert (x < y) == (x.key < y.key)
                assert (x == y) == (x.key == y.key)
        assert sorted(pool) == sorted(pool, key=lambda term: term.key)
        assert [x.render() for x in sorted(pool)] == [
            x.render() for x in sorted(pool, key=lambda term: term.key)
        ]
