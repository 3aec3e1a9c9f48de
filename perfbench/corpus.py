"""Seeded corpora for the three workloads, with answers known by construction.

An op is one corpus input processed end to end: `run` is the timed call into
forestalg and `check` compares its result with an answer that does not come
from the code under test.  `check` returns "solved" or "unsolved" (a correct
but inconclusive result, such as an Unknown verdict) and raises WrongAnswer
otherwise.

Every family is built from a construction whose answer is known; random
automata are avoided because one of 8 states already keeps the transformation
monoid closure busy for minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracle

# Per-op limits in seconds.  decide-notlt uses the 10 s target for decide_lt
# on non-LT inputs; on the other two the limit only stops a runaway op and
# sits far above every op of the seed.
LIMIT_S = {"decide-lt": 30.0, "decide-notlt": 10.0, "construct": 20.0}


class WrongAnswer(Exception):
    """The program's result contradicts the known answer."""


@dataclass
class Op:
    name: str
    family: str
    run: Callable[[], object]
    check: Callable[[object], str]


def build(workload, seed, fa):
    """The corpus of `workload` for `seed`; fa holds the forestalg modules."""
    rng = random.Random("%s:%d" % (workload, seed))
    return _CORPORA[workload](fa, rng)


# ---------------------------------------------------------------------------
# Bottom-up automata with a reference evaluator


@dataclass
class Automaton:
    """A deterministic bottom-up forest automaton given by Python functions;
    forestalg gets its transformation algebra, the oracle runs it directly."""

    alphabet: str
    states: list
    zero: object
    add: Callable
    step: Callable  # (label, state of the children) -> state of the tree
    final: Callable

    def recognizer(self, fa):
        index = {s: i for i, s in enumerate(self.states)}
        table = [[index[self.add(x, y)] for y in self.states] for x in self.states]
        maps = {a: [index[self.step(a, s)] for s in self.states] for a in self.alphabet}
        alg, letters, _ = fa.algebra.transformation_algebra(table, index[self.zero], maps)
        accept = frozenset(i for i, s in enumerate(self.states) if self.final(s))
        alphabet = fa.terms.make_alphabet(self.alphabet)
        return fa.algebra.Recognizer(fa.algebra.Morphism(alg, alphabet, letters), accept)

    def accepts(self, forest):
        return self.final(oracle.fold(forest, self.step, (self.zero, self.add)))


def _subsets(m):
    return [frozenset(i for i in range(m) if mask >> i & 1) for mask in range(1 << m)]


def _deepen(depths, m):
    # leaf depths seen from a new root: the root is itself a leaf when it has
    # no children
    return frozenset({0}) if not depths else frozenset((d + 1) % m for d in depths)


def leaf_depth(alphabet, m, r):
    """Some leaf lies at depth = r (mod m); states are sets of leaf depths mod m.
    Not LT for m >= 2: chains a^n and a^(n+1) agree on every k-local test."""
    return Automaton(
        alphabet, _subsets(m), frozenset(), frozenset.union,
        lambda a, s: _deepen(s, m), lambda s: r in s,
    )


def count_xor_depth(alphabet, m, r, d, s):
    """(number of a-nodes = r mod m) xor (some leaf at depth = s mod d).  The
    count makes H non-idempotent: for j >= 1, b + j*a and b + (j+m)*a share
    every k-local test and every leaf depth, but differ on the count."""
    states = [(c, x) for c in range(m) for x in _subsets(d)]
    return Automaton(
        alphabet, states, (0, frozenset()),
        lambda x, y: ((x[0] + y[0]) % m, x[1] | y[1]),
        lambda a, st: ((st[0] + (a == "a")) % m, _deepen(st[1], d)),
        lambda st: (st[0] == r) != (s in st[1]),
    )


def a_above_b(alphabet):
    """Some a has a b descendant; states are (pattern seen, some b present).
    Not LT: a(c^n(b)) + c^n and a(c^n) + c^n(b) agree on every k-local test
    once n > k."""
    states = [(p, b) for p in (0, 1) for b in (0, 1)]
    return Automaton(
        alphabet, states, (0, 0),
        lambda x, y: (x[0] | y[0], x[1] | y[1]),
        lambda a, st: (st[0] | (a == "a" and st[1]), st[1] | (a == "b")),
        lambda st: st[0] == 1,
    )


# ---------------------------------------------------------------------------
# decide-lt and decide-notlt


def _decide_op(fa, name, family, rec, expect, accepts=None):
    def run():
        return fa.decide.decide_lt(rec)

    def check(verdict):
        if verdict.kind == "Unknown":
            return "unsolved"
        if verdict.kind != expect:
            raise WrongAnswer("verdict %s, expected %s" % (verdict.kind, expect))
        if expect == "NotLT":
            reason = oracle.check_evidence(verdict.evidence, accepts)
            if reason is not None:
                raise WrongAnswer("NotLT evidence does not replay: " + reason)
        return "solved"

    return Op(name, family, run, check)


def _never(nodes, roots):
    return False


def _syntactic_sizes(alg, accept):
    """|H| and |V| of the syntactic algebra of a recognizer whose algebra is
    all reachable: H classes are the rows of "h.v is accepted" over all v, and
    V classes are the distinct actions on H classes.  Used to pick inputs only,
    as a quicker stand-in for forestalg's syntactic_algebra."""
    rows = {}
    h_class = [rows.setdefault(tuple(x in accept for x in row), len(rows)) for row in alg.act]
    columns = {tuple(h_class[row[v]] for row in alg.act) for v in range(alg.v_size)}
    return len(rows), len(columns)


def _accept_subset(machine, rng, attempts=1000):
    """A seeded accept set on a shared LT machine whose syntactic algebra is
    the whole machine, so every op of the family costs about the same."""
    alg = machine.recognizer.algebra
    n = len(machine.states)
    for _ in range(attempts):
        accept = frozenset(i for i in range(n) if rng.random() < 0.5)
        if _syntactic_sizes(alg, accept)[0] == n:
            return accept
    raise RuntimeError("no accept set separates all %d states" % n)


def _accept_by_types(fa, machine, rng, lo, hi, n_types=5, attempts=1000):
    """A seeded accept set that reads membership of n_types node types plus
    whether any root exists, whose syntactic algebra has lo <= |H|^2 |V| <= hi.
    On LT inputs the cost of decide_lt tracks |H|^2 |V| closely, so the window
    keeps the cost of the op nearly the same from seed to seed."""
    types = sorted({t for nodes, _ in machine.states for t in nodes}, key=fa.ktypes.type_render)
    alg = machine.recognizer.algebra
    for _ in range(attempts):
        picks = rng.sample(types, n_types)
        table = {}
        accept = set()
        for i, (nodes, roots) in enumerate(machine.states):
            key = tuple(t in nodes for t in picks) + (bool(roots),)
            if key not in table:
                table[key] = rng.random() < 0.5
            if table[key]:
                accept.add(i)
        h, v = _syntactic_sizes(alg, accept)
        if lo <= h * h * v <= hi:
            return frozenset(accept)
    raise RuntimeError("no accept set reached %d <= |H|^2 |V| <= %d" % (lo, hi))


def _decide_lt_corpus(fa, rng):
    ops = [
        _decide_op(fa, "a_has_b_child-abc", "a_has_b_child", fa.samples.a_has_b_child("abc"), "LT")
    ]
    # one machine per (alphabet, k); only the accept set varies
    for alphabet, k in (("a", 2), ("ab", 1)):
        machine = fa.ktypes.lt_recognizer(alphabet, k, _never)
        for i in range(3):
            rec = fa.algebra.Recognizer(machine.recognizer.morphism, _accept_subset(machine, rng))
            name = "lt-%s-k%d-%d" % (alphabet, k, i)
            ops.append(_decide_op(fa, name, "lt-%s-k%d" % (alphabet, k), rec, "LT"))
    machine = fa.ktypes.lt_recognizer("abc", 1, _never)
    for i, (lo, hi) in enumerate(((25_000, 29_000), (44_000, 48_000))):
        accept = _accept_by_types(fa, machine, rng, lo, hi)
        rec = fa.algebra.Recognizer(machine.recognizer.morphism, accept)
        ops.append(_decide_op(fa, "lt-abc-k1-%d" % i, "lt-abc-k1", rec, "LT"))
    return ops


def _decide_notlt_corpus(fa, rng):
    members = []
    for alphabet in ("a", "ab", "abc"):
        auto = count_xor_depth(alphabet, 3, rng.randrange(3), 3, rng.randrange(3))
        members.append(("count-xor-depth-" + alphabet, "count-xor-depth", auto))
    for alphabet, moduli in (("a", (2, 3, 4)), ("ab", (2, 3))):
        for m in moduli:
            auto = leaf_depth(alphabet, m, rng.randrange(m))
            members.append(("leaf-depth-%s-m%d" % (alphabet, m), "leaf-depth-" + alphabet, auto))
    members.append(("a-above-b-abc", "a-above-b", a_above_b("abc")))
    return [
        _decide_op(fa, name, family, auto.recognizer(fa), "NotLT", auto.accepts)
        for name, family, auto in members
    ]


# ---------------------------------------------------------------------------
# construct


def _coin(tag, nodes, roots):
    """A seeded accept predicate on a k-local signature given as type renders."""
    key = "%s|%s|%s" % (tag, ",".join(sorted(nodes)), ",".join(sorted(roots)))
    return random.Random(key).random() < 0.5


def _wreath_predicate(fa, tag):
    render = fa.ktypes.type_render

    def pred(nodes, roots):
        return _coin(tag, [render(t) for t in nodes], [render(t) for t in roots])

    return pred


def _wreath_op(fa, name, alphabet, k, tag):
    pred = _wreath_predicate(fa, tag)
    expected = []  # (text, answer) for every forest of up to 6 nodes, on first check

    def run():
        return fa.decide.lt_wreath_recognizer(alphabet, k, pred)

    def check(built):
        if not built.pi_ok:
            raise WrongAnswer("inner projection is not the depth-k morphism")
        if not expected:
            expected.extend(
                (oracle.render(f), _coin(tag, *oracle.klt_signature(f, k)))
                for f in oracle.forests_upto(alphabet, 6)
            )
        rec = built.recognizer
        for text, want in expected:
            if rec.accepts(fa.terms.parse_forest(text, alphabet)) != want:
                raise WrongAnswer("accepts(%s) != predicate on its signature" % text)
        return "solved"

    return Op(name, "wreath", run, check)


def _random_tree_text(rng, alphabet, depth, fanout):
    """Text of a random tree with at most `depth` levels."""
    label = rng.choice(alphabet)
    kids = rng.randint(0, fanout) if depth > 1 else 0
    if not kids:
        return label
    inner = "+".join(_random_tree_text(rng, alphabet, depth - 1, fanout) for _ in range(kids))
    return "%s(%s)" % (label, inner)


def wide_forest_text(rng, alphabet, nodes):
    """A forest of many shallow random trees with about `nodes` nodes."""
    trees, total = [], 0
    while total < nodes:
        text = _random_tree_text(rng, alphabet, rng.randint(1, 5), 3)
        trees.append(text)
        total += sum(ch.isalnum() for ch in text)
    return "+".join(trees)


def chain_text(rng, alphabet, depth):
    """A chain `depth` nodes deep with seeded labels and a leaf sibling on
    every tenth level."""
    opens = []
    for i in range(depth - 1):
        label = rng.choice(alphabet)
        opens.append(label + "(" + (rng.choice(alphabet) + "+" if i % 10 == 0 else ""))
    return "".join(opens) + rng.choice(alphabet) + ")" * (depth - 1)


def _forest_op(fa, name, family, rec, alphabet, text):
    want = []

    def run():
        return rec.accepts(fa.terms.parse_forest(text, alphabet))

    def check(got):
        if not want:
            ref = oracle.parse(text)
            value = oracle.evaluate_tables(ref, rec.algebra, rec.morphism.letters)
            want.append(value in rec.accept)
        if got != want[0]:
            raise WrongAnswer("accepts() = %s, reference evaluator says %s" % (got, want[0]))
        return "solved"

    return Op(name, family, run, check)


def _cover_op(fa, name, family, run, tm_target=None):
    """`run` returns (category, cover report, dct_forward result or None)
    triples; each cover must verify exactly when the identities hold, and
    each division witness must verify."""

    def check(results):
        for cat, rep, division in results:
            if rep.ok != fa.category.check_identities(cat).all_hold():
                raise WrongAnswer("cover verifies=%s but the identities disagree" % rep.ok)
            if division is not None:
                witness, ambient = division
                if not fa.algebra.verify_tm_division(tm_target, ambient, witness).ok:
                    raise WrongAnswer("dct_forward witness fails verify_tm_division")
        return "solved"

    return Op(name, family, run, check)


def _derived_cover_op(fa, name, syn, alphabet, k):
    def run():
        ka = fa.ktypes.ktype_algebra(alphabet, k)
        dc = fa.derived.derived_category(fa.derived.pair_closure(syn.morphism, ka.morphism))
        cov, _ = fa.category.canonical_flat_cover(dc.category)
        rep = fa.category.verify_covering(dc.category, cov.algebra, cov)
        division = fa.derived.dct_forward(dc, cov) if rep.ok else None
        return [(dc.category, rep, division)]

    return _cover_op(fa, name, "derived-cover", run, syn.algebra)


def _small_covers_op(fa, cats):
    """One op covers all the small categories: each takes milliseconds."""

    def run():
        results = []
        for cat in cats:
            cov, _ = fa.category.canonical_flat_cover(cat)
            results.append((cat, fa.category.verify_covering(cat, cov.algebra, cov), None))
        return results

    return _cover_op(fa, "small-covers", "small-covers", run)


def _construct_corpus(fa, rng):
    tag = "%016x" % rng.getrandbits(64)
    ops = [
        _wreath_op(fa, "wreath-%s-k%d-%d" % (alphabet, k, i), alphabet, k, "%s-w%d" % (tag, i))
        for i, (alphabet, k) in enumerate((("ab", 1), ("ab", 1), ("a", 1), ("a", 2)))
    ]
    # the forests run through a wreath recognizer built here, in set-up
    rec = fa.decide.lt_wreath_recognizer("ab", 1, _wreath_predicate(fa, tag + "-f")).recognizer
    for i in range(2):
        text = wide_forest_text(rng, "ab", 100_000)
        ops.append(_forest_op(fa, "wide-forest-%d" % i, "wide-forest", rec, "ab", text))
    for i in range(2):
        text = chain_text(rng, "ab", 3000)
        ops.append(_forest_op(fa, "deep-chain-%d" % i, "deep-chain", rec, "ab", text))
    machine = fa.ktypes.lt_recognizer("a", 1, _never)
    for i in range(2):
        accept = frozenset(j for j in range(len(machine.states)) if rng.random() < 0.5)
        rec = fa.algebra.Recognizer(machine.recognizer.morphism, accept)
        syn = fa.algebra.syntactic_algebra(rec).recognizer
        ops.append(_derived_cover_op(fa, "cover-lt-a-k1-%d" % i, syn, "a", 1))
    syn = fa.algebra.syntactic_algebra(fa.samples.a_has_b_child("ab")).recognizer
    ops.append(_derived_cover_op(fa, "cover-a_has_b_child-ab-k0", syn, "ab", 0))
    cats = [fa.samples.interval_category(), fa.samples.z2_fiber_category()]
    for make, alphabet in ((fa.samples.parity_a, "a"), (fa.samples.contains_a, "ab")):
        syn = fa.algebra.syntactic_algebra(make(alphabet)).recognizer
        pa = fa.derived.pair_closure(syn.morphism, fa.ktypes.ktype_algebra(alphabet, 0).morphism)
        cats.append(fa.derived.derived_category(pa).category)
    ops.append(_small_covers_op(fa, cats))
    return ops


_CORPORA = {
    "decide-lt": _decide_lt_corpus,
    "decide-notlt": _decide_notlt_corpus,
    "construct": _construct_corpus,
}
WORKLOADS = tuple(_CORPORA)
