"""Benchmark for forestalg: decide_lt, recognizer construction and flat covers.

    python3 perfbench/run.py --workload decide-lt --seed 1 --seconds 30 --trace 0

Run from the repository root; forestalg is imported from ./src.  The run sets
up the seeded corpus (several times, reporting the median), then makes passes
over it until --seconds have gone by, each op under its workload's limit.  It
prints one row per op, a summary, and as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced passes with --trace 1.  A wrong
answer makes the exit code 1.  `--workload all` runs the three workloads one
after another, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import corpus  # noqa: E402  (the benchmark's own modules sit beside this file)
import tracer  # noqa: E402

MODULES = ("terms", "algebra", "category", "derived", "ktypes", "decide", "samples")
SETUP_ROUNDS = 3
# A run must end within 180 s; ops not started by then count as failed.
HARD_DEADLINE_S = 150.0

END_TO_END = {
    "corpus_s": "s",
    "op_s.geomean": "s",
    "solved_share": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class OpTimeout(BaseException):
    """Raised by the alarm when an op runs past its limit; a BaseException so
    that no handler inside forestalg can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_forestalg():
    """Import forestalg afresh from ./src and return its modules by name."""
    for name in [m for m in sys.modules if m == "forestalg" or m.startswith("forestalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    fa = types.SimpleNamespace()
    for name in MODULES:
        setattr(fa, name, importlib.import_module("forestalg." + name))
    where = Path(fa.algebra.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError("forestalg was imported from %s, not from %s" % (where, SRC))
    return fa


class ModuleState:
    """Puts forestalg's process-wide state back to what set-up left, so no op
    sees what an earlier op, or an op cut short by its limit, left behind: the
    depth-k type interner is append-only and is cut back to its set-up length,
    every lru_cache in the package is emptied, and garbage is collected."""

    def __init__(self, fa):
        # the interner's list and dicts only ever grow, and dicts keep
        # insertion order, so cutting each back to its length restores it
        self.universe = getattr(fa.ktypes, "_UNIVERSE", None)
        u = self.universe
        self.tables = [] if u is None else [
            (table, len(table)) for table in (u._entries, u._by_key, u._trunc, u._render)
        ]
        self.caches = [
            obj
            for mod in (getattr(fa, name) for name in MODULES)
            for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        ]

    def restore(self):
        for table, keep in self.tables:
            if isinstance(table, list):
                del table[keep:]
            else:
                for key in list(table)[keep:]:
                    del table[key]
        u = self.universe
        if u is not None and u._lock.locked():  # an op stopped while interning
            u._lock = type(u._lock)()
        for cache in self.caches:
            cache.cache_clear()
        # start every op with no garbage pending from the one before
        gc.collect()


def run_op(op, limit, fa, recorder):
    """Run one op under the alarm, then check its answer; returns (outcome,
    error type, message, seconds).  Outcomes: solved, unsolved, budget,
    failed, wrong."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = perf_counter()
    try:
        try:
            recorder.op = op.name
            out = op.run()
            elapsed = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            recorder.op = None
    except OpTimeout:
        return "failed", "OpTimeout", "ran past %g s" % limit, perf_counter() - start
    except fa.algebra.BudgetError as exc:
        return "budget", "BudgetError", str(exc), perf_counter() - start
    except Exception as exc:  # any other raise is a failed op, named by its type
        return "failed", type(exc).__name__, str(exc)[:200], perf_counter() - start
    try:
        outcome = op.check(out)
    except corpus.WrongAnswer as exc:
        return "wrong", None, str(exc), elapsed
    except Exception as exc:  # a result the check cannot read is not a right answer
        return "wrong", type(exc).__name__, "check raised: %s" % exc, elapsed
    return outcome, None, None, elapsed


def measure(ops, limit, seconds, with_trace, fa, state, deadline):
    """At least two passes over the corpus, and more until `seconds` have gone
    by.  With tracing, odd passes are traced and even ones are not.  An op
    that raised is charged the limit whatever it does later, so untraced
    passes do not run it again; one that ran past its limit is never rerun."""
    rows = []
    recorder = tracer.Tracer()
    raised, timed_out = set(), set()
    started = perf_counter()
    n_pass = 0
    while True:
        traced = with_trace and n_pass % 2 == 1
        if traced:
            recorder.install(fa)
        pass_start = perf_counter()
        for op in ops:
            if op.name in timed_out or (op.name in raised and not traced):
                continue
            remaining = deadline - perf_counter()
            if remaining <= 0:
                rows.append(_row(n_pass, traced, op, "failed", "NotReached", "run deadline", 0.0))
                raised.add(op.name)
                continue
            state.restore()
            outcome, err, msg, secs = run_op(op, min(limit, remaining), fa, recorder)
            if err is not None and outcome != "wrong":
                raised.add(op.name)
            if err == "OpTimeout":
                timed_out.add(op.name)
            rows.append(_row(n_pass, traced, op, outcome, err, msg, secs))
        if traced:
            recorder.uninstall()
        state.restore()
        n_pass += 1
        pass_s = perf_counter() - pass_start
        now = perf_counter()
        if n_pass >= 2 and now - started + pass_s > seconds:
            break
        if now + pass_s > deadline:
            break
    return rows, recorder.spans


def _row(n_pass, traced, op, outcome, err, msg, secs):
    return {
        "pass": n_pass,
        "traced": traced,
        "input": op.name,
        "family": op.family,
        "outcome": outcome,
        "error": err,
        "message": msg,
        "time_s": secs,
    }


_RANK = {"solved": 0, "unsolved": 1, "budget": 2, "wrong": 3, "failed": 4}


def summarize(ops, rows, limit, traced):
    """Per input: its worst outcome over the chosen passes and the time it is
    charged, the median of its runs or the limit if any run raised.  An op
    that timed out before the first traced pass keeps its untraced rows."""
    per_input = {}
    for op in ops:
        every = [r for r in rows if r["input"] == op.name]
        mine = [r for r in every if r["traced"] == traced] or every
        worst = max(mine, key=lambda r: _RANK[r["outcome"]])
        raised = any(r["error"] is not None and r["outcome"] != "wrong" for r in mine)
        charged = limit if raised else statistics.median(r["time_s"] for r in mine)
        per_input[op.name] = (worst["outcome"], worst["error"], charged)
    return per_input


def end_to_end(per_input, setup_s):
    charged = [c for _, _, c in per_input.values()]
    n = len(charged)
    outcomes = [o for o, _, _ in per_input.values()]
    values = {
        "corpus_s": math.fsum(charged),
        "op_s.geomean": math.exp(math.fsum(math.log(c) for c in charged) / n),
        "solved_share": outcomes.count("solved") / n,
        "ok_share": 1 - outcomes.count("failed") / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_metadata():
    """The commit (None outside a git checkout) and the line count of src/."""
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"commit": commit, "src_lines": src_lines, "python": sys.version.split()[0]}


def run_workload(args):
    process_start = perf_counter()
    if not (SRC / "forestalg").is_dir():
        print("no forestalg sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy  # noqa: F401  (the cover ops use it; its import belongs to set-up)

    numpy_s = perf_counter() - start
    rounds = []
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        start = perf_counter()
        fa = load_forestalg()
        ops = corpus.build(args.workload, args.seed, fa)
        rounds.append(perf_counter() - start)
    setup_s = numpy_s + statistics.median(rounds)

    limit = corpus.LIMIT_S[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    rows, spans = measure(
        ops, limit, args.seconds, bool(args.trace), fa, ModuleState(fa),
        process_start + HARD_DEADLINE_S,
    )
    for row in rows:
        row["workload"] = args.workload
    untraced = summarize(ops, rows, limit, traced=False)
    e2e = end_to_end(untraced, setup_s)
    correct = not any(r["outcome"] == "wrong" for r in rows)
    failed = sum(1 for o, _, _ in untraced.values() if o == "failed")

    print("workload %s  seed %d  passes %d  limit %.0f s" % (
        args.workload, args.seed, 1 + max(r["pass"] for r in rows), limit))
    print("%-30s %-9s %-16s %10s" % ("input", "outcome", "error", "charged_s"))
    for name, (outcome, err, charged) in untraced.items():
        print("%-30s %-9s %-16s %10.4f" % (name, outcome, err or "-", charged))
    for r in rows:
        if r["outcome"] == "wrong":
            print("WRONG %s (pass %d): %s" % (r["input"], r["pass"], r["message"]))
    for name, m in e2e.items():
        print("%-14s %14.6f %s" % (name, m["value"], m["unit"]))
    print("%-14s %14.6f ratio" % ("failed_share", 1 - e2e["ok_share"]["value"]))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": run_metadata(), "end_to_end": e2e, "rows": rows}
    if args.trace:
        passes = len({r["pass"] for r in rows if r["traced"]})
        traced_corpus = math.fsum(c for _, _, c in summarize(ops, rows, limit, True).values())
        layers = tracer.per_layer(spans, passes, traced_corpus / e2e["corpus_s"]["value"])
        for name, m in layers.items():
            print("%-44s %16.6f %s" % (name, m["value"], m["unit"]))
        report["per_layer"] = layers
        metrics = layers
    else:
        metrics = e2e
    _write_report(report, spans, args)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def _write_report(report, spans, args):
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if spans:
        with gzip.open(str(stem) + ".spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            keys = ("id", "parent", "op", "name", "start", "wall_s", "self_s", "sizes", "error")
            for span in spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
