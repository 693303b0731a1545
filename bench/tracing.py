"""Per-layer tracing for the traced benchmark run.

Wrappers are installed from outside the library, at the module attribute or
class attribute each caller resolves at call time, and only in the traced
worker.  Three kinds of wrapper:

- span: one record (id, name, start, end, parent id, instance id) per call,
  kept in memory and written out at the end of the run.  Self time is the
  span's duration minus the time of its child spans and timed leaves.
- timed leaf: for hot calls such as compose, only a call count and summed
  time; the time is charged to the enclosing span as child time.  Timed
  leaves never call one another, so their times do not overlap.
- counter: a call count only; the time stays in the caller's self time.

Because every timed interval is charged to exactly one parent, the self
times of an instance's spans plus its timed-leaf times sum to the duration
of the instance's root span.  run_instance returns the difference, and
run.py requires it to be zero up to rounding.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # Self and leaf times of the current instance; commit() adds them,
        # scaled to the reference speed, to the run totals.
        self.self_s: dict[str, float] = defaultdict(float)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.total_self_s: dict[str, float] = defaultdict(float)
        self.total_leaf_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [id, start, child seconds]
        self._next_id = 0
        self._instance = -1
        self._accounted = 0.0  # self plus leaf seconds of the current instance
        self._seen: set = set()  # repeat-detection keys of the current instance
        self.scales: list = []  # Scale objects built during the current instance
        self.scale_entries = 0

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) may record counts."""

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            rec = [self._next_id, perf_counter(), 0.0]
            self._next_id += 1
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - rec[1]
                own = duration - rec[2]
                self.self_s[name] += own
                self._accounted += own
                self.counts[name] += 1
                if stack:
                    stack[-1][2] += duration
                self.spans.append((rec[0], name, rec[1], end, parent, self._instance))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.leaf_s[name] += elapsed
                self._accounted += elapsed
                self.counts[name] += 1
                if self._stack:
                    self._stack[-1][2] += elapsed

        return wrapper

    def counter(self, name, fn, key=None):
        """Count calls; with key(args), also count calls whose key was
        already seen in this instance under name + ".repeats"."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if key is not None:
                k = (name, key(args))
                if k in self._seen:
                    self.counts[name + ".repeats"] += 1
                else:
                    self._seen.add(k)
            return fn(*args, **kwargs)

        return wrapper

    # -- instances ------------------------------------------------------

    def run_instance(self, index: int, body):
        """Run body() as instance index under a root span; return the gap
        between its duration and the self and leaf times accounted in it."""
        self._instance = index
        self._accounted = 0.0
        self._seen = set()
        self.scales = []
        try:
            self.span("instance", body)()
        finally:
            # Read the materialized length once, after the instance: a scale
            # only grows, so this is the number of entries it built.
            self.scale_entries += sum(len(s.materialized()) for s in self.scales)
            self.scales = []
        duration = self.spans[-1][3] - self.spans[-1][2]
        return abs(duration - self._accounted)

    def commit(self, factor: float) -> None:
        """Add the current instance's times, multiplied by factor."""
        for mine, total in ((self.self_s, self.total_self_s), (self.leaf_s, self.total_leaf_s)):
            for name, seconds in mine.items():
                total[name] += seconds * factor
            mine.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "instance"), rec))) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of perm, words, scale, solver, freegrp and
    cli.  Must run after grpeq is imported and before any instance."""
    import grpeq.cli as cli
    import grpeq.freegrp as freegrp
    import grpeq.perm as perm
    import grpeq.scale as scale
    import grpeq.solver as solver
    from grpeq.words import GroupOps

    t = tracer

    # scale: entries, Scale.value (where extension happens), witnesses.
    build = cli.build_scale

    def build_scale(*args, **kwargs):
        s = build(*args, **kwargs)
        t.scales.append(s)
        return s

    cli.build_scale = build_scale
    scale.Scale.value = t.leaf("scale.extend", scale.Scale.value)
    find = t.span("scale.find_witness", scale.find_witness)
    scale.find_witness = find  # obeys_certificate
    solver.find_witness = find  # LimitAutomorphism.witness
    freegrp.make_witness = t.span("scale.make_witness", freegrp.make_witness)

    # perm: loading a driving sequence from JSON, term construction and the
    # solver's compose.
    cli.null_sequence_from_json = t.span("perm.load", cli.null_sequence_from_json)
    perm.NullSequence.perm = t.counter("perm.terms_built", perm.NullSequence.perm)
    ops = solver.PERM_OPS
    solver.PERM_OPS = GroupOps(
        multiply=t.leaf("perm.compose", ops.multiply),
        inverse=ops.inverse,
        identity=ops.identity,
    )

    # words: generated words and evaluations.
    def counted_nu_words(inner):
        def nu_words(nu):
            ws = inner(nu)
            return dataclasses.replace(ws, gen=t.counter("words.gen", ws.gen))

        return nu_words

    cli.nu_words = counted_nu_words(cli.nu_words)
    freegrp.nu_words = counted_nu_words(freegrp.nu_words)
    solver.evaluate = t.counter("words.evaluate", solver.evaluate)

    # solver: tables, limit queries, equation check.
    def count_rows(args, _result):
        t.counts["solver.approx.rows"] += args[2] + 1

    solver.approx = t.span("solver.approx", solver.approx, after=count_rows)
    lim = solver.LimitAutomorphism
    lim.apply = t.counter("solver.limit.query", lim.apply,
                          key=lambda a: (id(a[0]), a[1], a[2], "+"))
    lim.inverse_apply = t.counter("solver.limit.query", lim.inverse_apply,
                                  key=lambda a: (id(a[0]), a[1], a[2], "-"))
    lim.table = t.counter("solver.table", lim.table, key=lambda a: (id(a[0]), a[1]))
    cli.verify_solution = t.span("solver.verify_solution", cli.verify_solution)

    # freegrp: diagonalization, enumeration, chains, roots, audit.
    def count_steps(_args, state):
        t.counts["freegrp.chain_steps"] += state.position

    freegrp.diagonalize = t.span("freegrp.diagonalize", freegrp.diagonalize)
    freegrp.enumerate_h = t.span("freegrp.enumerate_h", freegrp.enumerate_h)
    freegrp.block = t.span("freegrp.block", freegrp.block)
    freegrp.chain_run = t.span("freegrp.chain_run", freegrp.chain_run, after=count_steps)
    freegrp.has_root = t.counter("freegrp.has_root", freegrp.has_root)
    freegrp.no_root_exponent = t.span("freegrp.no_root_exponent", freegrp.no_root_exponent)
    freegrp.reverify = t.span("freegrp.reverify", freegrp.reverify)


def layer_metrics(t: Tracer, instances: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit): counts and reference-speed
    seconds as means per instance, hit ratios as plain ratios."""
    c, s, leaf = t.counts, t.total_self_s, t.total_leaf_s

    def count(x):
        return x / instances, "count/inst"

    def secs(x):
        return x / instances, "s/inst"

    def ratio(hits, total):
        return (hits / total if total else 0.0), "ratio"

    return {
        "scale.entries": count(t.scale_entries),
        "scale.extend_s": secs(leaf["scale.extend"]),
        "scale.find_witness.calls": count(c["scale.find_witness"]),
        "scale.find_witness.self_s": secs(s["scale.find_witness"]),
        "scale.make_witness.calls": count(c["scale.make_witness"]),
        "perm.load.self_s": secs(s["perm.load"]),
        "perm.terms_built": count(c["perm.terms_built"]),
        "perm.compose.calls": count(c["perm.compose"]),
        "perm.compose.s": secs(leaf["perm.compose"]),
        "words.gen_calls": count(c["words.gen"]),
        "words.evaluate.calls": count(c["words.evaluate"]),
        "solver.approx.calls": count(c["solver.approx"]),
        "solver.approx.rows": count(c["solver.approx.rows"]),
        "solver.approx.self_s": secs(s["solver.approx"]),
        "solver.limit.queries": count(c["solver.limit.query"]),
        "solver.limit.hit_ratio": ratio(c["solver.limit.query.repeats"], c["solver.limit.query"]),
        "solver.table.hit_ratio": ratio(c["solver.table.repeats"], c["solver.table"]),
        "solver.verify_solution.self_s": secs(s["solver.verify_solution"]),
        "freegrp.diagonalize.self_s": secs(s["freegrp.diagonalize"]),
        "freegrp.enumerate_h.calls": count(c["freegrp.enumerate_h"]),
        "freegrp.enumerate_h.self_s": secs(s["freegrp.enumerate_h"]),
        "freegrp.block.calls": count(c["freegrp.block"]),
        "freegrp.chain_run.calls": count(c["freegrp.chain_run"]),
        "freegrp.chain_steps": count(c["freegrp.chain_steps"]),
        "freegrp.chain_run.self_s": secs(s["freegrp.chain_run"]),
        "freegrp.has_root.calls": count(c["freegrp.has_root"]),
        "freegrp.no_root_exponent.self_s": secs(s["freegrp.no_root_exponent"]),
        "freegrp.reverify.self_s": secs(s["freegrp.reverify"]),
        "cli.self_s": secs(s["cli.main"]),
    }
