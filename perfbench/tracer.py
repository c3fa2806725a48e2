"""Traced modwind CLI call, and the reduction of its spans to layer figures.

Run as a script, it imports modwind, wraps the public functions of each
module at the attribute its caller looks up, runs `modwind.cli.main` on
the remaining arguments and writes the recorded spans when the process
ends:

    python3 perfbench/tracer.py SPAN_PREFIX CLI_ARG...

Spans are kept in memory as (id, name, start, end, parent, attrs) and
written as JSON lines to SPAN_PREFIX.<pid>.jsonl.  Worker processes that
`bulk.run` forks for `--threads > 1` inherit the wrappers; each writes
its own file after every outermost span it records, because pool workers
exit without running exit handlers.  All times come from
time.perf_counter, a system-wide monotonic clock on Linux, so spans of
worker processes line up with those of the parent.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, prefix):
        self.prefix = prefix
        self.pid = os.getpid()
        self.seq = 0
        self.stack = []
        self.base_depth = 0
        self.worker = False
        self.spans = []
        self.counts = Counter()

    def _claim(self):
        # A forked worker starts with copies of the parent's records.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.counts = [], Counter()
            self.base_depth = len(self.stack)
            self.worker = True

    def span(self, name, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(args, result) adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._claim()
            sid = f"{self.pid}.{self.seq}"
            self.seq += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close([sid, name, start, time.perf_counter(), parent, {}])
                raise
            rec = [sid, name, start, time.perf_counter(), parent, {}]
            if attrs is not None:
                rec[5] = attrs(args, result)
            self._close(rec)
            return result

        return wrapper

    def _close(self, rec):
        self.stack.pop()
        self.spans.append(rec)
        if self.worker and len(self.stack) == self.base_depth:
            self.flush()

    def counter(self, name, fn, caller=None):
        """Wrap fn so calls are counted; with caller, only calls made
        directly from that function's code."""
        code = caller.__code__ if caller is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if code is None or sys._getframe(1).f_code is code:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def flush(self):
        with open(f"{self.prefix}.{self.pid}.jsonl", "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            if self.counts:
                fh.write(json.dumps({"counts": self.counts}) + "\n")
        self.spans, self.counts = [], Counter()


def install(tracer):
    """Wrap the layer boundaries.  Returns the wrapped cli.main."""
    from modwind import bulk, cfcore, cli, invariants, necklace, stats, svgplot

    span = tracer.span
    sampler = necklace.sample_uniform_rng
    # cli -> bulk, invariants, necklace, stats, svgplot: module attributes
    bulk.run = span("bulk.run", bulk.run,
                    lambda args, acc: {"necklaces": acc.total_count()})
    invariants.chat_estimate = span("invariants.chat_estimate", invariants.chat_estimate)
    invariants.build_record = span("invariants.build_record", invariants.build_record)
    necklace.sample_uniform_rng = span("necklace.sample_uniform_rng",
                                       necklace.sample_uniform_rng)
    stats.ks_distance = span("stats.ks_distance", stats.ks_distance)
    stats.empirical_char_fn = span("stats.empirical_char_fn", stats.empirical_char_fn)
    stats.write_table_csv = span("stats.write", stats.write_table_csv)
    stats.write_cdf_csv = span("stats.write", stats.write_cdf_csv)
    svgplot.render = span("svgplot.render", svgplot.render)
    # cli -> JointCounts.accumulate, a method looked up on the class
    stats.JointCounts.accumulate = span("stats.accumulate", stats.JointCounts.accumulate)
    # inside bulk and invariants: module globals
    bulk.run_shard = span("bulk.run_shard", bulk.run_shard)
    bulk.merge = span("bulk.merge", bulk.merge)
    invariants.ck_constant = span("invariants.ck_constant", invariants.ck_constant,
                                  lambda args, _: {"words": args[0] ** args[1]})
    invariants.geodesic_length_logsum = span("invariants.geodesic_length_logsum",
                                             invariants.geodesic_length_logsum)
    # counts: matrix products, and words the sampler draws and tests
    cfcore.MatrixZ.__matmul__ = tracer.counter("cfcore.matmul", cfcore.MatrixZ.__matmul__)
    necklace.is_primitive = tracer.counter("necklace.tries", necklace.is_primitive,
                                           caller=sampler)
    return span("cli.main", cli.main)


def main(argv):
    prefix, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import modwind.cli  # noqa: F401  (timed: the import cost of every CLI call)

    end = time.perf_counter()
    tracer = Tracer(prefix)
    tracer.spans.append([f"{tracer.pid}.import", "cli.import", start, end, None, {}])
    cli_main = install(tracer)
    try:
        return cli_main(cli_args)
    finally:
        tracer.flush()


# -- reduction ---------------------------------------------------------------

def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def load(prefix):
    """Spans and counts written by every process of one traced call."""
    spans, counts = [], Counter()
    for path in sorted(glob.glob(glob.escape(prefix) + ".*.jsonl")):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if isinstance(rec, dict):
                    counts.update(rec["counts"])
                else:
                    spans.append(rec)
    return spans, counts


def reduce(spans, counts):
    """Per-layer figures of one traced call."""
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
        children.setdefault(s[4], []).append((s[2], s[3]))

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, []))

    def self_time(name):
        return sum(s[3] - s[2] - _covered(s[2], s[3], children.get(s[0], []))
                   for s in by_name.get(name, []))

    shards = by_name.get("bulk.run_shard", [])
    per_run = {}
    for s in shards:
        per_run.setdefault(s[4], []).append(s[3] - s[2])
    return {
        "cli.import_s": total("cli.import"),
        "cli.self_s": self_time("cli.main"),
        "bulk.run_s": total("bulk.run"),
        "bulk.shards": len(shards),
        # the slowest shard of a sharded run sets when its merge can start
        "bulk.shard_s_max": max((max(d) for d in per_run.values() if len(d) > 1), default=0.0),
        "bulk.merge_s": total("bulk.merge"),
        "bulk.pool_s": self_time("bulk.run"),
        "invariants.chat_estimate_s": total("invariants.chat_estimate"),
        "invariants.ck_words": sum(s[5].get("words", 0)
                                   for s in by_name.get("invariants.ck_constant", [])),
        "invariants.build_record_s": total("invariants.build_record"),
        "invariants.build_record_calls": len(by_name.get("invariants.build_record", [])),
        "invariants.logsum_s": total("invariants.geodesic_length_logsum"),
        "cfcore.matmul_calls": counts.get("cfcore.matmul", 0),
        "necklace.sampler_s": total("necklace.sample_uniform_rng"),
        "stats.accumulate_s": total("stats.accumulate"),
        "stats.ks_distance_s": total("stats.ks_distance"),
        "stats.charfn_s": total("stats.empirical_char_fn"),
        "stats.write_s": total("stats.write"),
        "svgplot.render_s": total("svgplot.render"),
        # operands of the two ratio metrics, which are taken per round
        "necklaces": sum(s[5].get("necklaces", 0) for s in by_name.get("bulk.run", [])),
        "draws": len(by_name.get("necklace.sample_uniform_rng", [])),
        "tries": counts.get("necklace.tries", 0),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
