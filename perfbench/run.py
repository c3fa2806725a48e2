"""modwind benchmark: CLI workloads timed end to end, outputs checked.

    python3 perfbench/run.py --workload {lattice,geom,sample} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree (it runs `src/modwind`).  Every
operation is one `modwind` CLI call in a fresh process with a fresh
output directory; its outputs are checked against perfbench/reference.py
before the next call starts.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import tracer  # noqa: E402

# Wall time of a call that does no work, taken this many times per run.
SETUP_CALLS = 5
# Every call is killed after this long, so a run always ends.
RUN_LIMIT_S = 170.0
# The machine's speed: a fixed pure-Python loop of CAL_STEPS steps and a
# numpy sort of CAL_SIZE integers are timed CAL_REPS times before every
# call.  End-to-end times are scaled to the speed at which they take
# CAL_NOMINAL_S (see machine_scale).
CAL_STEPS = 200_000
CAL_SIZE = 200_000
CAL_REPS = 5
CAL_NOMINAL_S = (0.018, 0.0028)


@dataclass(frozen=True)
class Op:
    """One `modwind` CLI invocation."""

    command: str
    A: int
    N: int | None = None
    norm: str | None = None
    exact: bool = False
    threads: int = 1
    sample: int | None = None
    seed: int | None = None
    svg: bool = False
    t: tuple = ()
    tol: float = 1e-3  # the CLI default; passed explicitly to `constants`

    def argv(self, out_dir):
        args = [self.command, "--A", str(self.A)]
        if self.N is not None:
            args += ["--N", str(self.N)]
        if self.command == "constants":
            args += ["--tol", repr(self.tol)]
        else:
            args += ["--threads", str(self.threads)]
        if self.exact:
            args.append("--exact")
        if self.norm is not None:
            args += ["--norm", self.norm]
        for t in self.t:
            args += ["--t", repr(t)]
        if self.sample is not None:
            args += ["--sample", str(self.sample), "--seed", str(self.seed)]
        if self.command == "dist":
            args += ["--out-dir", out_dir]
        if self.svg:
            args.append("--svg")
        return args


SETUP_OP = Op("count", 5, 12)


def derive_seed(seed, workload, round_no, slot):
    """CLI --seed of one sampled operation, from the workload seed."""
    text = f"{workload}/{seed}/{round_no}/{slot}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def workload_ops(workload, seed, round_no):
    """The operations of one round; every round has the same shape."""
    if workload == "lattice":
        return [
            Op("dist", 5, 8, norm="period", svg=True),
            Op("charfn", 4, 10, t=(0.5, 1.0, 2.0)),
            # 9^8 > 2^24 words, so bulk.run shards it (9 prefixes) over the pool
            Op("count", 9, 8, exact=True, threads=2),
        ]
    if workload == "geom":
        return [
            Op("dist", 5, 8, norm="geom"),
            Op("constants", 5, tol=1e-3),
            # Fails with exit 4 for every seed (c_10 needs 6^10 words, over
            # the word budget), so its seed is fixed rather than derived.
            Op("dist", 6, 12, norm="geom", sample=200, seed=1),
        ]
    if workload == "sample":
        return [
            Op("dist", 9, 14, norm=norm, sample=1000,
               seed=derive_seed(seed, workload, round_no, slot))
            for slot, norm in enumerate(("period", "word"))
        ]
    raise ValueError(workload)


WORKLOADS = ("lattice", "geom", "sample")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "geodesics_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "bulk.run_s": "s",
    "bulk.shards": "count",
    "bulk.shard_s_max": "s",
    "bulk.merge_s": "s",
    "bulk.pool_s": "s",
    "bulk.necklaces_per_s": "1/s",
    "invariants.chat_estimate_s": "s",
    "invariants.ck_words": "count",
    "invariants.build_record_s": "s",
    "invariants.build_record_calls": "count",
    "invariants.logsum_s": "s",
    "cfcore.matmul_calls": "count",
    "necklace.sampler_s": "s",
    "necklace.tries_per_draw": "ratio",
    "stats.accumulate_s": "s",
    "stats.ks_distance_s": "s",
    "stats.charfn_s": "s",
    "stats.write_s": "s",
    "stats.bytes_written": "bytes",
    "svgplot.render_s": "s",
    "proc.cpu_s": "s",
    "proc.sys_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    """What one operation did, as seen from outside its process."""

    exit_code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    sys_s: float
    geodesics: int
    bytes_written: int
    problems: list
    layers: dict | None


def _env():
    env = dict(os.environ)
    env.pop("MODWIND_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid):
    """Kill a CLI call and the pool workers it forked, if any are left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(op, out_dir, checker, traced, deadline):
    """Run one CLI call, time it, check its outputs, then delete them."""
    os.makedirs(out_dir)
    prefix = os.path.join(out_dir, "spans")
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), prefix]
    else:
        cmd = [sys.executable, "-m", "modwind.cli"]
    cmd += op.argv(out_dir)
    out_path = os.path.join(out_dir, "stdout")
    err_path = os.path.join(out_dir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=out_dir, env=_env(),
                                start_new_session=True)
        killer = threading.Timer(max(1.0, deadline - start), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    problems, geodesics = [], 0
    if proc.returncode == 0:
        problems = checker.check(op, out_dir, stdout)
        payload = json.loads(stdout) if not problems else {}
        geodesics = payload.get("count", payload.get("exact", 0))
    else:
        with open(err_path, errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        print(f"exit {proc.returncode}: {' '.join(op.argv('OUT'))}: {' '.join(tail)}",
              file=sys.stderr)
    written = sum(os.path.getsize(os.path.join(out_dir, f))
                  for f in ("table.csv", "cdf.csv") if os.path.exists(os.path.join(out_dir, f)))
    layers = tracer.reduce(*tracer.load(prefix)) if traced else None
    shutil.rmtree(out_dir)
    for p in problems:
        print(f"CHECK FAILED: {' '.join(op.argv('OUT'))}: {p}", file=sys.stderr)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   usage.ru_utime + usage.ru_stime, usage.ru_stime,
                   geodesics, written, problems, layers)


def calibration(data):
    """Wall times of the Python loop and of the numpy sort of `data`.

    Neither runs modwind code, so a change to the program cannot move them.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_STEPS):
        acc += i * i % 7
    mid = time.perf_counter()
    np.bincount(np.sort(data) & 0xFFFF)
    return mid - start, time.perf_counter() - mid


def machine_scale(times):
    """Factor that takes a wall time measured in this run to nominal speed.

    The geometric mean of the two kernels' speeds against nominal: the
    CLI calls spend their time both in the interpreter and in numpy.
    """
    py, vec = (statistics.median(t[i] for t in times) for i in (0, 1))
    return math.sqrt(CAL_NOMINAL_S[0] / py * CAL_NOMINAL_S[1] / vec)


def round_layers(outcomes):
    """Per-layer metrics of one traced round, from its operations' spans."""
    tot = {}
    for o in outcomes:
        for k, v in o.layers.items():
            tot[k] = max(tot.get(k, 0), v) if k == "bulk.shard_s_max" else tot.get(k, 0) + v
    run_s, necklaces = tot["bulk.run_s"], tot.pop("necklaces")
    draws, tries = tot.pop("draws"), tot.pop("tries")
    tot["bulk.necklaces_per_s"] = necklaces / run_s if run_s else 0.0
    tot["necklace.tries_per_draw"] = tries / draws if draws else 0.0
    tot["stats.bytes_written"] = sum(o.bytes_written for o in outcomes)
    return tot


def measure(workload, seed, seconds, trace, workdir):
    """Run whole rounds of the workload for about `seconds`.

    The set-up calls are spread over the run, one before each of the
    first operations, so that their median is not taken from one burst
    of load on the machine.  With trace, every operation runs twice in a
    row, untraced and then traced, so that the pair sees the same load.
    The calibration kernels run before every call.  Returns (setup
    outcomes, rounds, calibration times), each round a list of outcomes.
    """
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    checker = checks.Checker()
    setup, cal_times = [], []
    data = np.random.default_rng(0).integers(0, 1 << 40, size=CAL_SIZE)

    def call(op, path, traced=False):
        cal_times.extend(calibration(data) for _ in range(CAL_REPS))
        return run_op(op, path, checker, traced, deadline)

    def setup_call():
        setup.append(call(SETUP_OP, os.path.join(workdir, f"setup{len(setup)}")))

    rounds = []
    while True:
        outcomes = []
        for i, op in enumerate(workload_ops(workload, seed, len(rounds))):
            if len(setup) < SETUP_CALLS:
                setup_call()
            for traced in (False, True) if trace else (False,):
                path = os.path.join(workdir, f"r{len(rounds)}-{i}{'t' * traced}")
                outcomes.append(call(op, path, traced))
        rounds.append(outcomes)
        typical = statistics.median(sum(o.wall_s for o in r) for r in rounds)
        if time.perf_counter() - begin + typical > seconds:
            break
    while len(setup) < SETUP_CALLS:
        setup_call()
    return setup, rounds, cal_times


def end_to_end(setup, rounds, scale):
    """Each operation's median over the rounds, summed over one round.

    A call's wall time is a mean over the seconds it runs, so one burst
    of load on the machine moves it; the median over rounds, taken per
    operation, leaves that burst out.  The machine's speed also drifts,
    by up to a quarter over minutes, and the calibration kernels follow
    that drift, so every time is multiplied by `scale` (machine_scale).
    """
    slots = list(zip(*rounds))
    wall = scale * sum(statistics.median(o.wall_s for o in slot) for slot in slots)
    geodesics = sum(statistics.median(o.geodesics for o in slot) for slot in slots)
    return {
        "setup_s": scale * statistics.median(o.wall_s for o in setup),
        "wall_s": wall,
        "geodesics_per_s": geodesics / wall,
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in r) for r in rounds),
    }


def per_layer(rounds):
    plain = [[o for o in r if o.layers is None] for r in rounds]
    traced = [[o for o in r if o.layers is not None] for r in rounds]
    layers = [round_layers(r) for r in traced]
    out = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
    out["proc.cpu_s"] = statistics.median(sum(o.cpu_s for o in r) for r in plain)
    out["proc.sys_s"] = statistics.median(sum(o.sys_s for o in r) for r in plain)
    out["trace.overhead_s"] = statistics.median(
        sum(o.wall_s for o in t) - sum(o.wall_s for o in p) for p, t in zip(plain, traced))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running call is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "modwind", "cli.py")):
        print(f"no modwind source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".out", f"run-{os.getpid()}")
    try:
        setup, rounds, cal_times = measure(args.workload, args.seed, args.seconds,
                                           args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(o.exit_code != 0 for o in setup):
        print("the set-up call failed", file=sys.stderr)
        return 1

    every = setup + [o for r in rounds for o in r]
    attempted = len(every) - len(setup)
    failed = sum(o.exit_code != 0 for r in rounds for o in r)
    if args.trace:
        values, units = per_layer(rounds), PER_LAYER
    else:
        values, units = end_to_end(setup, rounds, machine_scale(cal_times)), END_TO_END
    for r in rounds:
        walls = " ".join(f"{o.wall_s:.3f}{'t' if o.layers else ''}" for o in r)
        print(f"round {sum(o.wall_s for o in r):8.3f} s [{walls}]")
    print(f"calibration: {len(cal_times)} pairs, medians "
          f"{statistics.median(t[0] for t in cal_times) * 1e3:.3f} ms (Python) and "
          f"{statistics.median(t[1] for t in cal_times) * 1e3:.3f} ms (numpy), "
          f"scale {machine_scale(cal_times):.4f}")
    if not args.trace:
        raw = end_to_end(setup, rounds, 1.0)
        print(f"unscaled: setup_s {raw['setup_s']:.6f} s, wall_s {raw['wall_s']:.6f} s")
    for name, unit in units.items():
        print(f"{args.workload:8s} {name:30s} {values[name]:16.6f} {unit}")
    result = {
        "correct": not any(o.problems for o in every),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name] if unit in ("count", "bytes")
                           else float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
