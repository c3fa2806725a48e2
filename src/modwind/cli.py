"""Command-line entry point.

Machine-readable JSON goes to stdout; progress lines go to stderr.
Exit codes: 0 success, 1 verification failure, 2 usage, 3 I/O,
4 resource budget exceeded: the module doing the work raises BudgetError
before it starts, and main reports it.  Each command imports the modules
it calls when it runs.  Only enumeration and sampling (`bulk`), c-hat and
the geometric lengths (`invariants`) and the geom histograms load numpy:
`count`, the exact-table routes (`dist` under period, maxn and word, and
`charfn`), `--help` and usage errors run without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from importlib import import_module

from . import GEOM, MAXN, NORMALIZATIONS, PERIOD, WORD, necklace, sigma_p2, sigma_w2
from .errors import BudgetError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4

NORM_SIGMA = {
    PERIOD: lambda A, tol: float(sigma_p2(A)),
    MAXN: lambda A, tol: float(sigma_p2(A)),
    WORD: lambda A, tol: float(sigma_w2(A)),
    GEOM: lambda A, tol: import_module("modwind.invariants").chat_two_tail(A, tol).sigma_g2,
}


def _progress(done, total):
    """One line per whole percent of shards done, and one for the last."""
    if done == total or 100 * done // total != 100 * (done - 1) // total:
        print(f"shard {done}/{total}", file=sys.stderr, flush=True)


def _threads(value):
    try:
        threads = int(value)
        if threads >= 1:
            return threads
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"thread count (--threads or MODWIND_THREADS) must be an integer >= 1, got {value!r}"
    )


def _even(value):
    n = int(value)
    if n % 2 != 0 or n < 2:
        raise argparse.ArgumentTypeError(f"N must be even and >= 2, got {n}")
    return n


def _bound(value):
    A = int(value)
    if A <= 1:
        raise argparse.ArgumentTypeError(f"A must exceed 1, got {A}")
    return A


def _int_at_least(lo):
    def parse(value):
        n = int(value)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _tolerance(value):
    tol = float(value)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {tol}")
    return tol


def _finite(value):
    t = float(value)
    if not math.isfinite(t):
        raise argparse.ArgumentTypeError(f"must be finite, got {t}")
    return t


def _exact_table(A, N):
    """Accumulator holding only the exact (n, psi, lw) table of A, N, built
    from digit-sum counts: all that period, maxn and word statistics read."""
    from . import lattice, stats
    acc = stats.JointCounts(A, N)
    acc.table = lattice.table(A, N, progress=_progress)
    return acc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modwind",
        description="Winding statistics of low-lying closed geodesics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--A", type=_bound, required=True, help="partial quotient bound")
        if with_n:
            p.add_argument("--N", type=_even, required=True, help="maximum period length (even)")

    def threads(p):
        # argparse applies the type to a string default, so a bad
        # MODWIND_THREADS is a usage error like a bad --threads.
        p.add_argument("--threads", type=_threads,
                       default=os.environ.get("MODWIND_THREADS") or "1")

    p = sub.add_parser("count", help="count necklaces up to period length N")
    common(p)
    p.add_argument("--exact", action="store_true",
                   help="count by full enumeration and check it against the Moebius sums")
    threads(p)

    p = sub.add_parser("dist", help="empirical distribution vs Gaussian")
    common(p)
    p.add_argument("--norm", choices=NORMALIZATIONS, required=True)
    p.add_argument("--bins", type=_int_at_least(2), default=8192)
    threads(p)
    p.add_argument("--tol", type=_tolerance, default=1e-3,
                   help="geom normalization: largest width of the rigorous two-tail "
                        "interval for c-hat whose midpoint gives sigma^2")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--svg", action="store_true", help="also emit dist.svg")
    p.add_argument("--sample", type=_int_at_least(1), metavar="COUNT",
                   help="Monte Carlo mode: number of uniform draws")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("constants", help="variance constants and ergodic estimate")
    common(p, with_n=False)
    p.add_argument("--tol", type=_tolerance, default=1e-3,
                   help="largest Fibonacci bound 2/F_k^2 on |c-hat - c_k|")

    p = sub.add_parser("charfn", help="empirical characteristic function")
    common(p)
    p.add_argument("--norm", choices=[PERIOD, MAXN], default=PERIOD)
    p.add_argument("--t", type=_finite, action="append", required=True,
                   help="evaluation point (repeatable)")
    threads(p)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    common(p)
    return parser


def dumps17(obj, indent=0):
    """JSON text with floats rendered to 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        items = [f'{inner}{json.dumps(k)}: {dumps17(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [f"{inner}{dumps17(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, float):
        return f"{obj:.17g}"
    return json.dumps(obj)


def cmd_count(args):
    if args.exact:  # priced before the asymptotic count can overflow
        from . import bulk
        total = bulk.count(args.A, args.N, threads=args.threads, progress=_progress)
    report = necklace.pi_asymptotic(args.A, args.N)
    if args.exact and total != report.exact:
        print(f"enumerated {total} != pi_exact {report.exact}", file=sys.stderr)
        return EXIT_VERIFY
    print(dumps17({
        "A": args.A,
        "N": args.N,
        "exact": report.exact,
        "asymptotic": report.asymptotic,
        "relative_error": report.relative_error,
        "method": "enumeration" if args.exact else "closed-form",
    }))
    return EXIT_OK


def cmd_dist(args):
    from . import stats
    # One histogram row of bins + 2 cells per period length.
    if args.N // 2 * (args.bins + 2) > stats.GRID_CAP:
        print("histogram exceeds the grid cap; use fewer --bins", file=sys.stderr)
        return EXIT_RESOURCE
    hist = stats.default_hist(args.A, args.bins)
    # The draws' or the enumeration's price, then ĉ's budget, before any work.
    if args.sample is not None:
        from . import bulk
        bulk.check_sample(args.A, args.N, args.sample)
    elif args.norm == GEOM:
        from . import bulk
        bulk.shard_ranges(args.A, args.N)
    sigma2 = NORM_SIGMA[args.norm](args.A, args.tol)
    if args.sample is not None:
        acc = bulk.sample(args.A, args.N, args.sample, args.seed, hist)
    elif args.norm == GEOM:
        # Only geom reads the per-word l_g histograms.
        acc = bulk.run(args.A, args.N, hist=hist, threads=args.threads,
                       progress=_progress)
    else:
        acc = _exact_table(args.A, args.N)
    report = stats.ks_distance(acc, args.norm, sigma2)
    summary = dumps17(stats.report_json(report, args.A, args.N))
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        stats.write_table_csv(acc, os.path.join(args.out_dir, "table.csv"))
        stats.write_cdf_csv(report, os.path.join(args.out_dir, "cdf.csv"))
        with open(os.path.join(args.out_dir, "report.json"), "w") as fh:
            fh.write(summary + "\n")
        if args.svg:
            from . import svgplot
            with open(os.path.join(args.out_dir, "dist.svg"), "w") as fh:
                fh.write(svgplot.render(report.cdf_points, sigma2))
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(summary)
    return EXIT_OK


def cmd_constants(args):
    from . import invariants
    base = {
        "A": args.A,
        "sigma_p2": float(sigma_p2(args.A)),
        "sigma_w2": float(sigma_w2(args.A)),
    }
    try:
        est = invariants.chat_estimate(args.A, args.tol)
        code = EXIT_OK
    except BudgetError as exc:
        est = exc.best
        code = EXIT_RESOURCE
        print(str(exc), file=sys.stderr)
        if est is None:
            return code
    lo, hi = est.sigma_g2_interval
    base.update({
        "k": est.k,
        "c_k": est.c_k,
        "fibonacci_bound": est.error_bound,
        "sigma_g2": est.sigma_g2,
        "sigma_g2_interval": [lo, hi],
    })
    print(dumps17(base))
    return code


def cmd_charfn(args):
    from . import stats
    sigma2 = float(sigma_p2(args.A))
    acc = _exact_table(args.A, args.N)
    t_admissible = math.sqrt(2.0 * math.log(args.A) * args.N) / math.sqrt(sigma2)
    for t in args.t:
        if args.norm == MAXN and abs(t) >= t_admissible:
            print(f"warning: |t|={abs(t)} outside admissible range "
                  f"< {t_admissible:.4f}", file=sys.stderr)
    try:
        values = stats.empirical_char_fn(acc, args.norm, args.t)
    except ValueError as exc:
        raise ValueError(f"argument --t: {exc}") from None
    rows = []
    for t, (re, im) in zip(args.t, values):
        target = math.exp(-0.5 * sigma2 * t * t)
        rows.append({
            "t": t,
            "empirical_re": re,
            "empirical_im": im,
            "target": target,
            "gap": abs(re - target),
        })
    print(dumps17({
        "A": args.A,
        "N": args.N,
        "normalization": args.norm,
        "sigma2": sigma2,
        "points": rows,
    }))
    return EXIT_OK


def cmd_verify(args):
    from . import verify
    results = verify.run_suite(args.A, args.N)
    failed = False
    for name, failures in results:
        status = "ok" if not failures else "FAIL"
        print(f"{name}: {status}", file=sys.stderr)
        for f in failures:
            failed = True
            print(f"  {f}", file=sys.stderr)
    print(dumps17({
        "A": args.A,
        "N": args.N,
        "checks": [{"name": n, "passed": not f} for n, f in results],
        "passed": not failed,
    }))
    return EXIT_VERIFY if failed else EXIT_OK


COMMANDS = {
    "count": cmd_count,
    "dist": cmd_dist,
    "constants": cmd_constants,
    "charfn": cmd_charfn,
    "verify": cmd_verify,
}


def _attach_negative_t(argv):
    """argv with each `--t X`, X a negative number, written `--t=X`:
    argparse takes a value starting with '-' for an option unless it reads
    like -5 or -0.5, so `--t -1e3` would lack its value."""
    out = []
    for arg in argv:
        if out and out[-1] == "--t" and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_negative_t(sys.argv[1:] if argv is None else argv))
    try:
        return COMMANDS[args.command](args)
    except BudgetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except OverflowError as exc:
        print(f"modwind {args.command}: result exceeds the float range: {exc}",
              file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"modwind {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry(argv=None):
    """Process entry of the `modwind` script and of `python -m modwind.cli`.

    A call is one short process whose objects are almost all acyclic and
    live until it exits, so cyclic GC would mostly walk numpy's long-lived
    heap: it is off while the command runs, and the objects left when it
    returns are frozen, out of the interpreter's final collection.
    In-process callers use main, which leaves the collector as it is.
    """
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
