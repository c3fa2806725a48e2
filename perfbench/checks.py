"""Checks of one CLI operation's outputs against perfbench.reference.

`Checker.check` returns a list of problems; an empty list means the
outputs agree with the reference computations and properties.  Nothing
is compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import reference as ref

# Sampled statistics may stray this many standard errors from the exact
# value, and the chi-squared test of draws per period length rejects at
# this false-alarm level.
SAMPLE_SIGMAS = 6.0
CHI2_LEVEL = 1e-6
# Tolerance for a quantity the program and the reference compute by the
# same float formula from identical exact inputs.
FLOAT_TOL = 1e-12


def _close(a, b, tol=FLOAT_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def read_table(path):
    """{(n, psi, lw): count} from table.csv, checking its layout."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "n,psi,lw,count":
        raise ValueError("table.csv header is not n,psi,lw,count")
    table, keys = {}, []
    for line in lines[1:]:
        n, psi, lw, count = (int(v) for v in line.split(","))
        if count <= 0:
            raise ValueError(f"table.csv row {line} has a non-positive count")
        keys.append((n, psi, lw))
        table[(n, psi, lw)] = count
    if keys != sorted(set(keys)):
        raise ValueError("table.csv rows are not sorted and unique")
    return table


def read_cdf(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "x,F_emp,F_gauss":
        raise ValueError("cdf.csv header is not x,F_emp,F_gauss")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


class Checker:
    """Checks outputs; caches reference tables and c-hat per A."""

    def __init__(self):
        self._tables = {}
        self._chat = {}

    def table(self, A, N):
        if (A, N) not in self._tables:
            self._tables[(A, N)] = ref.pair_table(A, N)
        return self._tables[(A, N)]

    def chat(self, A):
        if A not in self._chat:
            self._chat[A] = ref.chat(A)
        return self._chat[A]

    def check(self, op, out_dir, stdout):
        problems = []
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["stdout is not a JSON object"]
        try:
            getattr(self, "_" + op.command)(op, out_dir, payload, problems)
        except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems

    # -- count -------------------------------------------------------------

    def _count(self, op, out_dir, p, problems):
        A, N = op.A, op.N
        exact = ref.necklace_total(A, N)
        asym = ref.asymptotic(A, N)
        if (p["A"], p["N"]) != (A, N):
            problems.append("count echoes the wrong A, N")
        if p["method"] != ("enumeration" if op.exact else "closed-form"):
            problems.append(f"count method is {p['method']}")
        if p["exact"] != exact:
            problems.append(f"count exact {p['exact']} != sum L(A^2, n/2) = {exact}")
        if not _close(p["asymptotic"], asym, 1e-14):
            problems.append(f"asymptotic {p['asymptotic']} != {asym}")
        if not _close(p["relative_error"], abs(exact - asym) / asym):
            problems.append("relative_error disagrees with exact and asymptotic")

    # -- charfn ------------------------------------------------------------

    def _charfn(self, op, out_dir, p, problems):
        A, N = op.A, op.N
        norm = op.norm or "period"
        sigma2 = ref.sigma_p2(A)
        values = ref.normalized_values(self.table(A, N), norm, N)
        if p["normalization"] != norm or not _close(p["sigma2"], sigma2, 1e-15):
            problems.append("charfn normalization or sigma2 is wrong")
        points = p["points"]
        if [q["t"] for q in points] != [float(t) for t in op.t]:
            problems.append("charfn points do not echo the requested t")
            return
        for q in points:
            t = q["t"]
            re, im = ref.char_fn(values, t)
            target = math.exp(-0.5 * sigma2 * t * t)
            if abs(q["empirical_re"] - re) > FLOAT_TOL or abs(q["empirical_im"] - im) > FLOAT_TOL:
                problems.append(f"charfn at t={t}: {q['empirical_re']}, {q['empirical_im']} "
                                f"!= reference {re}, {im}")
            if not _close(q["target"], target, 1e-14):
                problems.append(f"charfn target at t={t} != exp(-sigma2 t^2 / 2)")
            if not _close(q["gap"], abs(q["empirical_re"] - q["target"])):
                problems.append(f"charfn gap at t={t} is inconsistent")

    # -- constants ---------------------------------------------------------

    def _constants(self, op, out_dir, p, problems):
        A, tol = op.A, op.tol
        s = ref.sigma_p2(A)
        chat = self.chat(A)
        if not (_close(p["sigma_p2"], s, 1e-15) and _close(p["sigma_w2"], ref.sigma_w2(A), 1e-15)):
            problems.append("sigma_p2 or sigma_w2 differs from (A^2-1)/12, (A-1)/12")
        k, c_k, bound = p["k"], p["c_k"], p["fibonacci_bound"]
        if not _close(bound, ref.fibonacci_bound(k), 1e-15):
            problems.append(f"fibonacci_bound {bound} != 2/F_{k}^2")
        if bound > tol or (k > 1 and ref.fibonacci_bound(k - 1) <= tol):
            problems.append(f"depth k={k} is not the smallest meeting tol={tol}")
        if not c_k - bound <= chat <= c_k + bound:
            problems.append(f"c-hat reference {chat} outside c_k +- bound = {c_k} +- {bound}")
        if not _close(p["sigma_g2"], s / c_k):
            problems.append("sigma_g2 != sigma_p2 / c_k")
        lo, hi = p["sigma_g2_interval"]
        if not lo <= s / chat <= hi:
            problems.append(f"sigma_p2 / c-hat reference {s / chat} outside sigma_g2_interval "
                            f"[{lo}, {hi}]")
        if not (_close(lo, s / (c_k + bound)) and _close(hi, s / (c_k - bound))):
            problems.append("sigma_g2_interval does not follow from c_k and its bound")

    # -- dist --------------------------------------------------------------

    def _dist(self, op, out_dir, p, problems):
        A, N, norm = op.A, op.N, op.norm
        with open(os.path.join(out_dir, "report.json")) as fh:
            if json.load(fh) != p:
                problems.append("report.json differs from the JSON on stdout")
        table = read_table(os.path.join(out_dir, "table.csv"))
        cdf = read_cdf(os.path.join(out_dir, "cdf.csv"))
        exact = self.table(A, N)
        count = op.sample if op.sample is not None else ref.necklace_total(A, N)
        if (p["A"], p["N"], p["normalization"]) != (A, N, norm):
            problems.append("dist echoes the wrong A, N or normalization")
        if p["count"] != count:
            problems.append(f"report count {p['count']} != {count}")
        if sum(table.values()) != count:
            problems.append(f"table.csv holds {sum(table.values())} geodesics, expected {count}")
        if op.sample is None:
            if table != exact:
                cell = next(k for k in sorted(set(table) | set(exact))
                            if table.get(k) != exact.get(k))
                problems.append(f"table.csv cell {cell} = {table.get(cell)}, "
                                f"reference {exact.get(cell)}")
        else:
            self._sampled_table(A, N, table, exact, problems)
        if norm == "geom":
            self._geom(op, p, cdf, problems)
        else:
            self._lattice(op, p, table, cdf, exact, problems)
        if op.svg:
            root = ET.parse(os.path.join(out_dir, "dist.svg")).getroot()
            ns = {"s": "http://www.w3.org/2000/svg"}
            if (not root.tag.endswith("svg") or not root.findall("s:path", ns)
                    or not root.findall("s:g/s:rect", ns)):
                problems.append("dist.svg lacks the histogram or the Gaussian path")

    def _sampled_table(self, A, N, table, exact, problems):
        stray = [k for k in table if k not in exact]
        if stray:
            problems.append(f"sampled cell {min(stray)} is not in the reference support")
        draws = sum(table.values())
        total = ref.necklace_total(A, N)
        observed, expected = [], []
        o = e = 0.0
        # pool period lengths from the shortest until each bin expects >= 5
        for n in range(2, N + 1, 2):
            o += sum(c for k, c in table.items() if k[0] == n)
            e += draws * ref.necklaces_of_length(A, n) / total
            if e >= 5.0:
                observed.append(o)
                expected.append(e)
                o = e = 0.0
        if expected:
            observed[-1] += o
            expected[-1] += e
        if len(expected) > 1:
            stat = sum((a - b) ** 2 / b for a, b in zip(observed, expected))
            pval = ref.chi2_sf(stat, len(expected) - 1)
            if pval < CHI2_LEVEL:
                problems.append(f"draws per period length fail chi-squared: p = {pval:.3g}")

    def _lattice(self, op, p, table, cdf, exact, problems):
        A, N, norm = op.A, op.N, op.norm
        sigma2 = ref.sigma_w2(A) if norm == "word" else ref.sigma_p2(A)
        if not _close(p["sigma2"], sigma2, 1e-15):
            problems.append(f"sigma2 {p['sigma2']} != {sigma2}")
        values = ref.normalized_values(table, norm, N)
        k, mean, var, _ = ref.central_moments(values)
        if abs(p["mean"] - mean) > FLOAT_TOL or not _close(p["variance"], var):
            problems.append(f"mean/variance {p['mean']}, {p['variance']} disagree with "
                            f"table.csv: {mean}, {var}")
        points = ref.cdf_points(values)
        if len(cdf) != len(points):
            problems.append(f"cdf.csv has {len(cdf)} rows, table.csv gives {len(points)}")
        else:
            for (x, f, g), (rx, rf) in zip(cdf, points):
                if not _close(x, rx) or abs(f - rf) > FLOAT_TOL \
                        or abs(g - ref.gaussian_cdf(rx, sigma2)) > FLOAT_TOL:
                    problems.append(f"cdf.csv row at x={x} disagrees with table.csv")
                    break
        if abs(p["ks"] - ref.ks_of_points(points, sigma2)) > FLOAT_TOL or p["ks_error_bound"] != 0:
            problems.append("ks or ks_error_bound disagrees with table.csv")
        if op.sample is not None:
            _, true_mean, true_var, true_m4 = ref.central_moments(
                ref.normalized_values(exact, norm, N))
            se_mean = math.sqrt(true_var / k)
            se_var = math.sqrt((true_m4 - true_var**2) / k)
            if abs(mean - true_mean) > SAMPLE_SIGMAS * se_mean:
                problems.append(f"sample mean {mean} is more than {SAMPLE_SIGMAS} SE from {true_mean}")
            if abs(var - true_var) > SAMPLE_SIGMAS * se_var:
                problems.append(f"sample variance {var} is more than {SAMPLE_SIGMAS} SE "
                                f"from {true_var}")

    def _geom(self, op, p, cdf, problems):
        A, tol = op.A, op.tol
        s = ref.sigma_p2(A)
        chat = self.chat(A)
        sigma2 = p["sigma2"]
        if not s / (chat + tol) <= sigma2 <= s / (chat - tol):
            problems.append(f"geom sigma2 {sigma2} outside sigma_p2 / (c-hat +- tol) with "
                            f"c-hat reference {chat}")
        xs = [x for x, _, _ in cdf]
        fs = [f for _, f, _ in cdf]
        if any(b < a for a, b in zip(fs, fs[1:])) or fs[0] < 0:
            problems.append("cdf.csv is not monotone")
        if abs(fs[-1] - 1.0) > FLOAT_TOL:
            problems.append(f"cdf.csv ends at {fs[-1]}, not 1")
        if any(abs(g - ref.gaussian_cdf(x, sigma2)) > FLOAT_TOL for x, _, g in cdf):
            problems.append("cdf.csv F_gauss column is not the Gaussian CDF")
        if abs(p["ks"] - ref.ks_of_points(list(zip(xs, fs)), sigma2)) > FLOAT_TOL:
            problems.append("ks disagrees with cdf.csv")
        masses = [b - a for a, b in zip(fs, fs[1:])]
        bin_max = max(masses)
        tails = fs[0] + (1.0 - fs[-1])
        if abs(p["ks_error_bound"] - (bin_max + tails)) > FLOAT_TOL:
            problems.append("ks_error_bound is not the largest bin mass plus the tails")
        if not p["variance"] > 0:
            problems.append("geom variance is not positive")
        if op.sample is None:
            # psi -> -psi under an odd shift while lg is unchanged
            if abs(p["mean"]) > FLOAT_TOL:
                problems.append(f"geom mean {p['mean']} is not 0 up to rounding")
            last = len(xs) - 1
            for i in range(last + 1):
                if not _close(xs[i], -xs[last - i]):
                    problems.append("cdf.csv grid is not symmetric about 0")
                    break
                if abs(fs[i] + fs[last - i] - 1.0) > bin_max + FLOAT_TOL:
                    problems.append(f"cdf.csv is not symmetric about 0 at x={xs[i]}")
                    break
        elif abs(p["mean"]) > SAMPLE_SIGMAS * math.sqrt(p["variance"] / p["count"]):
            problems.append(f"sampled geom mean {p['mean']} is more than {SAMPLE_SIGMAS} SE from 0")
