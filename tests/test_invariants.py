import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from modwind import GEOM, cfcore, invariants, necklace, sigma_p2, sigma_w2
from modwind.cfcore import MatrixZ, fixed_points, matrix_of_word
from modwind.errors import BudgetError
from modwind.invariants import (
    build_record,
    chat_estimate,
    chat_two_tail,
    ck_constant,
    fibonacci,
    two_tail_bounds,
    geodesic_length_eigen,
    geodesic_length_logsum,
    length_gap,
    winding,
    word_length,
)


class TestWinding:
    def test_examples(self):
        assert winding((3, 2, 3, 4)) == 0
        assert winding((7, 7)) == 0
        assert winding((5, 1)) == 4

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            winding((1, 2, 3))

    def test_matches_alternating_sum(self):
        for w in itertools.product(range(1, 5), repeat=8):
            assert winding(w) == sum(a if i % 2 == 0 else -a for i, a in enumerate(w))

    def test_even_shift_invariance_exhaustive(self):
        for w in itertools.product(range(1, 4), repeat=6):
            for s in range(0, 6, 2):
                shifted = w[s:] + w[:s]
                assert winding(shifted) == winding(w)
                assert word_length(shifted) == word_length(w)

    def test_bound_attained(self):
        for A in (2, 3, 5):
            for n in (2, 4, 6):
                w = ((A, 1) * (n // 2))[:n]
                assert winding(w) == (A - 1) * n // 2
                for v in itertools.product(range(1, A + 1), repeat=2):
                    assert abs(winding(v)) <= (A - 1)

    def test_symmetry_over_all_words(self):
        for A, n in ((2, 6), (3, 4)):
            counts = {}
            for w in itertools.product(range(1, A + 1), repeat=n):
                counts[winding(w)] = counts.get(winding(w), 0) + 1
            for m, c in counts.items():
                assert counts[-m] == c


class TestWordLength:
    def test_examples(self):
        assert word_length((3, 2, 3, 4)) == 24
        assert word_length((1, 1)) == 4
        assert word_length((5, 5, 5, 5)) == 40


class TestGeodesicLength:
    def test_logsum_examples(self):
        assert geodesic_length_logsum((1, 1)) == pytest.approx(
            4 * math.log((1 + math.sqrt(5)) / 2), rel=1e-12
        )
        assert geodesic_length_logsum((3, 2, 3, 4)) == pytest.approx(
            2 * math.log((110 + math.sqrt(12096)) / 2), rel=1e-12
        )
        assert geodesic_length_logsum((2, 2)) == pytest.approx(
            4 * math.log(1 + math.sqrt(2)), rel=1e-12
        )

    def test_eigen_examples(self):
        assert geodesic_length_eigen((1, 1)) == pytest.approx(
            2 * math.log((3 + math.sqrt(5)) / 2), rel=1e-12
        )
        assert geodesic_length_eigen((1, 2)) == pytest.approx(
            2 * math.log(2 + math.sqrt(3)), rel=1e-12
        )

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            geodesic_length_logsum((2,))
        with pytest.raises(ValueError):
            geodesic_length_eigen((2,))

    def test_dual_route_agreement_small(self):
        for A, n_max in ((2, 6), (3, 6)):
            for n in range(2, n_max + 1, 2):
                for nk in necklace.enumerate_necklaces(A, n):
                    if nk.n != n:
                        continue
                    a = geodesic_length_logsum(nk.rep)
                    b = geodesic_length_eigen(nk.rep)
                    assert abs(a - b) / b < 1e-9

    def test_length_gap(self):
        word = (3, 2, 3, 4)
        eigen = geodesic_length_eigen(word)
        assert length_gap(word, eigen) == 0.0
        assert length_gap(word, geodesic_length_logsum(word)) < 1e-9
        off = eigen * (1 + 2e-9)
        assert length_gap(word, off) >= invariants.DUAL_LENGTH_TOL
        # the largest gap of several lengths
        assert length_gap(word, eigen, off, eigen) == length_gap(word, off)

    @staticmethod
    def _logsum_by_surds(word):
        """The log-sum through fixed_points: the larger fixed point of each
        rotation's matrix_of_word, an exact QuadraticSurd, evaluated at
        cfcore.PRECISION."""
        with mp.workprec(cfcore.PRECISION + 16):
            total = mp.mpf(0)
            sqrt_disc = None
            for j in range(1, len(word) + 1):
                w, _ = fixed_points(matrix_of_word(word[j:] + word[:j]))
                if sqrt_disc is None:
                    sqrt_disc = mp.sqrt(w.D)
                total += mp.log((w.p + w.r * sqrt_disc) / w.q)
            return float(2 * total)

    def test_logsum_matches_surd_route(self):
        words = [nk.rep for nk in necklace.enumerate_necklaces(3, 8)]
        rng = random.Random(25)
        for _ in range(300):
            n = 2 * rng.randint(1, 40)
            words.append(tuple(rng.randint(1, 9) for _ in range(n)))
        for word in words:
            assert geodesic_length_logsum(word) == self._logsum_by_surds(word), word

    def test_precision_read_when_called(self, monkeypatch):
        word = (3, 2, 3, 4)
        full = geodesic_length_eigen(word), geodesic_length_logsum(word)
        monkeypatch.setattr(cfcore, "PRECISION", 8)
        coarse = geodesic_length_eigen(word), geodesic_length_logsum(word)
        for a, b in zip(full, coarse):
            assert abs(a - b) / a > 1e-9

    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=24))
    def test_matrix_of_word_is_product_of_digit_matrices(self, word):
        expected = MatrixZ(1, 0, 0, 1)
        for a in word:
            expected = expected @ MatrixZ(a, 1, 1, 0)
        assert matrix_of_word(word) == expected

    def test_even_shift_invariance_sampled(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.choice([2, 4, 6, 8])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            base = geodesic_length_logsum(w)
            for s in range(2, n, 2):
                shifted = w[s:] + w[:s]
                assert abs(geodesic_length_logsum(shifted) - base) / base < 1e-10


class TestBuildRecord:
    def test_examples(self):
        r = build_record(necklace.Necklace((3, 2, 3, 4)), cross_check=True)
        assert (r.psi, r.lp, r.lw) == (0, 4, 24)
        assert r.lg == pytest.approx(9.400795421834466, rel=1e-12)
        r = build_record(necklace.Necklace((1, 1)), cross_check=True)
        assert (r.psi, r.lp, r.lw) == (0, 2, 4)
        assert r.lg == pytest.approx(1.9248473002384139, rel=1e-12)
        r = build_record(necklace.Necklace((1, 2)), cross_check=True)
        assert (r.psi, r.lp, r.lw) == (-1, 2, 6)
        assert r.lg == pytest.approx(2 * math.log(2 + math.sqrt(3)), rel=1e-12)

    def test_cross_check_names_word_and_gap(self, monkeypatch):
        monkeypatch.setattr(invariants, "geodesic_length_logsum", lambda word: 1.0)
        with pytest.raises(AssertionError, match=r"\(1, 2\): relative gap 6\.2"):
            build_record(necklace.Necklace((1, 2)), cross_check=True)


class TestVarianceConstants:
    def test_sigma_p2(self):
        assert sigma_p2(5) == 2
        assert sigma_p2(2) == Fraction(1, 4)
        with pytest.raises(ValueError):
            sigma_p2(1)

    def test_sigma_w2(self):
        assert sigma_w2(5) == Fraction(1, 3)
        assert sigma_w2(2) == Fraction(1, 12)
        assert sigma_w2(13) == 1

    def test_moment_identity_small(self):
        # sum psi = 0 and sum psi^2 = A^n * n * (A^2-1)/12 over all words
        for A, n in ((2, 4), (3, 4), (2, 6)):
            s1 = s2 = 0
            for w in itertools.product(range(1, A + 1), repeat=n):
                psi = winding(w)
                s1 += psi
                s2 += psi * psi
            assert s1 == 0
            assert Fraction(s2) == Fraction(A**n * n * (A * A - 1), 12)


class TestFibonacci:
    def test_values(self):
        assert [fibonacci(k) for k in range(1, 11)] == [
            1, 1, 2, 3, 5, 8, 13, 21, 34, 55,
        ]


def _ck_continuants(A, k, budget=invariants.WORD_BUDGET, tail=None):
    """Per-word c_k: the exact int64 continuants of every word, in chunks,
    and one log per word."""
    if A <= 1:
        raise ValueError("A must exceed 1")
    if k < 1:
        raise ValueError("truncation depth must be positive")
    total = A**k
    if total > budget:
        raise BudgetError(f"A^k = {total} exceeds word budget {budget}")
    chunk = 1 << 22
    partials = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        size = idx.size
        h, h_prev = np.ones(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
        q, q_prev = np.zeros(size, dtype=np.int64), np.ones(size, dtype=np.int64)
        for i in range(k):
            digit = (idx // A ** (k - 1 - i)) % A + 1
            h, h_prev = digit * h + h_prev, h
            q, q_prev = digit * q + q_prev, q
        if tail is None:
            logs = np.log(h.astype(np.float64)) - np.log(q.astype(np.float64))
        else:
            logs = np.log((h * tail + h_prev) / (q * tail + q_prev))
        partials.append(float(np.sum(logs)))
    return 2.0 * math.fsum(partials) / total


class TestCkConstant:
    def test_examples(self):
        assert ck_constant(2, 1) == pytest.approx(math.log(2), rel=1e-14)
        assert ck_constant(5, 1) == pytest.approx(0.4 * math.log(120), rel=1e-14)
        # direct-formula oracle over [2]^2: values 2, 3/2, 3, 5/2
        expected = 0.5 * sum(math.log(v) for v in (2, 1.5, 3, 2.5))
        assert expected == pytest.approx(1.5567576546051873, rel=1e-14)
        assert ck_constant(2, 2) == pytest.approx(expected, rel=1e-13)

    def test_against_scalar_oracle(self):
        from modwind.cfcore import cf_eval_finite

        for A, k in ((2, 5), (3, 4), (5, 3)):
            brute = 2 * math.fsum(
                math.log(cf_eval_finite(w))
                for w in itertools.product(range(1, A + 1), repeat=k)
            ) / A**k
            assert ck_constant(A, k) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("A, k", [
        *((A, k) for A in range(2, 7) for k in range(1, 9)),
        (5, 10),
    ])
    def test_against_continuant_oracle(self, A, k):
        # A^k <= 2^20 evaluates the suffix table alone; (6, 8) and (5, 10)
        # also need prefixes.
        assert ck_constant(A, k) == pytest.approx(_ck_continuants(A, k), rel=1e-13)

    def test_alphabet_beyond_table(self):
        # A > 2^20 takes the last digit in blocks; c_1 = 2 log(A!) / A.
        A = (1 << 20) + 5
        assert ck_constant(A, 1) == pytest.approx(2 * math.lgamma(A + 1) / A, rel=1e-13)
        # With a tail t, c_1 = (2 / A) sum of log(a + 1/t).
        exact = 2 * math.fsum(np.log(np.arange(1, A + 1) + 0.5).tolist()) / A
        assert ck_constant(A, 1, tail=2.0) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("table, block, bits", [(8, 64, 9), (40, 7, 9), (3, 2, 3)])
    @pytest.mark.parametrize("A, k", [(2, 9), (5, 4), (7, 3)])
    @pytest.mark.parametrize("tail", [None, 1.25, 4.0])
    def test_ragged_blocks_and_groups(self, table, block, bits, A, k, tail, monkeypatch):
        # Small tables, blocks and products, so that the words split
        # unevenly: the last table (A > table), the last block of a
        # table and the last group of prefixes are short, and a step of
        # several prefixes (block > table) ends early.
        monkeypatch.setattr(invariants, "_TABLE", table)
        monkeypatch.setattr(invariants, "_BLOCK", block)
        monkeypatch.setattr(invariants, "_PRODUCT_BITS", bits)
        assert ck_constant(A, k, tail=tail) == pytest.approx(
            _ck_continuants(A, k, tail=tail), rel=1e-13)

    def test_budget(self, monkeypatch):
        with pytest.raises(BudgetError):
            ck_constant(5, 30)
        for A, k in ((2, 21), (5, 9), (7, 3)):
            monkeypatch.setattr(invariants, "WORD_BUDGET", A**k)
            assert ck_constant(A, k) == pytest.approx(_ck_continuants(A, k), rel=1e-13)
            monkeypatch.setattr(invariants, "WORD_BUDGET", A**k - 1)
            with pytest.raises(BudgetError):
                ck_constant(A, k)

    def test_budget_refusal_writes_the_power(self):
        # (10^7)^721 has 5048 digits, past int-to-str's default 4300.
        with pytest.raises(BudgetError, match=r"^10000000\^721 words exceed"):
            ck_constant(10**7, 721)


class TestChatEstimate:
    def test_cauchy_property(self):
        cks = {k: ck_constant(2, k) for k in range(1, 11)}
        for k in range(1, 11):
            for j in range(k + 1, 11):
                assert abs(cks[k] - cks[j]) <= 2 / fibonacci(k) ** 2

    def test_depth_selection(self):
        # 2/F_k^2 <= 1e-3 first holds at k = 10 (F_10 = 55)
        est = chat_estimate(2, 1e-3)
        assert est.k == 10
        assert est.error_bound == pytest.approx(2 / 3025)
        lo, hi = est.chat_interval
        assert lo < est.c_k < hi
        assert est.sigma_g2_interval[0] < est.sigma_g2 < est.sigma_g2_interval[1]

    def test_tolerance_self_consistency(self):
        est = chat_estimate(2, 1.0)
        later = ck_constant(2, est.k + 3)
        assert abs(est.c_k - later) <= est.error_bound

    def test_budget_carries_best(self, monkeypatch):
        monkeypatch.setattr(invariants, "WORD_BUDGET", 10**4)
        with pytest.raises(BudgetError) as exc:
            chat_estimate(5, 1e-9)
        best = exc.value.best
        assert best is not None and best.A == 5
        assert 5**best.k <= 10**4


def _tail_sum_mp(A, k, tail):
    """(2 / A^k) sum over [A]^k of log [a_1; ..., a_k, tail], at 50 digits."""
    from mpmath import mp

    with mp.workdps(50):
        total = mp.mpf(0)
        for word in itertools.product(range(1, A + 1), repeat=k):
            h, h_prev, q, q_prev = 1, 0, 0, 1
            for a in word:
                h, h_prev = a * h + h_prev, h
                q, q_prev = a * q + q_prev, q
            total += mp.log((h * tail + h_prev) / (q * tail + q_prev))
        return 2 * total / A**k


class TestChatTwoTail:
    @pytest.mark.parametrize("A, k", [(5, 5), (6, 5), (10, 4), (30, 3)])
    def test_depth_at_default_tolerance(self, A, k):
        assert chat_two_tail(A).k == k

    @pytest.mark.parametrize("A", [2, 3, 5, 6, 10, 30])
    @pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-6])
    def test_width_and_minimal_depth(self, A, tol, monkeypatch):
        monkeypatch.setattr(invariants, "TWO_TAIL_WIDTH", tol)
        est = chat_two_tail(A)
        lo, hi = est.chat_interval
        assert 2 * est.error_bound <= tol
        assert lo < est.c_k < hi
        assert est.sigma_g2_interval[0] < est.sigma_g2 < est.sigma_g2_interval[1]
        if est.k > 1:
            lo, hi = two_tail_bounds(A, est.k - 1)
            assert hi - lo > tol

    def test_interval_contains_its_bounds(self, monkeypatch):
        for A, tol in ((2, 1e-3), (5, 1e-3), (7, 1e-5)):
            monkeypatch.setattr(invariants, "TWO_TAIL_WIDTH", tol)
            est = chat_two_tail(A)
            lo, hi = two_tail_bounds(A, est.k)
            assert est.chat_interval[0] <= lo and hi <= est.chat_interval[1]

    def test_inside_fibonacci_interval(self):
        est = chat_two_tail(5)
        assert est.k == 5
        c10, bound = ck_constant(5, 10), 2 / fibonacci(10) ** 2
        lo, hi = est.chat_interval
        assert c10 - bound < lo < hi < c10 + bound

    @pytest.mark.parametrize("A", [2, 5, 6, 10])
    def test_dist_sigma_is_midpoint(self, A):
        # dist's geom target is sigma_p^2 over the midpoint of the first
        # two-tail interval at most 1e-3 wide, bit for bit.
        from modwind.cli import NORM_SIGMA

        k = 1
        while (bounds := two_tail_bounds(A, k))[1] - bounds[0] > 1e-3:
            k += 1
        lo, hi = bounds
        assert NORM_SIGMA[GEOM](A) == float(sigma_p2(A)) / (0.5 * (lo + hi))

    @pytest.mark.parametrize("A, k", [(2, 8), (5, 4), (6, 3)])
    def test_padded_bounds_contain_exact_tail_sums(self, A, k):
        from mpmath import mp

        lo, hi = two_tail_bounds(A, k)
        ends = [_tail_sum_mp(A, k, tail) for tail in (1 + mp.mpf(1) / (A + 1), mp.mpf(A + 1))]
        assert lo <= min(ends) and max(ends) <= hi
        # the pad covers float rounding only
        assert min(ends) - lo < 1e-8 and hi - max(ends) < 1e-8

    def test_budget_stops_before_the_next_depth(self, monkeypatch):
        real, depths = invariants.ck_constant, []

        def recording(A, k, tail=None):
            depths.append(k)
            return real(A, k, tail)

        monkeypatch.setattr(invariants, "ck_constant", recording)
        monkeypatch.setattr(invariants, "WORD_BUDGET", 10**4)
        monkeypatch.setattr(invariants, "TWO_TAIL_WIDTH", 1e-9)
        with pytest.raises(BudgetError) as exc:
            chat_two_tail(5)
        assert exc.value.best is None
        assert max(depths) == 5  # 5^5 <= 10^4 < 5^6: nothing past the budget
        monkeypatch.setattr(invariants, "TWO_TAIL_WIDTH", 1.0)
        with pytest.raises(BudgetError):
            chat_two_tail(10**4 + 1)
