import itertools
import random

import pytest

from modwind import necklace
from modwind.necklace import (
    Necklace,
    canonical_even_shift,
    count_Pn,
    count_min_period,
    enumerate_necklaces,
    is_primitive,
    minimal_period,
    mobius,
    pi_asymptotic,
    pi_exact,
)


def all_words(A, n):
    return itertools.product(range(1, A + 1), repeat=n)


def brute_classes(A, n):
    # independent oracle: classify every word into even-shift classes
    return {
        canonical_even_shift(w)
        for w in all_words(A, n)
        if is_primitive(w)
    }


class TestMinimalPeriod:
    def test_examples(self):
        assert minimal_period((1, 2, 1, 2)) == 2
        assert minimal_period((3, 2, 3, 4)) == 4
        assert minimal_period((2, 2, 2, 2, 2, 2)) == 1

    def test_divides_length(self):
        for n in range(1, 9):
            for w in all_words(2, n):
                assert n % minimal_period(w) == 0

    def test_matches_index_scan(self):
        # the definition: the least divisor d of n with word[i] == word[i % d]
        def scan(w):
            n = len(w)
            return next(d for d in range(1, n + 1)
                        if n % d == 0 and all(w[i] == w[i % d] for i in range(n)))

        for A, n_max in ((2, 12), (3, 8), (4, 6)):
            for n in range(1, n_max + 1):
                for w in all_words(A, n):
                    assert minimal_period(w) == scan(w)


class TestPrimitivity:
    def test_examples(self):
        assert is_primitive((1, 1))
        assert is_primitive((2, 2))
        assert not is_primitive((1, 2, 1, 2))
        # n = 6, mp = 2: n/2 = 3 is odd but mp != 3, so not primitive
        assert not is_primitive((1, 2, 1, 2, 1, 2))
        # n = 6, mp = 3 = n/2 odd: primitive by the exception
        assert is_primitive((1, 1, 2, 1, 1, 2))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            is_primitive((1, 2, 3))


class TestCanonicalShift:
    def test_examples(self):
        assert canonical_even_shift((2, 1, 1, 1)) == (1, 1, 2, 1)
        assert canonical_even_shift((1, 1, 1, 1)) == (1, 1, 1, 1)
        assert canonical_even_shift((1, 2)) == (1, 2)
        assert canonical_even_shift((2, 1)) == (2, 1)

    def test_idempotent_and_equivalent(self):
        for w in all_words(3, 6):
            c = canonical_even_shift(w)
            assert canonical_even_shift(c) == c
            rotations = {w[s:] + w[:s] for s in range(0, 6, 2)}
            assert c in rotations
            assert c == min(rotations)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            canonical_even_shift((1, 2, 3))


class TestMobius:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(6) == 1

    def test_small_values(self):
        expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
        assert [mobius(k) for k in range(1, 17)] == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobius(0)


class TestCounts:
    def test_divisors_match_brute_force(self):
        for n in range(1, 3000):
            assert necklace._divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_count_min_period_examples(self):
        assert count_min_period(2, 4) == 12
        assert count_min_period(2, 1) == 2
        assert count_min_period(2, 2) == 2
        with pytest.raises(ValueError):
            count_min_period(1, 3)

    def test_count_min_period_brute(self):
        for A in (2, 3):
            for n in range(1, 9):
                brute = sum(1 for w in all_words(A, n) if minimal_period(w) == n)
                assert count_min_period(A, n) == brute

    def test_divisor_sum_identity(self):
        for A in range(2, 6):
            for n in range(1, 15):
                total = sum(
                    count_min_period(A, d) for d in range(1, n + 1) if n % d == 0
                )
                assert total == A**n

    def test_nonprimitive_error_bound(self):
        for A in range(2, 6):
            for n in range(2, 15):
                assert abs(count_min_period(A, n) - A**n) <= A ** (n // 2 + 1)

    def test_count_Pn_examples(self):
        assert count_Pn(2, 2) == 4
        assert count_Pn(2, 4) == 6
        assert count_Pn(5, 2) == 25
        with pytest.raises(ValueError):
            count_Pn(2, 3)

    def test_count_Pn_brute(self):
        for A in (2, 3):
            for n in (2, 4, 6, 8):
                classes = brute_classes(A, n)
                assert count_Pn(A, n) == len(classes)
                prim = sum(1 for w in all_words(A, n) if is_primitive(w))
                assert len(classes) * (n // 2) == prim

    def test_count_Pn_matches_word_classes(self):
        # |P_n| from the word classes: minimal-period-n words, plus the
        # doubled words of minimal period n/2 when n/2 is odd, n/2 to a class.
        for A in range(2, 8):
            for n in range(2, 23, 2):
                half = n // 2
                doubled = count_min_period(A, half) if half % 2 else 0
                assert count_Pn(A, n) * n == 2 * (count_min_period(A, n) + doubled)

    def test_pi_exact(self):
        assert pi_exact(2, 2) == 4
        assert pi_exact(2, 4) == 10
        assert pi_exact(5, 12) == 42_743_545

    def test_pi_asymptotic(self):
        rep = pi_asymptotic(5, 12)
        assert rep.exact == 42_743_545
        assert rep.asymptotic == pytest.approx(42_385_525.17, abs=1.0)
        assert rep.relative_error == pytest.approx(0.0084, abs=5e-4)
        small = pi_asymptotic(2, 2)
        assert small.asymptotic == pytest.approx(16 / 3)
        assert pi_asymptotic(5, 2).asymptotic == pytest.approx(625 / 24)


class TestEnumerate:
    def test_counts_match(self):
        assert len(enumerate_necklaces(2, 2)) == 4
        assert len(enumerate_necklaces(2, 4)) == 10
        assert len(enumerate_necklaces(3, 8)) == pi_exact(3, 8)

    def test_matches_brute_classification(self):
        for A in (2, 3):
            for N in (4, 6, 8):
                got = {nk.rep for nk in enumerate_necklaces(A, N)}
                want = set()
                for n in range(2, N + 1, 2):
                    want |= brute_classes(A, n)
                assert got == want

    def test_list_matches_filtered_scan(self):
        for A, N in ((2, 12), (3, 8), (4, 6)):
            want = [Necklace(w)
                    for n in range(2, N + 1, 2) for w in all_words(A, n)
                    if is_primitive(w) and w == canonical_even_shift(w)]
            assert enumerate_necklaces(A, N) == want


class TestSampling:
    def test_support_and_determinism(self):
        nk = necklace.sample_uniform_rng(2, 2, random.Random(7))
        assert nk.rep in {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert necklace.sample_uniform_rng(2, 2, random.Random(7)) == nk
        assert necklace.sample_uniform_rng(5, 6, random.Random(1)).n == 6

    def test_frequencies_uniform(self):
        # 6 necklaces at A=2, n=4; each within 5 sigma of 1/6
        draws = 120_000
        counts = {}
        rng = random.Random(12345)
        for _ in range(draws):
            nk = necklace.sample_uniform_rng(2, 4, rng)
            counts[nk.rep] = counts.get(nk.rep, 0) + 1
        assert len(counts) == 6
        p = 1 / 6
        sigma = (draws * p * (1 - p)) ** 0.5
        for c in counts.values():
            assert abs(c - draws * p) < 5 * sigma


class TestNecklaceType:
    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            Necklace((2, 1, 1, 1))

    def test_rejects_nonprimitive(self):
        with pytest.raises(ValueError):
            Necklace((1, 2, 1, 2))
