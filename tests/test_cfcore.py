import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from modwind import cfcore
from modwind.cfcore import MatrixZ, QuadraticSurd
from modwind.invariants import fibonacci


def brute_matrix(word):
    # independent oracle: direct 2x2 integer multiplication
    a, b, c, d = 1, 0, 0, 1
    for x in word:
        a, b, c, d = a * x + b, a, c * x + d, c
    return (a, b, c, d)


words = st.lists(st.integers(1, 5), min_size=1, max_size=8).map(tuple)
even_words = st.lists(st.integers(1, 5), min_size=2, max_size=8).filter(
    lambda w: len(w) % 2 == 0
).map(tuple)


class TestFiniteEvaluation:
    def test_examples(self):
        assert cfcore.cf_eval_finite((3, 2)) == Fraction(7, 2)
        assert cfcore.cf_eval_finite((1,)) == 1
        assert cfcore.cf_eval_finite((3, 2, 3, 4)) == Fraction(103, 30)

    def test_matches_matrix_first_column(self):
        for word in itertools.product(range(1, 4), repeat=4):
            a, _, c, _ = brute_matrix(word)
            assert cfcore.cf_eval_finite(word) == Fraction(a, c)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            cfcore.cf_eval_finite(())


class TestMatrixOfWord:
    def test_examples(self):
        assert cfcore.matrix_of_word((3, 2, 3, 4)) == MatrixZ(103, 24, 30, 7)
        assert cfcore.matrix_of_word((1, 1)) == MatrixZ(2, 1, 1, 1)
        assert cfcore.matrix_of_word((5,)) == MatrixZ(5, 1, 1, 0)

    def test_against_brute_product(self):
        for n in range(1, 5):
            for word in itertools.product(range(1, 6), repeat=n):
                m = cfcore.matrix_of_word(word)
                assert (m.a, m.b, m.c, m.d) == brute_matrix(word)

    def test_determinant_parity_exhaustive(self):
        for n in range(1, 11):
            for word in itertools.product(range(1, 4), repeat=min(n, 2)):
                full = (word * n)[:n]
                assert cfcore.matrix_of_word(full).det == (-1) ** n

    @given(words)
    def test_determinant_parity(self, word):
        assert cfcore.matrix_of_word(word).det == (-1) ** len(word)


class TestFixedPoints:
    def test_worked_example(self):
        w, wp = cfcore.fixed_points(MatrixZ(103, 24, 30, 7))
        assert w == QuadraticSurd(8, 1, 84, 5)
        assert wp == QuadraticSurd(8, -1, 84, 5)

    def test_golden_ratio(self):
        w, wp = cfcore.fixed_points(MatrixZ(2, 1, 1, 1))
        assert w == QuadraticSurd(1, 1, 5, 2)
        assert wp == QuadraticSurd(1, -1, 5, 2)

    def test_errors(self):
        with pytest.raises(ValueError):
            cfcore.fixed_points(MatrixZ(2, 0, 0, 1))  # c = 0
        with pytest.raises(ValueError):
            cfcore.fixed_points(MatrixZ(1, 1, 0, 1))  # parabolic

    @given(even_words)
    @settings(max_examples=60)
    def test_defining_quadratic_in_surd_arithmetic(self, word):
        # c x^2 + (d - a) x - b = 0 at x = (p + r sqrt(D)) / q, times q^2:
        # its rational and its sqrt(D) parts vanish apart.
        m = cfcore.matrix_of_word(word)
        w, wp = cfcore.fixed_points(m)
        for root in (w, wp):
            p, r, D, q = root.p, root.r, root.D, root.q
            assert m.c * (p * p + r * r * D) + (m.d - m.a) * p * q - m.b * q * q == 0
            assert r * (2 * m.c * p + (m.d - m.a) * q) == 0

    @given(even_words)
    @settings(max_examples=60)
    def test_root_ordering(self, word):
        w, wp = cfcore.fixed_points(cfcore.matrix_of_word(word))
        assert float(w) > 1
        assert -1 < float(wp) < 0


class TestSurd:
    def test_canonical_reduction(self):
        assert QuadraticSurd(96, 1, 12096, 60) == QuadraticSurd(8, 1, 84, 5)
        assert QuadraticSurd(0, 2, 9, 4) == QuadraticSurd(3, 0, 0, 2)

    def test_denominator_sign(self):
        s = QuadraticSurd(1, 1, 5, -2)
        assert s.q == 2 and s.p == -1 and s.r == -1

    def test_float_value(self):
        assert float(QuadraticSurd(1, 1, 5, 2)) == pytest.approx(1.618033988749895)

    @given(st.integers(-50, 50), st.integers(-20, 20), st.integers(0, 200),
           st.integers(1, 12), st.integers(-30, 30).filter(bool))
    def test_radicand_square_factor(self, p, r, D, k, q):
        # r k sqrt(D) = r sqrt(D k^2): one value under two radicands
        a = QuadraticSurd(p, r * k, D, q)
        b = QuadraticSurd(p, r, D * k * k, q)
        assert a == b
        assert hash(a) == hash(b)


def periodic_value(word, precision):
    """The purely periodic continued fraction with this period: the
    larger fixed point of the word's matrix."""
    return cfcore.fixed_points(cfcore.matrix_of_word(word))[0].to_mpf(precision)


class TestPeriodicValue:
    def test_examples(self):
        assert float(periodic_value((1, 1), 128)) == pytest.approx(
            1.618033988749895, rel=1e-15
        )
        assert float(periodic_value((3, 2, 3, 4), 128)) == pytest.approx(
            3.4330302779823357, rel=1e-15
        )
        assert float(periodic_value((2, 2), 128)) == pytest.approx(
            2.414213562373095, rel=1e-15
        )

    def test_convergent_fibonacci_bound(self):
        # |x - [x]_k| <= 1/F_k^2 for periodic x and repeated-word convergents
        with mp.workprec(200):
            for word in [(1, 2), (3, 2, 3, 4), (2, 2), (5, 1)]:
                x = periodic_value(word, 192)
                repeated = word * 6
                for k in range(1, len(repeated) + 1):
                    approx = cfcore.cf_eval_finite(repeated[:k])
                    gap = abs(x - mp.mpf(approx.numerator) / approx.denominator)
                    assert gap <= mp.mpf(1) / fibonacci(k) ** 2


class TestGaussShift:
    @given(even_words)
    @settings(max_examples=40)
    def test_orbit_product_is_eigenvalue(self, word):
        # product of the Gauss-map orbit values telescopes to the eigenvalue
        n = len(word)
        with mp.workprec(160):
            prod = mp.mpf(1)
            for i in range(1, n + 1):
                prod *= periodic_value(word[i:] + word[:i], 160)
            lam = cfcore.eigenvalue_max(cfcore.matrix_of_word(word), 160)
            assert abs(prod - lam) / lam < 2 ** (-128 + n)


class TestEigenvalue:
    def test_examples(self):
        assert float(cfcore.eigenvalue_max(MatrixZ(2, 1, 1, 1))) == pytest.approx(
            2.618033988749895, rel=1e-15
        )
        assert float(cfcore.eigenvalue_max(MatrixZ(103, 24, 30, 7))) == pytest.approx(
            109.99090833947008, rel=1e-13
        )
        with pytest.raises(ValueError):
            cfcore.eigenvalue_max(MatrixZ(1, 1, 0, 1))
