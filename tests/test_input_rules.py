"""The input rules, each stated once: a word's digits and even length in
cfcore.as_word, the bounds on A and N in modwind.check_bound, the bin
count in check_bins and the c-hat tolerance in check_tolerance.  Every
entry point that takes such input raises ValueError through them, and
the command line reports the same text."""

import re

import numpy as np
import pytest

from modwind import check_bound, cli, invariants, lattice, necklace, sigma_p2, sigma_w2, stats
from modwind.cfcore import as_word

EVEN_WORD_ENTRY_POINTS = [
    necklace.is_primitive,
    necklace.canonical_even_shift,
    necklace.Necklace,
    invariants.winding,
    invariants.word_length,
    invariants.geodesic_length_logsum,
    invariants.geodesic_length_eigen,
]

# the calls with A = 1, and a valid N where one is taken
BAD_A = {
    "check_bound": lambda: check_bound(1),
    "sigma_p2": lambda: sigma_p2(1),
    "sigma_w2": lambda: sigma_w2(1),
    "count_min_period": lambda: necklace.count_min_period(1, 4),
    "count_Pn": lambda: necklace.count_Pn(1, 4),
    "pi_exact": lambda: necklace.pi_exact(1, 4),
    "enumerate_necklaces": lambda: necklace.enumerate_necklaces(1, 4),
    "ck_constant": lambda: invariants.ck_constant(1, 2),
    "JointCounts": lambda: stats.JointCounts(1, 4),
    "lattice.table": lambda: lattice.table(1, 4),
}

N_ENTRY_POINTS = [
    check_bound,
    necklace.count_Pn,
    necklace.pi_exact,
    necklace.enumerate_necklaces,
    stats.JointCounts,
    lattice.table,
]


class TestAsWord:
    def test_names_first_bad_digit(self):
        with pytest.raises(ValueError) as exc:
            as_word((2, 0, -1))
        assert str(exc.value) == "partial quotient 0 < 1"

    def test_any_iterable_of_ints(self):
        want = (3, 1, 4, 1)
        assert as_word([3, 1, 4, 1]) == want
        assert as_word(d for d in want) == want
        assert as_word(np.array(want, dtype=np.int64)) == want
        assert all(type(d) is int for d in as_word(np.array(want)))

    def test_odd_length_only_when_even(self):
        assert as_word((1, 2, 3)) == (1, 2, 3)
        with pytest.raises(ValueError):
            as_word((1, 2, 3), even=True)

    @pytest.mark.parametrize("word", [(1, 2, 3), (1, 0)])
    @pytest.mark.parametrize("entry", EVEN_WORD_ENTRY_POINTS,
                             ids=lambda f: f.__name__)
    def test_even_word_entry_points_reject(self, entry, word):
        with pytest.raises(ValueError):
            entry(word)


class TestCheckBound:
    def test_accepts(self):
        check_bound(2)
        check_bound(2, 2)
        check_bound(9, 14)

    @pytest.mark.parametrize("call", BAD_A.values(), ids=BAD_A)
    def test_rejects_a_of_one(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("N", [0, 3])
    @pytest.mark.parametrize("entry", N_ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_rejects_bad_n(self, entry, N):
        with pytest.raises(ValueError):
            entry(2, N)


# Each numeric option, in a call that is valid without it, and the type
# argparse names when the option's value is not a number.
NUMERIC_OPTIONS = {
    "--A": (["count", "--N", "4"], "int"),
    "--N": (["count", "--A", "3"], "int"),
    "--bins": (["dist", "--A", "3", "--N", "4", "--norm", "period"], "int"),
    "--threads": (["count", "--A", "3", "--N", "4"], "int"),
    "--sample": (["dist", "--A", "3", "--N", "4", "--norm", "period"], "int"),
    "--seed": (["dist", "--A", "3", "--N", "4", "--norm", "period"], "int"),
    "--tol": (["constants", "--A", "3"], "float"),
    "--t": (["charfn", "--A", "3", "--N", "4"], "float"),
}


def usage_error(capsys, argv):
    """The one error line of a call that exits 2 at argument parsing."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(lines) == 1
    return lines[0]


class TestCliRules:
    @pytest.mark.parametrize("option", NUMERIC_OPTIONS)
    def test_not_a_number(self, capsys, option):
        argv, kind = NUMERIC_OPTIONS[option]
        line = usage_error(capsys, [*argv, option, "abc"])
        assert line.endswith(f"error: argument {option}: invalid {kind} value: 'abc'")
        assert not re.search(r"\b_", line), line  # no private name

    @pytest.mark.parametrize("argv, call", [
        (["dist", "--A", "3", "--N", "4", "--norm", "period", "--bins", "1"],
         lambda: stats.JointCounts(2, 4, bins=1)),
        (["constants", "--A", "3", "--tol", "0"], lambda: invariants.chat_estimate(5, 0.0)),
    ], ids=["bins", "tol"])
    def test_same_rule_as_the_library(self, capsys, argv, call):
        with pytest.raises(ValueError) as exc:
            call()
        assert usage_error(capsys, argv).endswith(f"argument {argv[-2]}: {exc.value}")
