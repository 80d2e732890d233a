"""Tests for the exact rendering of rationals in CSV cells and manifests."""

import random
import sys
from fractions import Fraction

import pytest

from sqcount.serialize import frac_str


@pytest.fixture
def no_int_digit_limit():
    # str() is the reference, and it refuses ints past the limit
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.usefixtures("no_int_digit_limit")
def test_long_ints_render_like_str():
    rng = random.Random(7)
    ints = [rng.getrandbits(rng.randrange(bits + 1))
            for bits in (64, 5000, 20_000, 100_000, 300_000) for _ in range(3)]
    ints += [10**k + e for k in (1000, 1233, 1234, 4300, 20_000, 81_100)
             for e in (-1, 0, 1)]
    for n in ints:
        assert frac_str(n) == str(n)
        assert frac_str(-n) == str(-n)
    x = Fraction(-ints[-1], 7 * ints[-4])
    assert frac_str(x) == str(x)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int -> str digit limit before Python 3.11")
def test_long_ints_render_under_the_default_digit_limit():
    # library use, outside cli.main, keeps Python's default limit
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        # 23,857 and 12,042 digits, past the 4300-digit default
        x = Fraction(3**50_000 + 2, 2**40_000)
        value = frac_str(x)
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(before)
    sys.set_int_max_str_digits(0)
    try:
        assert value == str(x)
    finally:
        sys.set_int_max_str_digits(before)
