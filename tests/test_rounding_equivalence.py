"""`IntervalReal.round_sig` against the code it replaced.

`round_down`, `round_up` and `round_sig` are that code, kept verbatim (`round_sig` as a
function of the interval): it read each endpoint as a normalized Fraction, through a
general gcd, and rounded each end through two more Fractions.  The new `round_sig`,
which reads lowest terms through `_grid_gcd`, must give the same endpoints on every
interval, and `_grid_gcd` must be `math.gcd`.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import intervals, transcend
from gpade.intervals import IntervalReal, _decimal_digits, _grid_gcd


def round_down(f: Fraction, digits: int) -> Fraction:
    """Largest multiple of 10^-digits that is <= f."""
    scale = 10 ** digits
    return Fraction(f.numerator * scale // f.denominator, scale)

def round_up(f: Fraction, digits: int) -> Fraction:
    scale = 10 ** digits
    return Fraction(-((-f.numerator) * scale // f.denominator), scale)


def round_sig(self: IntervalReal, sig: int) -> IntervalReal:
    """Outward round keeping ~sig significant decimal digits.  The magnitude is read
    from each endpoint in lowest terms: an unreduced pair's can be one off."""
    def places(f: Fraction) -> int:
        return max(0, sig - _decimal_digits(f.numerator) + _decimal_digits(f.denominator))
    lo, hi = self.lo, self.hi
    return IntervalReal(round_down(lo, places(lo)), round_up(hi, places(hi)))


# decimal grids, their products (2^i 5^j) and arbitrary denominators
denominators = st.one_of(
    st.integers(0, 120).map(lambda k: 10 ** k),
    st.builds(lambda i, j: 2 ** i * 5 ** j, st.integers(0, 150), st.integers(0, 150)),
    st.integers(1, 10 ** 60))
# either sign, zero, and numerators carrying many factors of 5 (and of 2)
numerators = st.one_of(
    st.just(0),
    st.integers(-10 ** 80, 10 ** 80),
    st.builds(lambda x, k, i: x * 5 ** k * 2 ** i,
              st.integers(-10 ** 20, 10 ** 20), st.integers(0, 160), st.integers(0, 40)))


@st.composite
def unreduced_intervals(draw):
    a, b = sorted((draw(numerators), draw(numerators)))
    return IntervalReal._of(a, b, draw(denominators))


@given(unreduced_intervals(), st.integers(0, 80))
@example(IntervalReal._of(1, 5000, 1000), 3)                       # places 6 and 3 differ
@example(IntervalReal._of(-7 * 5 ** 40, 5 ** 40, 10 ** 40), 5)     # v5(n) = j: a gcd of 5^40
@example(-IntervalReal._of(2 * 5 ** 39, 3 * 5 ** 39, 10 ** 40), 8)
@example(IntervalReal._of(0, 0, 10 ** 30), 4)
@example(IntervalReal._of(0, 3, 7), 0)
@settings(max_examples=400, deadline=None)
def test_round_sig_equals_the_replaced_code(iv, sig):
    got, want = iv.round_sig(sig), round_sig(iv, sig)
    assert (got.lo, got.hi) == (want.lo, want.hi)
    for n in (iv._lo, iv._hi):
        assert _grid_gcd(n, iv._den) == math.gcd(n, iv._den)


@given(numerators, denominators)
@example(5 ** 7 * 2 ** 3, 10 ** 7)           # v5(n) = j: the count must reach j
@example(5 ** 8 * 3, 10 ** 7)                # v5(n) > j: the count stops at j
@example(5 ** 6 * 2 ** 9, 2 ** 4 * 5 ** 7)   # v5(n) = j - 1, v2(n) > i
@example(-(5 ** 3), 5 ** 3)
@example(0, 10 ** 9)
@example(12, 1)
@settings(max_examples=400, deadline=None)
def test_grid_gcd_is_math_gcd(n, den):
    assert _grid_gcd(n, den) == math.gcd(n, den)


def test_exp_chain_runs_no_big_gcd(monkeypatch):
    """exp's e^n chain rounds on decimal grids only, so no gcd sees an argument
    above 10^100: neither math.gcd, which `Fraction` calls, nor intervals.gcd."""
    big, bound = [], 10 ** 100

    def counting(gcd):
        def counted(*args):
            if any(abs(a) > bound for a in args):
                big.append(args)
            return gcd(*args)
        return counted

    monkeypatch.setattr(math, "gcd", counting(math.gcd))
    monkeypatch.setattr(intervals, "gcd", counting(intervals.gcd))
    transcend._e_power.cache_clear()
    transcend._e_enclosure.cache_clear()
    transcend.exp_frac(Fraction(5587, 599), 1910)
    assert not big
