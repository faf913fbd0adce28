"""Output checks, run after the timed phase, and digests of the outputs.

`certified` asks whether gpade itself certified an output.  `check` then tests
the output independently:

- suite: the report is byte-identical to the frozen report in data/;
- shapes: every order condition of Q_k F_j - P_{j,k}, the nonvanishing index
  and xi are recomputed here with exact rationals, from this file's own series
  coefficients and denominators;
- deep: every enclosure contains the mpmath value at extra precision, and
  every digit string matches it.  mpmath is imported here only.

`digest_item` gives the bytes behind the run digest, so that two commits can
be compared bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

GOLDEN_SUITE = Path(__file__).resolve().parent / "data" / "suite_report.txt"

# (N, d, e-exponent of the growth constant D = e^g) of the systems used here;
# for all three, C = 1 and the denominator polynomial has height 1
SYSTEM_PARAMS = {"log1m": (1, 1, 1), "polylog2": (2, 2, 2), "polylog3": (3, 2, 3)}


# -- certification as gpade reports it ---------------------------------------

def certified(spec: tuple, out) -> bool:
    kind = spec[0]
    if kind == "suite":
        return out[0] == 0
    if kind == "digits":
        return out.certified_len == spec[-1]
    if kind in ("log", "exp"):
        return True  # enclosures carry no flag; containment is checked below
    if kind == "constants":
        return not out.c4_discrepancy
    p, h = spec[1], spec[3]
    approx, fam, zero, xi = out
    return (approx.Q.is_integral() and approx.denominator_cleared and approx.siegel_ok
            and min(approx.order_certificates) >= p + h + 1
            and all(c.degree_ok and c.Q_integral and c.P_cleared
                    and all(v >= t for v, t in zip(c.order_verified, c.order_targets))
                    for c in fam.certs)
            and zero.nonzero and zero.degree_ok and zero.vanish_order >= zero.required_vanish
            and xi.divisible_by_bm)


# -- independent checks -------------------------------------------------------

def check(spec: tuple, out) -> str | None:
    """None when the output is right, else a one-line reason."""
    kind = spec[0]
    if kind == "suite":
        return None if out[1] == GOLDEN_SUITE.read_text() else "suite report differs from frozen copy"
    if kind == "digits":
        return _check_digits(spec, out)
    if kind in ("log", "exp"):
        return _check_elementary(spec, out)
    if kind == "constants":
        return _check_constants(spec, out)
    return _check_shape(spec, out)


def _coefficient(name: str, j: int, n: int) -> Fraction:
    if n == 0:
        return Fraction(0)
    if name == "log1m":
        return Fraction(-1, n)
    return Fraction(1, n ** j)


@lru_cache(maxsize=None)
def _denominator(name: str, n: int) -> int:
    lcm = math.lcm(*range(1, n + 1)) if n else 1
    return lcm if name == "log1m" else lcm ** int(name[-1])


def _eval(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _order_ok(name: str, j: int, Q: tuple, P: tuple, target: int) -> bool:
    """Coefficients of z^0 .. z^(target-1) in Q F_j - P all vanish."""
    for n in range(target):
        acc = sum((Q[i] * _coefficient(name, j, n - i) for i in range(min(n, len(Q) - 1) + 1)),
                  Fraction(0))
        if n < len(P):
            acc -= P[n]
        if acc:
            return False
    return True


def _check_shape(spec: tuple, out) -> str | None:
    name, p, q, h, a, b, B, m, n, j = spec
    N, d, _ = SYSTEM_PARAMS[name]
    approx, fam, _, xi = out
    Q0 = approx.Q.coeffs
    if not Q0 or len(Q0) > q + 1 or any(c.denominator != 1 for c in Q0):
        return "Q is not a nonzero integer polynomial of degree <= q"
    if [int(c) for c in Q0] + [0] * (q + 1 - len(Q0)) != list(approx.kernel_vector):
        return "Q differs from the kernel vector"
    for jj in range(1, N + 1):
        if len(approx.P[jj - 1].coeffs) > p + 1:
            return f"deg P_{jj} > p"
        if not _order_ok(name, jj, Q0, approx.P[jj - 1].coeffs, p + h + 1):
            return f"order condition of Q F_{jj} - P_{jj} fails"
    for k in range(fam.K + 1):
        Qk = fam.Q(k).coeffs
        for jj in range(1, N + 1):
            if not _order_ok(name, jj, Qk, fam.P(jj, k).coeffs, max(0, p + h + 1 - k)):
                return f"order condition of Q_{k} F_{jj} - P_{jj},{k} fails"
    # the nonvanishing index and xi, recomputed
    z = Fraction(a, b)
    for k in range(xi.k + 1):
        value = n * _eval(fam.Q(k).coeffs, z) - B * b ** m * _eval(fam.P(j, k).coeffs, z)
        if (value == 0) != (k < xi.k):
            return f"k={xi.k} is not the first nonvanishing index"
    k = xi.k
    scaled = _denominator(name, p + (d - 1) * k) * b ** (p + (d - 1) * k) * value
    if scaled.denominator != 1 or scaled != xi.xi or xi.xi % b ** m:
        return "xi differs from its exact recomputation"
    return None


# -- mpmath checks --------------------------------------------------------------

def _mp(dps: int):
    from mpmath import mp
    mp.dps = dps
    return mp


def _contains(ctx, iv, value, tol) -> bool:
    lo = ctx.mpf(iv.lo.numerator) / iv.lo.denominator
    hi = ctx.mpf(iv.hi.numerator) / iv.hi.denominator
    return lo - tol <= value <= hi + tol


def _check_digits(spec: tuple, ds) -> str | None:
    _, name, j, num, den, count = spec
    ctx = _mp(count + 40)
    z = ctx.mpf(num) / den
    value = ctx.log(1 - z) if name == "log1m" else ctx.polylog(j, z)
    scaled = value * ctx.mpf(10) ** count
    floor = int(ctx.floor(scaled))
    if min(scaled - floor, floor + 1 - scaled) < ctx.mpf(10) ** -25:
        return "digit check too close to a cell boundary to decide"
    if ds.floor_scaled(count) != floor:
        return f"digits of F_{j}({num}/{den}) differ from mpmath"
    return None


def _check_elementary(spec: tuple, iv) -> str | None:
    kind, a, b, digits = spec
    ctx = _mp(digits + 40)
    x = ctx.mpf(a) / b
    value = ctx.log(x) if kind == "log" else ctx.exp(x)
    if not _contains(ctx, iv, value, abs(value) * ctx.mpf(10) ** -(digits + 20)):
        return f"{kind}({a}/{b}) enclosure misses the mpmath value"
    return None


def _check_constants(spec: tuple, rep) -> str | None:
    _, name, a, b, _, _, _, digits = spec
    N, d, g = SYSTEM_PARAMS[name]
    ctx = _mp(digits + 40)
    chi = 4 * ctx.exp(g * (8 * N * d + 1))
    a1 = 1 + Fraction(d, (N + 2) * (d + 1))
    a2 = Fraction(8 * N + 1, 4 * N + 8)
    a4 = Fraction(4 * N * (N + 3) * (d + 1), N + 2)
    c6 = ctx.power(2, ctx.mpf(a2.numerator) / a2.denominator) \
        * ctx.exp(g * (ctx.mpf((a1 + a4).numerator) / (a1 + a4).denominator))
    c7 = 6 * (N + 2) ** 2 * ctx.log(chi)
    c8 = ctx.log(2 * c6) / ctx.log(2) * c7
    c4 = c8 + ctx.log(c6) / ctx.log(2)
    x = ctx.log(b) / (3 * ctx.log(chi * abs(a)))
    for label, iv, value in (("chi", rep.chi, chi), ("c6", rep.c6, c6), ("c7", rep.c7, c7),
                             ("c8", rep.c8, c8), ("c4", rep.c4, c4), ("x", rep.x, x)):
        if not _contains(ctx, iv, value, abs(value) * ctx.mpf(10) ** -(digits + 20)):
            return f"{label} enclosure for {name} misses the mpmath value"
    return None


# -- digests --------------------------------------------------------------------

def digest_item(spec: tuple, out) -> bytes:
    kind = spec[0]
    if kind == "suite":
        body = out[1]
    elif kind == "digits":
        body = f"{out.integer_part}.{out.as_str()}"
    elif kind in ("log", "exp"):
        body = f"{out.lo} {out.hi}"
    elif kind == "constants":
        body = " ".join(f"{iv.lo} {iv.hi}"
                        for iv in (out.chi, out.c6, out.c7, out.c8, out.c4, out.x))
    else:
        approx, fam, _, xi = out
        body = " ".join([str(approx.kernel_vector)]
                        + [str(list(fam.Q(k).coeffs)) for k in range(fam.K + 1)]
                        + [str(xi.k), str(xi.xi)])
    return f"{spec!r}|{body}\n".encode()
