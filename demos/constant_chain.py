"""Reproduce the effective constant chain for the dilogarithm pair.

At desk scale (b = 10) the schedule hypotheses cannot hold, so the chain is
computed with allow_desk_scale=True and the hypothesis flags come back
false; the headline constants are still exact: c1 = 4e^66, c2 = 12, and the
c4 enclosure sits strictly below 10^5.78.  At b = 10^400 the x > N + 1
schedule threshold is met and (h, p, q) materialize.
"""
from fractions import Fraction

from gpade import compute_constants, frac_pow, resolve_system


def main() -> None:
    li2 = resolve_system("polylog2")
    rep = compute_constants(li2, 1, 10, Fraction(1), 1, allow_desk_scale=True)
    coef, e_exp = rep.c1_sym
    print(f"c1 = {coef} * e^{e_exp}   (enclosure {rep.c1.decimal_str(6)})")
    print(f"c2 = {rep.c2}")
    print(f"c6 = {rep.c6.decimal_str(6)}")
    print(f"c4 = {rep.c4.decimal_str(8)}")
    target = frac_pow(Fraction(10), Fraction(289, 50), 48)
    print(f"c4 < 10^5.78 = {target.decimal_str(8)} : {rep.c4.lt(target.lo) is True}")
    print(f"closed-form agreement: {not rep.c4_discrepancy}")
    print(f"desk scale: {rep.desk_scale}; hyp b ok: {rep.hyp_b_ok}; "
          f"schedule (h, p, q) = ({rep.h}, {rep.p}, {rep.q})")
    print()

    big = compute_constants(li2, 1, 10 ** 400, Fraction(1), 100,
                            allow_desk_scale=True)
    print("b = 10^400, m = 100:")
    print(f"  x  = {big.x.decimal_str(6)}  (schedule needs x > N+1 = 3)")
    print(f"  (h, p, q) = ({big.h}, {big.p}, {big.q})")
    print(f"  hyp b ok: {big.hyp_b_ok}; eqhyp: {big.eqhyp_status}")


if __name__ == "__main__":
    main()
