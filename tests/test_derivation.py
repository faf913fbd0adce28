import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import (
    Poly,
    assemble,
    build_approximant,
    ell0_bound,
    find_nonvanishing_index,
    iterate,
    resolve_system,
    truncated_product,
    zero_estimate_check,
)
from gpade import derivation
from gpade.catalog import GFunctionSystem
from gpade.derivation import IterationStepCert, _order_scan
from gpade.errors import InternalCertificateError, KernelVectorError, PreconditionError
from gpade.polynomial import cleared


class SeriesTrunc:
    """Reference: the truncated-series arithmetic `pade.assemble` and `iterate`
    certified orders with before `truncated_product`, cut to what they used."""

    def __init__(self, coeffs, order: int):
        cs = [Fraction(c) for c in coeffs[:order]]
        cs.extend(Fraction(0) for _ in range(order - len(cs)))
        self.coeffs, self.order = tuple(cs), order

    def known_valuation(self) -> int:
        return next((i for i, c in enumerate(self.coeffs) if c != 0), self.order)

    def mul_poly(self, p: Poly) -> "SeriesTrunc":
        if p.is_zero:
            return SeriesTrunc([], self.order)
        order = self.order + p.valuation()
        out = [Fraction(0)] * order
        for i, cp in enumerate(p.coeffs):
            if cp == 0:
                continue
            for j, cs in enumerate(self.coeffs):
                if i + j >= order:
                    break
                if cs:
                    out[i + j] += cp * cs
        return SeriesTrunc(out, order)

    def sub_poly(self, p: Poly) -> "SeriesTrunc":
        if p.degree() >= self.order:
            raise PreconditionError("polynomial degree exceeds series order")
        out = list(self.coeffs)
        for i, c in enumerate(p.coeffs):
            out[i] -= c
        return SeriesTrunc(out, self.order)


def reference_order_verified(Q: Poly, F: list, P: Poly) -> int:
    resid = SeriesTrunc(F, len(F)).mul_poly(Q).sub_poly(P)
    return min(resid.known_valuation(), resid.order)


def test_hand_iterates(log1m):
    # base: Q = 2-z, P_1 = -2z for (p,q,h) = (1,1,1)
    base = build_approximant(log1m, 1, 1, 1)
    fam = iterate(base, log1m, 2)
    # S_1 = D S_0' - (DA) S_0 with D = 1-z:
    #   Q_1 = (1-z)(-1) - 0 = z - 1
    #   P_{1,1} = (1-z)(-2) - (-1)(2-z) = -2 + 2z + 2 - z = z
    assert fam.Q(1) == Poly([-1, 1])
    assert fam.P(1, 1) == Poly([0, 1])
    # k=2: Q_2 = (1/2) D^2 Q'' = 0; P_{1,2} = z/2
    assert fam.Q(2) == Poly()
    assert fam.P(1, 2) == Poly([0, Fraction(1, 2)])


def test_iterate_certificates(log1m):
    base = build_approximant(log1m, 4, 3, 2)
    fam = iterate(base, log1m, 3)
    for cert in fam.certs:
        assert cert.degree_ok
        assert cert.Q_integral
        assert cert.P_cleared
        assert cert.order_ok
    assert fam.certs[0].order_verified[0] >= 7    # p+h+1 at k=0


def test_order_decay_by_one_per_step(polylog2):
    base = build_approximant(polylog2, 6, 4, 2)
    fam = iterate(base, polylog2, 4)
    for k, cert in enumerate(fam.certs):
        assert cert.order_targets == [max(0, 9 - k)] * 2
        assert cert.order_ok


def test_cross_check_catches_corrupted_recurrence(log1m, monkeypatch):
    base = build_approximant(log1m, 4, 3, 2)
    step = derivation._next_iterate

    def corrupted(*args):
        V = step(*args)
        V[0] = [(V[0][0] if V[0] else 0) + 1] + V[0][1:]
        return V

    monkeypatch.setattr(derivation, "_next_iterate", corrupted)
    with pytest.raises(InternalCertificateError, match="k=1"):
        iterate(base, log1m, 2)


fractions = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def certificate_cases(draw):
    """(Q, F, P): Q zero or of any valuation, P of every degree below len(F),
    mostly a truncation of Q F so that long runs of zeros get certified."""
    order = draw(st.integers(1, 9))
    F = draw(st.lists(fractions, min_size=order, max_size=order))
    v = draw(st.integers(0, 3))
    Q = Poly([0] * v + draw(st.lists(fractions, max_size=4)))
    deg = draw(st.integers(-1, order - 1))
    prod = Q * Poly(F)
    P = [prod.coefficient(t) for t in range(deg + 1)]
    if P and draw(st.booleans()):
        P[draw(st.integers(0, deg))] += draw(fractions)
    return Q, F, Poly(P)


def order_scan(Q: Poly, F: list, P: Poly) -> int:
    """`_order_scan` on integers: Q and P over one denominator, F cleared."""
    den = math.lcm(Q.den, P.den)
    fi, lcd = cleared(F)
    return _order_scan([c * (den // Q.den) for c in Q.num], fi, lcd,
                       [c * (den // P.den) for c in P.num])


def reference_poly_order_verified(Q: Poly, F: list, P: Poly) -> int:
    """The order certificate `iterate` read off `truncated_product` before its scan."""
    n = len(F) + max(Q.valuation(), 0)
    v = (truncated_product(Q, F, n) - P).valuation()
    return v if 0 <= v < n else n


@given(certificate_cases())
@example((Poly(), [Fraction(1)] * 4, Poly())).via("zero Q, zero P")
@example((Poly(), [Fraction(1)] * 4, Poly([0, 0, 5]))).via("zero Q")
@example((Poly([0, 0, 1]), [Fraction(1)] * 3, Poly([0, 0, 1, 1, 1]))).via("val Q = 2")
@settings(max_examples=300, deadline=None)
def test_order_verified_equals_series_reference(case):
    Q, F, P = case
    assert order_scan(Q, F, P) == reference_order_verified(Q, F, P)


@given(certificate_cases(), st.lists(fractions, min_size=1, max_size=4))
@example((Poly([1]), [Fraction(1)] * 2, Poly([1, 1])), [Fraction(5)]).via("deg P = n")
@example((Poly(), [Fraction(1)] * 2, Poly()), [Fraction(0), Fraction(3)]).via("zero Q")
@settings(max_examples=200, deadline=None)
def test_order_scan_reads_nothing_past_n(case, tail):
    # P of degree >= n = len(F) + max(val Q, 0): what is past n is never certified
    Q, F, P = case
    n = len(F) + max(Q.valuation(), 0)
    P = Poly(list(P.coeffs) + [Fraction(0)] * (n - len(P.coeffs)) + tail)
    assert order_scan(Q, F, P) == reference_poly_order_verified(Q, F, P)


def reference_assemble(sys, p: int, h: int, v: list[int]):
    """The deleted series path of `pade.assemble`: the P_j, or the first
    (component, surviving coefficient) of a vector outside the kernel."""
    target = p + h + 1
    P = []
    for j in range(1, sys.N + 1):
        prod = SeriesTrunc(sys.series(j, target), target).mul_poly(Poly(v))
        P_j = Poly(prod.coeffs[: p + 1])
        resid = prod.sub_poly(P_j)
        if any(resid.coeffs[:target]):
            return j, resid.known_valuation()
        P.append(P_j)
    return P


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_assemble_equals_series_reference(log1m, polylog2, data):
    sys = data.draw(st.sampled_from([log1m, polylog2]))
    h = data.draw(st.integers(0, 2))
    q = data.draw(st.integers(sys.N * h, sys.N * h + 2))
    p = data.draw(st.integers(q, q + 3))
    if data.draw(st.booleans()):
        v = build_approximant(sys, p, q, h).kernel_vector
    else:
        v = data.draw(st.lists(st.integers(-3, 3), min_size=q + 1, max_size=q + 1).filter(any))
    ref = reference_assemble(sys, p, h, v)
    if isinstance(ref, tuple):
        with pytest.raises(KernelVectorError,
                           match=rf"component {ref[0]}: coefficient z\^{ref[1]} survives"):
            assemble(sys, p, q, h, v)
    else:
        approx = assemble(sys, p, q, h, v)
        assert approx.P == ref
        assert approx.order_certificates == [p + h + 1] * sys.N


def test_iterate_certificates_equal_series_reference(log1m, polylog2):
    # log1m (1,1,1) reaches Q_2 = 0; polylog Q_k carry valuation >= k from z(1-z)
    for sys, (p, q, h), K in [(log1m, (1, 1, 1), 2), (log1m, (4, 3, 2), 4),
                              (polylog2, (6, 4, 2), 5)]:
        fam = iterate(build_approximant(sys, p, q, h), sys, K)
        order = p + max(h, (sys.d - 1) * K) + 1
        for k, cert in enumerate(fam.certs):
            assert cert.order_verified == [
                reference_order_verified(fam.Q(k), sys.series(j, order), fam.P(j, k))
                for j in range(1, sys.N + 1)]


def reference_iterate(base, sys, K: int):
    """The `Poly` recurrence `iterate` ran before its integer lists: Qk, Pk, certs."""
    N, p, q, h, d = sys.N, base.p, base.q, base.h, sys.d
    D = sys.D_poly
    S = [base.Q] + list(base.P)
    order = p + max(h, (d - 1) * K) + 1
    F = {j: sys.series(j, order) for j in range(1, N + 1)}
    Qk, Pk, certs = [], [], []
    for k in range(K + 1):
        Q_k, *P_k = [s.scale(Fraction(1, math.factorial(k))) for s in S]
        dscale = sys.denominator(p + (d - 1) * k)
        certs.append(IterationStepCert(
            k=k,
            degree_ok=Q_k.degree() <= q + (d - 1) * k and all(
                pj.degree() <= p + (d - 1) * k for pj in P_k),
            Q_integral=Q_k.is_integral(),
            P_cleared=all(dscale % pj.den == 0 for pj in P_k),
            order_targets=[max(0, p + h + 1 - k)] * N,
            order_verified=[reference_poly_order_verified(Q_k, F[j], P_k[j - 1])
                            for j in range(1, N + 1)]))
        Qk.append(Q_k)
        Pk.append(P_k)
        S = [D * s.derivative() - k * D.derivative() * s
             - sum((e * t for e, t in zip(sys.DA[row], S)), Poly())
             for row, s in enumerate(S)]
    return Qk, Pk, certs


def reference_poly_det(mat: list) -> Poly:
    """The `Poly` Laplace expansion `zero_estimate_check` ran before its integer columns."""
    if len(mat) == 1:
        return mat[0][0]
    det = Poly()
    for i in range(len(mat)):
        minor = [row[1:] for r, row in enumerate(mat) if r != i]
        term = mat[i][0] * reference_poly_det(minor)
        det = det + term if i % 2 == 0 else det - term
    return det


@lru_cache(maxsize=None)
def _system(name: str, third: bool) -> GFunctionSystem:
    """A builtin, or the same system with Dpoly and DA divided by 3 (still Dpoly Y' = DA Y),
    so that their common denominator c is not 1."""
    sys = resolve_system(name)
    if not third:
        return sys
    t = Fraction(1, 3)
    return GFunctionSystem(sys.name + "/3", sys.N, sys._coeff, sys._denom,
                           [[e.scale(t) for e in row] for row in sys.DA],
                           sys.D_poly.scale(t), sys.d, sys.C, sys.Dgrowth_sym)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_iterate_equals_poly_reference(data):
    name = data.draw(st.sampled_from(["log1m", "polylog2", "polylog3", "binom:1/2", "binom:7/4"]))
    sys = _system(name, data.draw(st.booleans()))
    h = data.draw(st.integers(0, 2))
    q = data.draw(st.integers(sys.N * h, sys.N * h + 3))
    p = data.draw(st.integers(q, q + 3))
    K = data.draw(st.integers(sys.N, max(sys.N, ell0_bound(sys, p, q, h) + sys.N)))
    base = build_approximant(sys, p, q, h)
    fam = iterate(base, sys, K)
    Qk, Pk, certs = reference_iterate(base, sys, K)
    assert [(x.num, x.den) for x in fam.Qk] == [(x.num, x.den) for x in Qk]
    assert [[(x.num, x.den) for x in row] for row in fam.Pk] == [
        [(x.num, x.den) for x in row] for row in Pk]
    assert fam.certs == certs
    mat = [[Qk[k] if i == 0 else Pk[k][i - 1] for k in range(sys.N + 1)]
           for i in range(sys.N + 1)]
    Delta, ref = zero_estimate_check(fam, sys).Delta, reference_poly_det(mat)
    assert (Delta.num, Delta.den) == (ref.num, ref.den)


def test_iterate_clears_each_series_once(polylog2, monkeypatch):
    base = build_approximant(polylog2, 6, 4, 2)
    series, clear = polylog2.series, derivation.cleared
    asked, clearings = [], []
    monkeypatch.setattr(polylog2, "series", lambda j, order: asked.append(j) or series(j, order))
    monkeypatch.setattr(derivation, "cleared", lambda cs: clearings.append(cs) or clear(cs))
    iterate(base, polylog2, 5)
    assert asked == [1, 2]
    assert len(clearings) == 2


def test_degree_growth_bound(polylog2):
    base = build_approximant(polylog2, 6, 4, 2)
    fam = iterate(base, polylog2, 5)
    d = polylog2.d
    for k in range(6):
        assert fam.Q(k).degree() <= 4 + (d - 1) * k
        for j in (1, 2):
            assert fam.P(j, k).degree() <= 6 + (d - 1) * k


def test_iterate_rejects_negative_K(log1m):
    base = build_approximant(log1m, 1, 1, 1)
    with pytest.raises(PreconditionError):
        iterate(base, log1m, -1)


def test_zero_estimate_hand_example(log1m):
    base = build_approximant(log1m, 1, 1, 1)
    fam = iterate(base, log1m, 1)
    chk = zero_estimate_check(fam, log1m)
    # Delta = det [[2-z, z-1], [-2z, z]] = 2z - z^2 + 2z^2 - 2z = z^2
    assert chk.Delta == Poly([0, 0, 1])
    assert chk.required_vanish == 2        # N(p+h+1) - N(N+1)/2 = 3 - 1
    assert chk.vanish_order == 2
    assert chk.DeltaTilde == Poly([1])
    assert chk.ell0 == 0                   # q - N(h+1) + dN(N+1)/2 = 1 - 2 + 1
    assert chk.nonzero and chk.degree_ok


def test_zero_estimate_polylog(polylog2):
    base = build_approximant(polylog2, 3, 2, 1)
    fam = iterate(base, polylog2, 2)
    chk = zero_estimate_check(fam, polylog2)
    assert chk.required_vanish == 7        # 2*5 - 3
    assert chk.vanish_order >= 7
    assert chk.nonzero
    assert chk.ell0 == ell0_bound(polylog2, 3, 2, 1) == 4
    assert chk.DeltaTilde.degree() <= chk.ell0


def test_zero_estimate_needs_enough_iterates(polylog2):
    base = build_approximant(polylog2, 3, 2, 1)
    fam = iterate(base, polylog2, 1)       # K=1 < N=2
    with pytest.raises(PreconditionError):
        zero_estimate_check(fam, polylog2)


def test_find_nonvanishing_hand_example(log1m):
    base = build_approximant(log1m, 1, 1, 1)
    fam = iterate(base, log1m, 1)          # ell0 + N = 0 + 1
    # n = 1, B = 1, m = 0 at z = 1/10: 1*Q_0(1/10) - 1*P_0(1/10) != 0 already
    k = find_nonvanishing_index(fam, log1m, Fraction(1, 10), 1, 1, 0, 1)
    assert k == 0


def test_find_nonvanishing_skips_engineered_zero(log1m):
    base = build_approximant(log1m, 1, 1, 1)
    fam = iterate(base, log1m, 1)
    # choose n/B so that k=0 vanishes: n Q(a/b) = B b^m P(a/b) at a/b = 1/2
    # Q(1/2) = 3/2, P(1/2) = -1; n=2, B=-3, m=0: 2*(3/2) - (-3)*(-1) = 0
    k = find_nonvanishing_index(fam, log1m, Fraction(1, 2), 2, -3, 0, 1)
    assert k == 1
    # and k=1 is genuinely nonzero: 2*Q_1(1/2) + 3*P_{1,1}(1/2) = -1 + 3/2
    val = 2 * fam.Q(1)(Fraction(1, 2)) + 3 * fam.P(1, 1)(Fraction(1, 2))
    assert val == Fraction(1, 2)


def test_find_nonvanishing_input_checks(log1m):
    base = build_approximant(log1m, 1, 1, 1)
    fam = iterate(base, log1m, 1)
    with pytest.raises(PreconditionError):
        find_nonvanishing_index(fam, log1m, Fraction(0), 1, 1, 0, 1)
    with pytest.raises(PreconditionError):
        find_nonvanishing_index(fam, log1m, Fraction(1), 1, 1, 0, 1)   # root of 1-z
    with pytest.raises(PreconditionError):
        find_nonvanishing_index(fam, log1m, Fraction(1, 2), 1, 1, 0, 2)


def test_find_nonvanishing_needs_enough_iterates(polylog2):
    base = build_approximant(polylog2, 6, 4, 2)
    fam = iterate(base, polylog2, 1)
    with pytest.raises(PreconditionError):
        find_nonvanishing_index(fam, polylog2, Fraction(1, 10), 1, 1, 1, 1)


def test_grid_zero_estimates(log1m, polylog2):
    for sys, params in [(log1m, [(2, 2, 1), (4, 3, 2), (5, 2, 1)]),
                        (polylog2, [(4, 4, 2), (5, 4, 1), (6, 5, 2)])]:
        for (p, q, h) in params:
            base = build_approximant(sys, p, q, h)
            fam = iterate(base, sys, max(sys.N, ell0_bound(sys, p, q, h) + sys.N))
            chk = zero_estimate_check(fam, sys)
            assert chk.nonzero, (sys.name, p, q, h)
            assert chk.degree_ok, (sys.name, p, q, h)
            # scan terminates within ell0 + N for a generic point
            k = find_nonvanishing_index(fam, sys, Fraction(1, 7), 3, 2, 1, 1)
            assert 0 <= k <= chk.ell0 + sys.N
