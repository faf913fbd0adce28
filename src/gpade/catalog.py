"""Catalog of G-function systems: builtins, growth verification, file loading.

A system packages everything the approximant machinery needs about a vector
Y = (F_0 = 1, F_1, ..., F_N) of power series solving Y' = A(z) Y:

  * exact Taylor coefficients f_{j,n} and common denominators d_n
    (d_n * f_{j,m} is an integer for every j and every m <= n),
  * the matrix A with common-denominator polynomial Dpoly (Dpoly * A is a
    polynomial matrix, row 0 of A identically zero),
  * the degree budget d with deg Dpoly <= d and deg(Dpoly * A) <= d - 1,
  * growth constants: rational C with |f_{j,n}| <= C^{n+1}, and Dgrowth
    with d_n <= Dgrowth^{n+1}, certified over `verified_range`.

Dgrowth may be irrational (e.g. e^s for the polylog family); it is carried
either symbolically as coef * e^exponent or as a fitted rational, and always
materializes as a certified IntervalReal on request.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import InsufficientPrecisionError, PreconditionError
from .intervals import CertifiedReal, IntervalReal, decide, frac_nth_root
from .polynomial import Poly, SeriesTrunc, lcm_range
from .ratfun import RatFunMatrix
from .transcend import exp_frac

Scalar = Union[int, Fraction]

DEFAULT_FIT_RANGE = 64


@dataclass
class GrowthReport:
    n_max: int
    C_ok: bool
    D_ok: bool
    first_C_violation: Optional[int] = None
    first_D_violation: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.C_ok and self.D_ok


class GFunctionSystem:
    """A concrete G-function system; see module docstring for the contract.

    Instances cache coefficients and denominators internally; they are not
    safe for concurrent mutation but all public methods are read-only after
    construction except verify_growth's monotone verified_range update.
    """

    def __init__(self, name: str, N: int, coeff: Callable[[int, int], Fraction],
                 denom: Callable[[int], int], A: RatFunMatrix, D_poly: Poly,
                 d: int, C: Fraction,
                 Dgrowth_sym: Optional[tuple[Fraction, Fraction]] = None,
                 Dgrowth_rat: Optional[Fraction] = None,
                 params: Optional[dict] = None,
                 validate: bool = True):
        self.name = name
        self.N = N
        self._coeff = coeff
        self._denom = denom
        self.A = A
        self.D_poly = D_poly
        self.d = d
        self.C = Fraction(C)
        self.Dgrowth_sym = Dgrowth_sym
        self.Dgrowth_rat = Fraction(Dgrowth_rat) if Dgrowth_rat is not None else None
        if (self.Dgrowth_sym is None) == (self.Dgrowth_rat is None):
            raise PreconditionError("exactly one of Dgrowth_sym / Dgrowth_rat required")
        self.params = dict(params or {})
        self.verified_range = 0
        self._coeff_cache: dict[tuple[int, int], Fraction] = {}
        self._denom_cache: dict[int, int] = {}
        self._cleared: Optional[list[list[Poly]]] = None
        # (j, z) -> CertifiedReal of F_j(z), filled by verify.value_producer
        self._value_cache: dict[tuple[int, Fraction], CertifiedReal] = {}
        if validate:
            self._validate()

    # -- structural validation -----------------------------------------

    def _validate(self) -> None:
        if self.A.nrows != self.N + 1 or self.A.ncols != self.N + 1:
            raise PreconditionError("A must be (N+1) x (N+1)")
        if not self.A.row_is_zero(0):
            raise PreconditionError("row 0 of A must be identically zero")
        if self.D_poly.is_zero or self.D_poly.degree() > self.d:
            raise PreconditionError("deg Dpoly must be <= d and Dpoly nonzero")
        for row in self.cleared_A():
            for p in row:
                if p.degree() > self.d - 1:
                    raise PreconditionError("deg(Dpoly * A entry) must be <= d - 1")
        if self.C < 1:
            raise PreconditionError("C >= 1 required (normalize upward)")
        if self.coefficient(0, 0) != 1:
            raise PreconditionError("component 0 must be the constant function 1")

    # -- coefficients and denominators -----------------------------------

    def coefficient(self, j: int, n: int) -> Fraction:
        """Taylor coefficient f_{j,n} of component j."""
        if not (0 <= j <= self.N):
            raise PreconditionError(f"component {j} out of range 0..{self.N}")
        if n < 0:
            raise PreconditionError("coefficient index must be >= 0")
        key = (j, n)
        got = self._coeff_cache.get(key)
        if got is None:
            got = Fraction(self._coeff(j, n))
            self._coeff_cache[key] = got
        return got

    def series(self, j: int, order: int) -> SeriesTrunc:
        return SeriesTrunc([self.coefficient(j, n) for n in range(order)], order)

    def denominator(self, n: int) -> int:
        """Common denominator d_n: d_n * f_{j,m} integral for all j, m <= n."""
        if n < 0:
            raise PreconditionError("denominator index must be >= 0")
        got = self._denom_cache.get(n)
        if got is None:
            got = int(self._denom(n))
            self._denom_cache[n] = got
        return got

    # -- growth data ------------------------------------------------------

    def Dgrowth(self, digits: int = 32) -> IntervalReal:
        if self.Dgrowth_rat is not None:
            return IntervalReal.point(self.Dgrowth_rat)
        coef, e_exp = self.Dgrowth_sym
        return (coef * exp_frac(e_exp, digits + 2)).round_sig(digits)

    def CD(self, digits: int = 32) -> IntervalReal:
        return self.C * self.Dgrowth(digits)

    def D_sym(self) -> tuple[Fraction, Fraction]:
        """Dgrowth as (coef, e_exponent), coef * e^e_exponent; exponent 0 when rational."""
        if self.Dgrowth_sym is not None:
            return self.Dgrowth_sym
        return (self.Dgrowth_rat, Fraction(0))

    def CD_sym(self) -> tuple[Fraction, Fraction]:
        """C * Dgrowth as (coef, e_exponent)."""
        coef, e_exp = self.D_sym()
        return (self.C * coef, e_exp)

    # -- derived structures ------------------------------------------------

    def cleared_A(self) -> list[list[Poly]]:
        """Dpoly * A, entrywise polynomial."""
        if self._cleared is None:
            self._cleared = self.A.cleared(self.D_poly)
        return self._cleared

    def check_ode(self, order: int) -> bool:
        """Verify Dpoly * Y' == (Dpoly*A) * Y as series through z^(order-1)."""
        F = [self.series(j, order + 1) for j in range(self.N + 1)]
        DA = self.cleared_A()
        for i in range(self.N + 1):
            lhs = F[i].derivative().mul_poly(self.D_poly)
            rhs = SeriesTrunc([], order)
            for j in range(self.N + 1):
                if not DA[i][j].is_zero:
                    rhs = rhs + F[j].mul_poly(DA[i][j])
            k = min(lhs.order, rhs.order, order)
            if lhs.coeffs[:k] != rhs.coeffs[:k]:
                return False
        return True

    def negated(self) -> "GFunctionSystem":
        """The system for Y(-z): coefficient signs flip at odd indices.

        Used to reduce negative evaluation points to positive ones; growth
        constants and denominators are unchanged.
        """
        base_coeff, base_N = self._coeff, self.N

        def coeff(j: int, n: int) -> Fraction:
            c = base_coeff(j, n)
            return -c if n % 2 else c

        def flip(p: Poly) -> Poly:
            return Poly([(-1) ** i * c for i, c in enumerate(p.coeffs)])

        A_entries = []
        for i in range(base_N + 1):
            row = []
            for j in range(base_N + 1):
                num, den = self.A.entry(i, j)
                row.append((flip(num).scale(-1), flip(den)))
            A_entries.append(row)
        sysn = GFunctionSystem(
            name=self.name + "@neg", N=self.N, coeff=coeff, denom=self._denom,
            A=RatFunMatrix(A_entries), D_poly=flip(self.D_poly), d=self.d,
            C=self.C, Dgrowth_sym=self.Dgrowth_sym, Dgrowth_rat=self.Dgrowth_rat,
            params=dict(self.params), validate=False)
        sysn.verified_range = self.verified_range
        return sysn

    def __repr__(self) -> str:
        return f"GFunctionSystem({self.name!r}, N={self.N})"


def verify_growth(sys: GFunctionSystem, n_max: int, digits: int = 32) -> GrowthReport:
    """Exactly check |f_{j,n}| <= C^{n+1} and d_n <= Dgrowth^{n+1} for n <= n_max.

    The Dgrowth comparison against a symbolic e-power escalates interval
    precision until decided (an integer never equals a transcendental, so
    this terminates).  Updates sys.verified_range on full success.
    """
    first_C = None
    for n in range(0, n_max + 1):
        cpow = sys.C ** (n + 1)
        for j in range(1, sys.N + 1):
            if abs(sys.coefficient(j, n)) > cpow:
                first_C = n
                break
        if first_C is not None:
            break

    first_D = None
    for n in range(0, n_max + 1):
        dn = sys.denominator(n)
        if sys.Dgrowth_rat is not None:
            ok = dn <= sys.Dgrowth_rat ** (n + 1)
        else:
            ok = _le_epower(dn, sys.Dgrowth_sym, n + 1, digits)
        if not ok:
            first_D = n
            break

    rep = GrowthReport(n_max=n_max, C_ok=first_C is None, D_ok=first_D is None,
                       first_C_violation=first_C, first_D_violation=first_D)
    if rep.ok:
        sys.verified_range = max(sys.verified_range, n_max)
    return rep


def _le_epower(value: int, sym: tuple[Fraction, Fraction], power: int, digits: int) -> bool:
    """Decide value <= (coef * e^e_exp)^power by escalating enclosures."""
    coef, e_exp = sym
    le, _ = decide(lambda dg: (coef ** power) * exp_frac(e_exp * power, dg),
                   lambda iv: iv.ge(value), digits)
    if le is None:
        raise InsufficientPrecisionError("growth comparison undecidable at cap")
    return le


# -- builtin families -------------------------------------------------------


def _polylog(s: int) -> GFunctionSystem:
    if s < 1:
        raise PreconditionError("polylog weight must be >= 1")

    def coeff(j: int, n: int) -> Fraction:
        if j == 0:
            return Fraction(1 if n == 0 else 0)
        return Fraction(0) if n == 0 else Fraction(1, n ** j)

    def denom(n: int) -> int:
        return lcm_range(n) ** s

    # Y = (1, Li_1, ..., Li_s): Li_1' = 1/(1-z), Li_j' = Li_{j-1}/z
    size = s + 1
    A_rows: list[list] = [[(Poly(), Poly([1])) for _ in range(size)] for _ in range(size)]
    A_rows[1][0] = (Poly([1]), Poly([1, -1]))          # 1/(1-z)
    for j in range(2, size):
        A_rows[j][j - 1] = (Poly([1]), Poly([0, 1]))   # 1/z
    return GFunctionSystem(
        name=f"polylog{s}", N=s, coeff=coeff, denom=denom,
        A=RatFunMatrix(A_rows), D_poly=Poly([0, 1, -1]), d=2, C=Fraction(1),
        Dgrowth_sym=(Fraction(1), Fraction(s)), params={"s": s})


def _log1m() -> GFunctionSystem:
    def coeff(j: int, n: int) -> Fraction:
        if j == 0:
            return Fraction(1 if n == 0 else 0)
        return Fraction(0) if n == 0 else Fraction(-1, n)

    A_rows = [[(Poly(), Poly([1])), (Poly(), Poly([1]))],
              [(Poly([-1]), Poly([1, -1])), (Poly(), Poly([1]))]]  # -1/(1-z)
    return GFunctionSystem(
        name="log1m", N=1, coeff=coeff, denom=lcm_range,
        A=RatFunMatrix(A_rows), D_poly=Poly([1, -1]), d=1, C=Fraction(1),
        Dgrowth_sym=(Fraction(1), Fraction(1)))


def _binom_power(alpha: Fraction, fit_range: int = DEFAULT_FIT_RANGE) -> GFunctionSystem:
    alpha = Fraction(alpha)
    if alpha.denominator == 1:
        raise PreconditionError(
            "integer exponent makes (1-z)^alpha a polynomial or rational function; "
            "not an admissible system")
    v = alpha.denominator

    coeffs: list[Fraction] = [Fraction(1)]
    denoms: list[int] = [1]

    def coeff(j: int, n: int) -> Fraction:
        if j == 0:
            return Fraction(1 if n == 0 else 0)
        while len(coeffs) <= n:
            i = len(coeffs) - 1
            coeffs.append(coeffs[-1] * (alpha - i) / (i + 1) * -1)
        return coeffs[n]

    def denom(n: int) -> int:
        while len(denoms) <= n:
            m = len(denoms)
            denoms.append(math.lcm(denoms[-1], coeff(1, m).denominator))
        return denoms[n]

    if abs(alpha) <= 1:
        C = Fraction(1)
    else:
        # |binom(alpha,n)| <= prod(|alpha|+i)/n! <= 2^(ceil|alpha|+n), absorbed by C^(n+1)
        C = Fraction(2 ** (1 + math.ceil(abs(alpha))))

    # fitted-and-certified denominator growth over the fit range
    g = Fraction(1)
    for n in range(fit_range + 1):
        root = frac_nth_root(Fraction(denom(n)), n + 1, 3).hi
        if root > g:
            g = root
    sysb = GFunctionSystem(
        name=f"binom[{alpha}]", N=1, coeff=coeff, denom=denom,
        A=RatFunMatrix([[(Poly(), Poly([1])), (Poly(), Poly([1]))],
                        [(Poly(), Poly([1])), (Poly([-alpha]), Poly([1, -1]))]]),
        D_poly=Poly([v, -v]), d=1, C=C,
        Dgrowth_rat=g, params={"alpha": alpha, "fit_range": fit_range})
    rep = verify_growth(sysb, fit_range)
    if not rep.ok:
        raise PreconditionError(f"fitted growth constants fail on fit range: {rep}")
    return sysb


_BUILTINS = {
    "polylog": lambda **kw: _polylog(int(kw.get("s", 2))),
    "log1m": lambda **kw: _log1m(),
    "binom_power": lambda **kw: _binom_power(Fraction(kw["alpha"]),
                                             int(kw.get("fit_range", DEFAULT_FIT_RANGE))),
}


def builtin(family: str, **params) -> GFunctionSystem:
    """Construct a builtin family member; growth is verified over an initial range."""
    if family not in _BUILTINS:
        raise PreconditionError(f"unknown family {family!r}; have {sorted(_BUILTINS)}")
    sys = _BUILTINS[family](**params)
    if sys.verified_range == 0:
        verify_growth(sys, DEFAULT_FIT_RANGE)
        if sys.verified_range == 0:
            raise PreconditionError(f"builtin {family} fails its own growth check")
    return sys


# -- system definition files -------------------------------------------------

_ALIASES = {
    "log1m": ("log1m", {}),
    "polylog1": ("polylog", {"s": 1}),
    "polylog2": ("polylog", {"s": 2}),
    "polylog3": ("polylog", {"s": 3}),
    "polylog4": ("polylog", {"s": 4}),
}


def parse_system(text: str) -> GFunctionSystem:
    """Parse a key-value system definition.

    Lines: `family <name>` (required), `param <key> <value>`, and optional
    overrides `name`, `C <rational>`, `Dgrowth <rational or e^k>`.
    Overridden growth constants are re-verified before use.
    """
    family = None
    params: dict = {}
    overrides: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "family":
            family = parts[1]
        elif key == "param":
            params[parts[1]] = parts[2]
        elif key == "name":
            overrides["name"] = parts[1]
        elif key == "C":
            overrides["C"] = Fraction(parts[1])
        elif key == "Dgrowth":
            overrides["Dgrowth"] = parts[1]
        elif key == "fit_range":
            params["fit_range"] = parts[1]
        else:
            raise PreconditionError(f"unknown system-file key {key!r}")
    if family is None:
        raise PreconditionError("system file must name a family")
    sys = builtin(family, **params)
    if "name" in overrides:
        sys.name = overrides["name"]
    if "C" in overrides or "Dgrowth" in overrides:
        if "C" in overrides:
            if overrides["C"] < sys.C:
                sys.verified_range = 0
            sys.C = overrides["C"]
        if "Dgrowth" in overrides:
            spec = overrides["Dgrowth"]
            sys.verified_range = 0
            if spec.startswith("e^"):
                sys.Dgrowth_sym = (Fraction(1), Fraction(spec[2:]))
                sys.Dgrowth_rat = None
            else:
                sys.Dgrowth_rat = Fraction(spec)
                sys.Dgrowth_sym = None
        rep = verify_growth(sys, DEFAULT_FIT_RANGE)
        if not rep.ok:
            raise PreconditionError(f"overridden growth constants fail verification: {rep}")
    return sys


def load_system(path: str) -> GFunctionSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def resolve_system(spec: str) -> GFunctionSystem:
    """Resolve a CLI-style system reference: alias, family:params, or file path."""
    if os.path.exists(spec):
        return load_system(spec)
    if spec in _ALIASES:
        family, params = _ALIASES[spec]
        return builtin(family, **params)
    if ":" in spec:
        family, _, arg = spec.partition(":")
        if family == "polylog":
            return builtin("polylog", s=int(arg))
        if family in ("binom", "binom_power"):
            return builtin("binom_power", alpha=Fraction(arg))
    raise PreconditionError(f"cannot resolve system {spec!r}")
