"""Catalog of G-function systems: builtins, growth verification, file loading.

A system packages everything the approximant machinery needs about a vector
Y = (F_0 = 1, F_1, ..., F_N) of power series solving Y' = A(z) Y:

  * exact Taylor coefficients f_{j,n} and common denominators d_n
    (d_n * f_{j,m} is an integer for every j and every m <= n),
  * the system itself as Dpoly and the polynomial matrix DA = Dpoly * A
    (row 0 identically zero), so that Dpoly Y' = DA Y; A is never formed,
    and the test oracle `check_ode` compares both sides as truncated products,
  * the degree budget d with deg Dpoly <= d and deg DA <= d - 1,
  * growth constants: rational C with |f_{j,n}| <= C^{n+1}, and Dgrowth
    with d_n <= Dgrowth^{n+1}, certified over `verified_range`.

Dgrowth has one form, the closed form Dgrowth_sym = (coef, e_exp) for
coef * e^e_exp: e^s for polylogs, a fitted rational (e_exp = 0) for binomial
powers.  transcend.le_epower compares against its powers, exactly for a rational.
A system caches coefficients and denominators, never values: each caller of
verify.value_producer owns its CertifiedReal of F_j(z), at a z of either sign.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import PreconditionError
from .intervals import frac_nth_root
from .polynomial import Poly, lcm_range, truncated_product
from .transcend import EPower, le_epower

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
                 denom: Callable[[int], int], DA: list[list[Poly]], D_poly: Poly,
                 d: int, C: Fraction, Dgrowth_sym: EPower,
                 params: Optional[dict] = None,
                 validate: bool = True):
        self.name = name
        self.N = N
        self._coeff = coeff
        self._denom = denom
        self.DA = DA
        self.D_poly = D_poly
        self.d = d
        self.C = Fraction(C)
        self.Dgrowth_sym = Dgrowth_sym
        self.params = dict(params or {})
        self.verified_range = 0
        self._coeff_cache: dict[tuple[int, int], Fraction] = {}
        self._denom_cache: dict[int, int] = {}
        if validate:
            self._validate()

    # -- structural validation -----------------------------------------

    def _validate(self) -> None:
        if len(self.DA) != self.N + 1 or any(len(row) != self.N + 1 for row in self.DA):
            raise PreconditionError("DA must be (N+1) x (N+1)")
        if any(self.DA[0]):
            raise PreconditionError("row 0 of DA must be identically zero")
        if self.D_poly.is_zero or self.D_poly.degree() > self.d:
            raise PreconditionError("deg Dpoly must be <= d and Dpoly nonzero")
        for row in self.DA:
            for p in row:
                if p.degree() > self.d - 1:
                    raise PreconditionError("deg(DA entry) must be <= d - 1")
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

    def series(self, j: int, order: int) -> list[Fraction]:
        """f_{j,0} .. f_{j,order-1}: F_j known through z^(order-1)."""
        return [self.coefficient(j, n) for n in range(order)]

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

    def CD_sym(self) -> EPower:
        """C * Dgrowth as (coef, e_exponent)."""
        coef, e_exp = self.Dgrowth_sym
        return (self.C * coef, e_exp)

    # -- the differential system ------------------------------------------

    def check_ode(self, order: int) -> bool:
        """Verify Dpoly * Y' == DA * Y as series through z^(order-1)."""
        F = [self.series(j, order) for j in range(self.N + 1)]
        for i, row in enumerate(self.DA):
            dF = [n * self.coefficient(i, n) for n in range(1, order + 1)]
            lhs = truncated_product(self.D_poly, dF, order)
            rhs = sum((truncated_product(a, f, order) for a, f in zip(row, F)), Poly())
            if lhs != rhs:
                return False
        return True

    def negated(self) -> "GFunctionSystem":
        """The system for Y(-z): coefficient signs flip at odd indices.

        Growth constants and denominators are unchanged.  The chain replay at
        a < 0 builds its approximant here, at |a|: LLL's tie-break is not
        sign-symmetric, so that approximant is not the one of Y at a.
        """
        base_coeff = self._coeff

        def coeff(j: int, n: int) -> Fraction:
            c = base_coeff(j, n)
            return -c if n % 2 else c

        def flip(p: Poly) -> Poly:
            return Poly([-c if i % 2 else c for i, c in enumerate(p.num)], p.den)

        # Y(-z)' = -Y'(-z), so Dpoly(-z) Y(-z)' = -DA(-z) Y(-z)
        sysn = GFunctionSystem(
            name=self.name + "@neg", N=self.N, coeff=coeff, denom=self._denom,
            DA=[[-flip(p) for p in row] for row in self.DA], D_poly=flip(self.D_poly),
            d=self.d, C=self.C, Dgrowth_sym=self.Dgrowth_sym, params=dict(self.params),
            validate=False)
        sysn.verified_range = self.verified_range
        return sysn

    def __repr__(self) -> str:
        return f"GFunctionSystem({self.name!r}, N={self.N})"


def verify_growth(sys: GFunctionSystem, n_max: int) -> GrowthReport:
    """Exactly check |f_{j,n}| <= C^{n+1} and d_n <= Dgrowth^{n+1} for n <= n_max.

    The Dgrowth comparison is transcend.le_epower: exact for a rational, and
    escalated until decided against an e-power (an integer never equals a
    transcendental).  Updates sys.verified_range on full success.
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
        if not le_epower(sys.denominator(n), sys.Dgrowth_sym, n + 1, 32):
            first_D = n
            break

    rep = GrowthReport(n_max=n_max, C_ok=first_C is None, D_ok=first_D is None,
                       first_C_violation=first_C, first_D_violation=first_D)
    if rep.ok:
        sys.verified_range = max(sys.verified_range, n_max)
    return rep


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

    # Y = (1, Li_1, ..., Li_s): Li_1' = 1/(1-z), Li_j' = Li_{j-1}/z; Dpoly = z(1-z)
    DA = [[Poly() for _ in range(s + 1)] for _ in range(s + 1)]
    DA[1][0] = Poly([0, 1])
    for j in range(2, s + 1):
        DA[j][j - 1] = Poly([1, -1])
    return GFunctionSystem(
        name=f"polylog{s}", N=s, coeff=coeff, denom=denom,
        DA=DA, D_poly=Poly([0, 1, -1]), d=2, C=Fraction(1),
        Dgrowth_sym=(Fraction(1), Fraction(s)), params={"s": s})


def _log1m() -> GFunctionSystem:
    def coeff(j: int, n: int) -> Fraction:
        if j == 0:
            return Fraction(1 if n == 0 else 0)
        return Fraction(0) if n == 0 else Fraction(-1, n)

    # log(1-z)' = -1/(1-z); Dpoly = 1-z
    return GFunctionSystem(
        name="log1m", N=1, coeff=coeff, denom=lcm_range,
        DA=[[Poly(), Poly()], [Poly([-1]), Poly()]], D_poly=Poly([1, -1]), d=1, C=Fraction(1),
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
        # ((1-z)^alpha)' = -alpha/(1-z) (1-z)^alpha; Dpoly = v(1-z)
        DA=[[Poly(), Poly()], [Poly(), Poly([-alpha * v])]],
        D_poly=Poly([v, -v]), d=1, C=C,
        Dgrowth_sym=(g, Fraction(0)), params={"alpha": alpha, "fit_range": fit_range})
    rep = verify_growth(sysb, fit_range)
    if not rep.ok:
        raise PreconditionError(f"fitted growth constants fail on fit range: {rep}")
    return sysb


def _parse(kind: type, text, what: str):
    """kind(text), or a PreconditionError naming `what` when text is not a valid kind."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what}: expected {kind.__name__}, got {text!r}") from None


_BUILTINS = {
    "polylog": lambda **kw: _polylog(_parse(int, kw.get("s", 2), "param s")),
    "log1m": lambda **kw: _log1m(),
    "binom_power": lambda **kw: _binom_power(
        _parse(Fraction, kw.get("alpha"), "param alpha"),
        _parse(int, kw.get("fit_range", DEFAULT_FIT_RANGE), "fit_range")),
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


# system-file key -> number of words its line needs, the key included
_FILE_KEYS = {"family": 2, "param": 3, "name": 2, "C": 2, "Dgrowth": 2, "fit_range": 2}


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
        where = f"system-file line {line!r}"
        if len(parts) < _FILE_KEYS.get(key, 1):
            raise PreconditionError(f"{where} is missing a value")
        if key == "family":
            family = parts[1]
        elif key == "param":
            params[parts[1]] = parts[2]
        elif key == "name":
            overrides["name"] = parts[1]
        elif key == "C":
            overrides["C"] = _parse(Fraction, parts[1], where)
        elif key == "Dgrowth":
            e_form = parts[1].startswith("e^")
            value = _parse(Fraction, parts[1][2:] if e_form else parts[1], where)
            overrides["Dgrowth"] = (Fraction(1), value) if e_form else (value, Fraction(0))
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
            sys.verified_range = 0
            sys.Dgrowth_sym = overrides["Dgrowth"]
        rep = verify_growth(sys, DEFAULT_FIT_RANGE)
        if not rep.ok:
            raise PreconditionError(f"overridden growth constants fail verification: {rep}")
    return sys


def load_system(path: str) -> GFunctionSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise PreconditionError(f"cannot read system file {path!r}: {e}") from None
    return parse_system(text)


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
            return builtin("polylog", s=_parse(int, arg, f"system {spec!r}"))
        if family in ("binom", "binom_power"):
            return builtin("binom_power", alpha=_parse(Fraction, arg, f"system {spec!r}"))
    raise PreconditionError(f"cannot resolve system {spec!r}")
