"""Catalog of G-function systems: the family table, growth verification, specs and files.

A system packages everything the approximant machinery needs about a vector
Y = (F_0 = 1, F_1, ..., F_N) of power series solving Y' = A(z) Y:

  * exact Taylor coefficients f_{j,n} and common denominators d_n
    (d_n * f_{j,m} is an integer for every j and every m <= n); component 0,
    the constant 1, is supplied by `GFunctionSystem` itself,
  * the system itself as Dpoly and the polynomial matrix DA = Dpoly * A
    (row 0 identically zero), so that Dpoly Y' = DA Y; A is never formed,
    and the test oracle `check_ode` compares both sides as truncated products,
  * the degree budget d with deg Dpoly <= d and deg DA <= d - 1,
  * growth constants: rational C with |f_{j,n}| <= C^{n+1}, and Dgrowth
    with d_n <= Dgrowth^{n+1}, certified over `verified_range`.

`_FAMILIES` gives each family's one parameter (or none) and constructor.
`_build`, its only reader, builds every system and verifies growth once over
0..fit_range.  A spec `family[:value]`, or an alias of one, builds exactly as
the system file `family F` / `param <its name> value` would.

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

    `coeff(j, n)` gives f_{j,n} for the components j >= 1 only: component 0,
    the constant 1, is supplied here.  Each component keeps one list f_{j,0},
    f_{j,1}, ..., extended on demand; `series` returns a copy of its head.
    Denominators are cached by n.  Instances are not safe for concurrent mutation.
    Besides these stores, only `_build` (the `C`, `Dgrowth_sym` and `name` of a
    system file) and verify_growth's monotone `verified_range` update write to one.
    """

    def __init__(self, name: str, N: int, coeff: Callable[[int, int], Fraction],
                 denom: Callable[[int], int], DA: list[list[Poly]], D_poly: Poly,
                 d: int, C: Fraction, Dgrowth_sym: EPower):
        self.name = name
        self.N = N
        self._coeff = coeff
        self._denom = denom
        self.DA = DA
        self.D_poly = D_poly
        self.d = d
        self.C = Fraction(C)
        self.Dgrowth_sym = Dgrowth_sym
        self.verified_range = 0
        self._coeffs: list[list[Fraction]] = [[] for _ in range(N + 1)]
        self._denom_cache: dict[int, int] = {}
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

    # -- coefficients and denominators -----------------------------------

    def _stored(self, j: int, order: int) -> list[Fraction]:
        """Component j's stored list, extended to at least `order` coefficients."""
        if not (0 <= j <= self.N):
            raise PreconditionError(f"component {j} out of range 0..{self.N}")
        got = self._coeffs[j]
        for n in range(len(got), order):
            got.append(Fraction(self._coeff(j, n)) if j else Fraction(1 if n == 0 else 0))
        return got

    def coefficient(self, j: int, n: int) -> Fraction:
        """Taylor coefficient f_{j,n} of component j; component 0 is the constant 1."""
        if 0 <= j <= self.N and 0 <= n < len(self._coeffs[j]):
            return self._coeffs[j][n]
        got = self._stored(j, n + 1)
        if n < 0:
            raise PreconditionError("coefficient index must be >= 0")
        return got[n]

    def series(self, j: int, order: int) -> list[Fraction]:
        """f_{j,0} .. f_{j,order-1}: F_j known through z^(order-1), as a new list."""
        return self._stored(j, order)[:max(order, 0)]

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
            d=self.d, C=self.C, Dgrowth_sym=self.Dgrowth_sym)
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


# -- families ----------------------------------------------------------------


def _polylog(s: int) -> GFunctionSystem:
    if s < 1:
        raise PreconditionError("polylog weight must be >= 1")

    def coeff(j: int, n: int) -> Fraction:
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
        Dgrowth_sym=(Fraction(1), Fraction(s)))


def _log1m() -> GFunctionSystem:
    def coeff(j: int, n: int) -> Fraction:
        return Fraction(0) if n == 0 else Fraction(-1, n)

    # log(1-z)' = -1/(1-z); Dpoly = 1-z
    return GFunctionSystem(
        name="log1m", N=1, coeff=coeff, denom=lcm_range,
        DA=[[Poly(), Poly()], [Poly([-1]), Poly()]], D_poly=Poly([1, -1]), d=1, C=Fraction(1),
        Dgrowth_sym=(Fraction(1), Fraction(1)))


def _binom_power(alpha: Fraction, fit_range: int) -> GFunctionSystem:
    alpha = Fraction(alpha)
    if alpha.denominator == 1:
        raise PreconditionError(
            "integer exponent makes (1-z)^alpha a polynomial or rational function; "
            "not an admissible system")
    v = alpha.denominator

    coeffs: list[Fraction] = [Fraction(1)]
    denoms: list[int] = [1]

    def coeff(j: int, n: int) -> Fraction:
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

    # denominator growth fitted over the fit range, which `_build` then verifies
    g = Fraction(1)
    for n in range(fit_range + 1):
        root = frac_nth_root(Fraction(denom(n)), n + 1, 3).hi
        if root > g:
            g = root
    return GFunctionSystem(
        name=f"binom[{alpha}]", N=1, coeff=coeff, denom=denom,
        # ((1-z)^alpha)' = -alpha/(1-z) (1-z)^alpha; Dpoly = v(1-z)
        DA=[[Poly(), Poly()], [Poly(), Poly([-alpha * v])]],
        D_poly=Poly([v, -v]), d=1, C=C,
        Dgrowth_sym=(g, Fraction(0)))


def _parse(kind: type, text, what: str):
    """kind(text), or a PreconditionError naming `what` when text is not a valid kind."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what}: expected {kind.__name__}, got {text!r}") from None


# family -> (its one parameter as (name, type, default), the default None when
# it is required, or None when it takes none; constructor(value, fit_range)).
# A constructor only builds; `_build`, the only reader of this table, verifies.
_FAMILIES = {
    "polylog": (("s", int, 2), lambda s, fit_range: _polylog(s)),
    "log1m": (None, lambda _, fit_range: _log1m()),
    "binom_power": (("alpha", Fraction, None), _binom_power),
}


def _build(family: str, params: dict, settings: dict) -> GFunctionSystem:
    """The one construction path: build the family member from `params` (name ->
    text; the key None holds a `family:value` spec's value), apply the file's
    `C` and `Dgrowth`, verify growth once over 0..fit_range, then apply `name`."""
    if family not in _FAMILIES:
        raise PreconditionError(f"unknown family {family!r}; have {sorted(_FAMILIES)}")
    param, make = _FAMILIES[family]
    name, kind, default = param or (None, None, None)
    for key, text in params.items():
        if name is None or key not in (None, name):
            takes = f"param {name!r}" if name else "no param"
            got = f"the value {text!r}" if key is None else repr(key)
            raise PreconditionError(f"family {family} takes {takes}, not {got}")
    text = next(iter(params.values()), default)
    if name is not None and text is None:
        raise PreconditionError(f"family {family} needs param {name!r}")
    value = _parse(kind, text, f"param {name}") if name else None
    fit_range = settings.get("fit_range", DEFAULT_FIT_RANGE)
    if fit_range < 1:
        raise PreconditionError(f"fit_range must be >= 1, got {fit_range}")
    sys = make(value, fit_range)
    sys.C = settings.get("C", sys.C)
    sys.Dgrowth_sym = settings.get("Dgrowth", sys.Dgrowth_sym)
    rep = verify_growth(sys, fit_range)
    if not rep.ok:
        raise PreconditionError(f"growth constants of {sys.name} fail over 0..{fit_range}: {rep}")
    sys.name = settings.get("name", sys.name)
    return sys


# -- system definition files and specs ---------------------------------------

# alias -> the spec it stands for, whole (`polylog2`) or as a family name (`binom`)
_ALIASES = {"binom": "binom_power", **{f"polylog{s}": f"polylog:{s}" for s in range(1, 5)}}

# system-file key -> number of words its line has, the key included
_FILE_KEYS = {"family": 2, "param": 3, "name": 2, "C": 2, "Dgrowth": 2, "fit_range": 2}


def parse_system(text: str) -> GFunctionSystem:
    """Parse a key-value system definition.

    Lines: `family <name>` (required), `param <key> <value>`, `fit_range <n>`,
    and optional overrides `name`, `C <rational>`, `Dgrowth <rational or e^k>`.
    Each line has exactly the words its key takes, and no key or param name
    appears twice.  Growth, overridden or not, is verified over 0..fit_range
    before use.
    """
    params: dict = {}
    settings: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, value = parts[0], parts[-1]
        where = f"system-file line {line!r}"
        if key not in _FILE_KEYS:
            raise PreconditionError(f"unknown system-file key {key!r}")
        if len(parts) != _FILE_KEYS[key]:
            raise PreconditionError(f"{where}: a {key} line has {_FILE_KEYS[key]} words, "
                                    f"not {len(parts)}")
        into, slot = (params, parts[1]) if key == "param" else (settings, key)
        if slot in into:
            raise PreconditionError(f"{where} repeats {'param ' if key == 'param' else ''}{slot!r}")
        if key == "C":
            value = _parse(Fraction, value, where)
        elif key == "Dgrowth":
            e_form = value.startswith("e^")
            value = _parse(Fraction, value[2:] if e_form else value, where)
            value = (Fraction(1), value) if e_form else (value, Fraction(0))
        elif key == "fit_range":
            value = _parse(int, value, where)
        into[slot] = value
    if "family" not in settings:
        raise PreconditionError("system file must name a family")
    return _build(settings.pop("family"), params, settings)


def load_system(path: str) -> GFunctionSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise PreconditionError(f"cannot read system file {path!r}: {e}") from None
    return parse_system(text)


def resolve_system(spec: str) -> GFunctionSystem:
    """Resolve a CLI-style system reference: a file path, or a spec `family[:value]`
    or an alias of one, which builds as the file `family F` / `param <its name> value`."""
    if os.path.exists(spec):
        return load_system(spec)
    head, colon, value = spec.partition(":")
    family, colon, value = (_ALIASES.get(head, head) + colon + value).partition(":")
    return _build(family, {None: value} if colon else {}, {})
