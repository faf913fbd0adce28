"""Line-oriented structured reports.

One record per check, `key: value` lines, exact numbers as decimal strings
and intervals as exact endpoint pairs, so identical runs produce byte
identical output and reports diff cleanly.  Build artifacts written in this
format can be parsed back (`parse_report`) to feed later stages.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import PreconditionError
from .intervals import IntervalReal
from .polynomial import Poly

STATUS_CERTIFIED = "certified"
STATUS_VIOLATED = "violated"
STATUS_INDETERMINATE = "indeterminate"
STATUS_HYPOTHESIS_UNMET = "hypothesis-unmet"
# the status of a check that rests on one tristate decision
TRISTATE_STATUS = {True: STATUS_CERTIFIED, False: STATUS_VIOLATED, None: STATUS_INDETERMINATE}

FORMAT_VERSION = "1"


def fmt_fraction(f: Union[Fraction, int]) -> str:
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    return Fraction(s.strip())


def fmt_interval(iv: IntervalReal, decimals: int = 12) -> str:
    return f"[{fmt_fraction(iv.lo)}, {fmt_fraction(iv.hi)}] ~ {iv.decimal_str(decimals)}"


def parse_interval(s: str) -> IntervalReal:
    body = s.split("~")[0].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise PreconditionError(f"not an interval: {s!r}")
    lo, hi = body[1:-1].split(",")
    return IntervalReal(parse_fraction(lo), parse_fraction(hi))


def fmt_poly(p: Poly) -> str:
    """Ascending coefficients, space separated; zero polynomial is '0'."""
    if p.degree() < 0:
        return "0"
    return " ".join(fmt_fraction(c) for c in p.coeffs)


def parse_poly(s: str) -> Poly:
    parts = s.split()
    if not parts:
        raise PreconditionError("empty polynomial field")
    return Poly([parse_fraction(c) for c in parts])


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def fmt_tristate(b: Optional[bool]) -> str:
    if b is None:
        return STATUS_INDETERMINATE
    return fmt_bool(b)


def fmt_sym(sym: tuple[Fraction, Fraction]) -> str:
    """coef*e^exp of a closed form (coef, exp)."""
    coef, e_exp = sym
    if e_exp == 0:
        return fmt_fraction(coef)
    return f"{fmt_fraction(coef)}*e^{fmt_fraction(e_exp)}"


def format_value(v) -> str:
    if isinstance(v, bool):
        return fmt_bool(v)
    if isinstance(v, IntervalReal):
        return fmt_interval(v)
    if isinstance(v, (int, Fraction)):
        return fmt_fraction(v)
    if isinstance(v, Poly):
        return fmt_poly(v)
    if v is None:
        return STATUS_INDETERMINATE
    return str(v)


class ReportWriter:
    """Accumulates records; `render` yields the canonical text form."""

    def __init__(self, command: str, precision: Optional[int] = None):
        self._lines: list[str] = [f"gpade-report: {FORMAT_VERSION}",
                                  f"command: {command}"]
        if precision is not None:
            self._lines.append(f"precision: {precision}")
        self._statuses: list[str] = []

    def kv(self, key: str, value) -> None:
        if ":" in key or "\n" in key:
            raise PreconditionError(f"malformed report key {key!r}")
        self._lines.append(f"{key}: {format_value(value)}")

    def record(self, kind: str) -> None:
        self._lines.append("")
        self._lines.append(f"record: {kind}")

    def status(self, value: str) -> None:
        if value not in (STATUS_CERTIFIED, STATUS_VIOLATED,
                         STATUS_INDETERMINATE, STATUS_HYPOTHESIS_UNMET):
            raise PreconditionError(f"unknown status {value!r}")
        self._statuses.append(value)
        self.kv("status", value)

    @property
    def any_violated(self) -> bool:
        return STATUS_VIOLATED in self._statuses

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def parse_report(text: str) -> tuple[dict, list[dict]]:
    """Split a report into (header, records); values stay as raw strings."""
    header: dict = {}
    records: list[dict] = []
    cur: Optional[dict] = None
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if ":" not in line:
            raise PreconditionError(f"malformed report line {line!r}")
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key == "record":
            cur = {"record": val}
            records.append(cur)
        elif cur is None:
            header[key] = val
        else:
            cur[key] = val
    if "gpade-report" not in header:
        raise PreconditionError("not a gpade report")
    return header, records
