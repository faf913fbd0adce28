"""Span tracing of gpade's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in its defining module and in
every gpade module that bound it by name (`from .x import f`), so calls are
seen whichever name they go through.  Wrappers keep a stack of open spans: a
span's self time is its duration minus the time covered by the spans it
opened.  A recursive call is a span of its own, so self time stays exact, but
only the outermost call of a function counts towards `calls`.

`Poly` and `GFunctionSystem.coefficient` are never wrapped: they run millions
of times, and a wrapper there would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" wraps a method
TRACED = (
    ("catalog", "resolve_system"),
    ("lattice", "integer_kernel_basis"),
    ("lattice", "lll_reduce"),
    ("pade", "constraint_matrix"),
    ("pade", "siegel_height_bound"),
    ("pade", "assemble"),
    ("pade", "build_approximant"),
    ("derivation", "iterate"),
    ("derivation", "zero_estimate_check"),
    ("derivation", "find_nonvanishing_index"),
    ("intervals", "CertifiedReal.enclosure"),
    ("transcend", "exp_frac"),
    ("transcend", "log_frac"),
    ("transcend", "log2_enclosure"),
    ("constants", "compute_constants"),
    ("constants", "bound_remainder"),
    ("constants", "bound_height_Qk"),
    ("verify", "eval_certified"),
    ("verify", "construct_xi"),
    ("verify", "verify_theorem1"),
    ("verify", "replay_chain"),
    ("digits", "expand_digits"),
    ("digits", "theorem2_convergent"),
    ("quadratic", "cf_sqrt"),
    ("quadratic", "pell_bound_check"),
    ("quadratic", "reduce_to_theorem1"),
    ("report", "ReportWriter.render"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


class _Stat:
    __slots__ = ("calls", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span stack and per-function counters for one traced run."""

    def __init__(self) -> None:
        self.stats = {span_name(m, a): _Stat() for m, a in TRACED}
        self._stack: list[list[float]] = []
        self._originals: dict[str, object] = {}
        # counters read by the extra metrics
        self.lll_dims = 0
        self.iterate_k = 0
        self.eval_keys: Counter = Counter()
        self.producer_calls = 0
        self.enclosure_max_digits = 0
        self.max_digits = {"transcend.exp_frac": 0, "transcend.log_frac": 0}
        self.digits_out = 0
        self._log2_info = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in TRACED, in all gpade modules that bind it."""
        import gpade

        modules = [gpade] + [importlib.import_module(f"gpade.{info.name}")
                             for info in pkgutil.iter_modules(gpade.__path__)]
        for module_name, attr in TRACED:
            home = importlib.import_module(f"gpade.{module_name}")
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
            self._originals[name] = original

    def start(self) -> None:
        """Mark the start of the timed phase: counters restart from zero."""
        for st in self.stats.values():
            st.calls = 0
            st.self_s = 0.0
        self.lll_dims = self.iterate_k = self.producer_calls = 0
        self.enclosure_max_digits = self.digits_out = 0
        self.eval_keys.clear()
        self.max_digits = dict.fromkeys(self.max_digits, 0)
        self._log2_info = self._originals["transcend.log2_enclosure"].cache_info()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        note = _NOTES.get(name)
        counts_digits = name == "digits.expand_digits"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if st.depth == 0:
                st.calls += 1
            if note is not None:
                note(self, args, kwargs)
            st.depth += 1
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.depth -= 1
                st.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if counts_digits:
                self.digits_out += out.certified_len
            return out

        return traced

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the timed phase, by name."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        lll_calls = self.stats["lattice.lll_reduce"].calls
        out["lattice.lll_reduce.dim_mean"] = self.lll_dims / lll_calls if lll_calls else 0.0
        out["derivation.iterate.k_total"] = self.iterate_k
        n_eval = sum(self.eval_keys.values())
        out["verify.eval_certified.distinct"] = len(self.eval_keys)
        out["verify.eval_certified.repeat_frac"] = (
            1 - len(self.eval_keys) / n_eval if n_eval else 0.0)
        out["intervals.enclosure.producer_calls"] = self.producer_calls
        out["intervals.enclosure.max_digits"] = self.enclosure_max_digits
        for name, digits in self.max_digits.items():
            out[f"{name}.max_digits"] = digits
        info = self._originals["transcend.log2_enclosure"].cache_info()
        out["transcend.log2_enclosure.hits"] = info.hits - self._log2_info.hits
        out["transcend.log2_enclosure.misses"] = info.misses - self._log2_info.misses
        out["digits.expand_digits.digits_out"] = self.digits_out
        out["trace.self_sum_s"] = sum(st.self_s for st in self.stats.values())
        return out


# argument notes, taken before the call: (tracer, args, kwargs) -> None

def _note_lll(tr: Tracer, args, kwargs) -> None:
    tr.lll_dims += len(args[0])


def _note_iterate(tr: Tracer, args, kwargs) -> None:
    tr.iterate_k += args[2] if len(args) > 2 else kwargs["K"]


def _note_eval(tr: Tracer, args, kwargs) -> None:
    system, j, z, width = args
    tr.eval_keys[(system.name, j, Fraction(z), Fraction(width))] += 1


def _note_enclosure(tr: Tracer, args, kwargs) -> None:
    real, digits = args
    # the producer runs unless a cached enclosure is already fine enough
    if getattr(real, "_best", None) is None or getattr(real, "_best_digits", 0) < digits:
        tr.producer_calls += 1
        tr.enclosure_max_digits = max(tr.enclosure_max_digits, digits)


def _note_digits(name: str):
    def note(tr: Tracer, args, kwargs) -> None:
        digits = args[1] if len(args) > 1 else kwargs["digits"]
        tr.max_digits[name] = max(tr.max_digits[name], digits)
    return note


_NOTES = {
    "lattice.lll_reduce": _note_lll,
    "derivation.iterate": _note_iterate,
    "verify.eval_certified": _note_eval,
    "intervals.enclosure": _note_enclosure,
    "transcend.exp_frac": _note_digits("transcend.exp_frac"),
    "transcend.log_frac": _note_digits("transcend.log_frac"),
}
