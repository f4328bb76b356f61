"""Outside-in tracing of the tamesym layers.

The program is not changed: each traced function is replaced, in every
tamesym module namespace that bound it by name, with a wrapper that records
a span (name, start, end, parent span). Methods are patched on their class.
Spans stay in memory and are written out when the traced run ends; self
time comes from the span stack, as a span's duration minus the time its
child spans cover. Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# (layer, attribute path in tamesym.<layer>); each gets calls, self_s, total_s
TARGETS = (
    ("polynomials", "factor_uni"),
    ("polynomials", "UniPoly.divmod"),
    ("polynomials", "gcd_uni"),
    ("polynomials", "rational_roots"),
    ("polynomials", "squarefree_decomposition"),
    ("polynomials", "irreducible_check_uni"),
    ("atoms", "mult_vec"),
    ("atoms", "factor_bipoly"),
    ("expressions", "RatFunc.make"),
    ("wedges", "wedge_of"),
    ("wedges", "wedge_add"),
    ("wedges", "wedge_str"),
    ("places", "tame_symbol"),
    ("places", "weil_sum"),
    ("gamma", "delta"),
    ("gamma", "b2_normalize"),
    ("homotopy", "decompose"),
    ("homotopy", "h_map"),
    ("lambda_complex", "differential"),
    ("lambda_complex", "parshin_check"),
    ("snc", "snc_check"),
    ("chow", "cube_boundary"),
    ("chow", "w_commutes_check"),
)

# every public parser is one span name, dsl.parse
PARSERS = ("parse_bifrac", "parse_cycle", "parse_divisor", "parse_element",
           "parse_gamma", "parse_place", "parse_ratfunc", "parse_wedge")

# extra per-layer counters: name -> unit
COUNTERS = {
    "polynomials.factor_uni.repeat_ratio": "ratio",
    "polynomials.factor_uni.known_tried": "count",
    "polynomials.factor_uni.refused": "count",
    "polynomials.max_degree": "count",
    "polynomials.max_coeff_bits": "bits",
    "atoms.registry_atoms": "count",
    "wedges.wedge_add.terms_in": "count",
    "homotopy.decompose.steps": "count",
    "snc.candidates": "count",
    "dsl.parse.calls": "count",
    "dsl.parse.self_s": "s",
    "dsl.parse.bytes": "bytes",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, path in TARGETS:
        base = f"{layer}.{path}"
        units.update({f"{base}.calls": "count", f"{base}.self_s": "s",
                      f"{base}.total_s": "s"})
    units.update(COUNTERS)
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.active: list[int] = []
        self.raised: dict[tuple[int, str], int] = {}
        self.stack: list[list[int]] = []   # [span id, child ns]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters = dict.fromkeys(
            ("known_tried", "terms_in", "steps", "candidates", "bytes",
             "max_degree", "max_coeff_bits", "repeats"), 0)
        self.factor_args: set = set()
        self.registries: list = []
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _slot(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        for lst in (self.calls, self.self_ns, self.total_ns, self.active):
            lst.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, before=None, after=None):
        i = self._slot(name)
        stack, calls, self_ns = self.stack, self.calls, self.self_ns
        total_ns, active, raised = self.total_ns, self.active, self.raised
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(span_name)
            span_name.append(i)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            active[i] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                key = (i, type(exc).__name__)
                raised[key] = raised.get(key, 0) + 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self_ns[i] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                active[i] -= 1
                if not active[i]:
                    total_ns[i] += dur  # outermost call only, for recursion
                calls[i] += 1
                span_start[sid] = start
                span_end[sid] = end
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _factor_uni_before(self, args, kwargs) -> None:
        f = args[0]
        known = args[1] if len(args) > 1 else kwargs.get("known", ())
        c = self.counters
        if f.coeffs in self.factor_args:
            c["repeats"] += 1
        else:
            self.factor_args.add(f.coeffs)
        c["known_tried"] += len(known)
        c["max_degree"] = max(c["max_degree"], f.degree)
        bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                    for q in f.coeffs), default=0)
        c["max_coeff_bits"] = max(c["max_coeff_bits"], bits)

    def _wedge_add_before(self, args, kwargs) -> None:
        self.counters["terms_in"] += len(args[0].terms) + len(args[1].terms)

    def _parse_before(self, args, kwargs) -> None:
        self.counters["bytes"] += len(args[0].encode())

    def _decompose_after(self, result) -> None:
        self.counters["steps"] += len(result.preimage.terms)

    def _snc_after(self, result) -> None:
        self.counters["candidates"] += result.candidates_checked

    # -- patching -------------------------------------------------------------

    def install(self, T) -> None:
        """Wrap every target in every tamesym namespace that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "tamesym" or n.startswith("tamesym.")) and m]
        hooks = {"factor_uni": (self._factor_uni_before, None),
                 "wedge_add": (self._wedge_add_before, None),
                 "decompose": (None, self._decompose_after),
                 "snc_check": (None, self._snc_after)}
        for layer, path in TARGETS:
            module = sys.modules[f"tamesym.{layer}"]
            before, after = hooks.get(path, (None, None))
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                w = self.wrap(fn, f"{layer}.{path}", before, after)
                setattr(cls, meth, staticmethod(w) if is_static else w)
                self._undo.append((cls, meth, raw))
            else:
                fn = getattr(module, path)
                self._rebind(modules, fn,
                             self.wrap(fn, f"{layer}.{path}", before, after))
        for name in PARSERS:
            fn = getattr(sys.modules["tamesym.dsl"], name)
            self._rebind(modules, fn,
                         self.wrap(fn, "dsl.parse", self._parse_before))
        registry_init = T.AtomRegistry.__init__
        registries = self.registries

        def init(reg, *args, **kwargs):
            registry_init(reg, *args, **kwargs)
            registries.append(reg)

        T.AtomRegistry.__init__ = init
        self._undo.append((T.AtomRegistry, "__init__", registry_init))

    def _rebind(self, modules, fn, wrapper) -> None:
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, path in TARGETS:
            name = f"{layer}.{path}"
            i = self._slot(name)
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
            out[f"{name}.total_s"] = self.total_ns[i] / 1e9
        c = self.counters
        fcalls = out["polynomials.factor_uni.calls"]
        out["polynomials.factor_uni.repeat_ratio"] = (
            c["repeats"] / fcalls if fcalls else 0.0)
        out["polynomials.factor_uni.known_tried"] = c["known_tried"]
        out["polynomials.factor_uni.refused"] = self.raised.get(
            (self._slot("polynomials.factor_uni"), "Inconclusive"), 0)
        out["polynomials.max_degree"] = c["max_degree"]
        out["polynomials.max_coeff_bits"] = c["max_coeff_bits"]
        # the registry keeps its interning tables private; reading their
        # sizes is the only outside view of how many atoms it holds
        out["atoms.registry_atoms"] = max(
            (len(r._primes) + len(r._uni) + len(r._bi) for r in self.registries),
            default=0)
        out["wedges.wedge_add.terms_in"] = c["terms_in"]
        out["homotopy.decompose.steps"] = c["steps"]
        out["snc.candidates"] = c["candidates"]
        p = self._slot("dsl.parse")
        out["dsl.parse.calls"] = self.calls[p]
        out["dsl.parse.self_s"] = self.self_ns[p] / 1e9
        out["dsl.parse.bytes"] = c["bytes"]
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as four little-endian arrays (name index int32, parent
        span int32, start ns int64, end ns int64) after a JSON header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.span_name),
                  "layout": ["name:i4", "parent:i4", "start_ns:i8", "end_ns:i8"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
