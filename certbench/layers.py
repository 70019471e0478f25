"""Per-layer tracing from outside the program.

`Tracing` wraps the public functions of each layer in spans.  The
modules bind imported names directly (`from .matrix import charpoly`),
so every module-level binding of a wrapped function is replaced, and
methods are replaced on their class.  A span's self time is its
duration minus the time its child spans cover.  Only traced runs build
a `Tracing`; untraced runs leave the package untouched.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# span name -> (module, functions in it); "Class.method" names a method
SPANS = {
    "poly.exact_div": ("poly", ("MultiPoly.exact_div",)),
    "poly.mul": ("poly", ("MultiPoly.__mul__",)),
    "matrix.charpoly": ("matrix", ("charpoly",)),
    "matrix.det": ("matrix", ("det",)),
    "matrix.pfaffian": ("matrix", ("pfaffian",)),
    "matrix.mul": ("matrix", ("Matrix.__mul__",)),
    "zeta.l_series_inverse": ("zeta", ("l_series_inverse",
                                       "untwisted_l_series_inverse")),
    "zeta.amitsur_check": ("zeta", ("amitsur_check",)),
    "zeta.prime_cycles": ("zeta", ("prime_cycles",)),
    "operators.line_digraph": ("operators", ("line_digraph",)),
    "operators.twisted_adjacency": ("operators", ("twisted_adjacency",)),
    "operators.laplacian": ("operators", ("laplacian",)),
    "operators.kasteleyn": ("operators", ("kasteleyn_orientation",
                                          "kasteleyn_weights")),
    "oracles.enum": ("oracles", ("enum_spanning_trees", "enum_forests",
                                 "enum_perfect_matchings")),
    "oracles.sum": ("oracles", ("tree_sum", "rooted_forest_sum",
                                "rooted_forest_sum_by_components",
                                "matching_sum")),
    "covering.build_cover": ("covering", ("build_cover",)),
    "covering.edge_voltage_cover": ("covering", ("edge_voltage_cover",)),
    "covering.coset_data": ("covering", ("coset_data",)),
    "covering.is_normal": ("covering", ("is_normal",)),
    "representation.induce": ("representation", ("induce",)),
    "representation.connection_from_rep": ("representation",
                                           ("connection_from_rep",)),
    "representation.permutation_complement": ("representation",
                                              ("permutation_complement",)),
    "docio.parse_input": ("docio", ("parse_input",)),
    "docio.render_report": ("docio", ("render_report",)),
    "certificates": ("certificates", None),   # every public function
    "cli": ("cli", ("main",)),
}

# metric name -> unit; every one is reported for every workload
METRICS = {
    "poly.exact_div.calls": "count",
    "poly.exact_div.self_s": "s",
    "poly.exact_div.dividend_terms": "count",
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "poly.peak_terms": "count",
    "matrix.charpoly.calls": "count",
    "matrix.charpoly.self_s": "s",
    "matrix.det.calls": "count",
    "matrix.det.self_s": "s",
    "matrix.order_max": "count",
    "matrix.result_coeff_bits_max": "bits",
    "matrix.pfaffian.calls": "count",
    "matrix.pfaffian.self_s": "s",
    "matrix.mul.self_s": "s",
    "zeta.l_series_inverse.self_s": "s",
    "zeta.amitsur_check.self_s": "s",
    "zeta.prime_cycles.self_s": "s",
    "zeta.primes": "count",
    "operators.line_digraph.self_s": "s",
    "operators.twisted_adjacency.self_s": "s",
    "operators.laplacian.self_s": "s",
    "operators.kasteleyn.self_s": "s",
    "oracles.enum.self_s": "s",
    "oracles.enum.objects": "count",
    "oracles.sum.self_s": "s",
    "covering.build_cover.self_s": "s",
    "covering.edge_voltage_cover.self_s": "s",
    "covering.coset_data.self_s": "s",
    "covering.is_normal.self_s": "s",
    "covering.cover_vertices": "count",
    "representation.induce.self_s": "s",
    "representation.connection_from_rep.self_s": "s",
    "representation.permutation_complement.self_s": "s",
    "docio.parse_input.self_s": "s",
    "docio.render_report.self_s": "s",
    "docio.input_bytes": "bytes",
    "certificates.self_s": "s",
    "cli.self_s": "s",
}


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    parts = (getattr(c, "re", None), getattr(c, "im", None))
    return max((_coeff_bits(p) for p in parts if p is not None), default=0)


def _result_bits(value) -> int:
    terms = getattr(value, "terms", None)
    if terms is not None:
        return max((_coeff_bits(c) for c in terms.values()), default=0)
    return _coeff_bits(value)


class Recorder:
    """Span and counter totals for the layers, kept in memory."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counts = {name: 0 for name in METRICS if name.split(".")[-1]
                       not in ("calls", "self_s")}
        self._stack = []   # per open span: time covered by its children

    def reset(self):
        """Zero every total in place; the wrappers hold these dicts."""
        for table in (self.calls, self.self_s, self.counts):
            for key in table:
                table[key] = 0

    def span(self, name, fn, observe=None):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = stack.pop()
                self_s[name] += dur - children
                if stack:
                    stack[-1] += dur
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # counters read from arguments and results

    def _bump(self, key, value):
        self.counts[key] += value

    def _peak(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def observe(self, name):
        if name == "poly.mul":
            return lambda args, r: self._peak("poly.peak_terms",
                                              len(getattr(r, "terms", ())))
        if name == "poly.exact_div":
            def exact_div(args, r):
                self._bump("poly.exact_div.dividend_terms", len(args[0].terms))
                self._peak("poly.peak_terms", len(args[0].terms))
                if r is not None:
                    self._peak("poly.peak_terms", len(r.terms))
            return exact_div
        if name in ("matrix.det", "matrix.charpoly", "matrix.pfaffian"):
            def order(args, r):
                self._peak("matrix.order_max", args[0].nrows)
                if name != "matrix.pfaffian":
                    self._peak("matrix.result_coeff_bits_max", _result_bits(r))
            return order
        if name == "zeta.prime_cycles":
            return lambda args, r: self._bump("zeta.primes", len(r))
        if name == "oracles.enum":
            return lambda args, r: self._bump("oracles.enum.objects", len(r))
        if name in ("covering.build_cover", "covering.edge_voltage_cover"):
            return lambda args, r: self._bump("covering.cover_vertices",
                                              r.cover.num_vertices)
        if name == "docio.parse_input":
            return lambda args, r: self._bump("docio.input_bytes",
                                              len(args[0].encode()))
        return None

    def metrics(self) -> dict:
        """Every metric of METRICS by name, as totalled so far."""
        out = {}
        for name in METRICS:
            head, _, last = name.rpartition(".")
            if last == "calls":
                out[name] = self.calls[head]
            elif last == "self_s":
                out[name] = self.self_s[head]
            else:
                out[name] = self.counts[name]
        return out


class Tracing:
    """Wrappers for every binding of a function named in SPANS.  Inside
    `with tracing:` the package calls the wrappers; outside it, the
    original functions are back in place."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.patches = []   # (owner, attribute, original, wrapper)
        replace = {}
        for span, (mod_name, names) in SPANS.items():
            mod = sys.modules[f"covertwist.{mod_name}"]
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if callable(v) and not isinstance(v, type)
                         and not n.startswith("_")
                         and getattr(v, "__module__", None) == mod.__name__]
            observe = recorder.observe(span)
            for qual in names:
                cls_name, _, meth = qual.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    fn = vars(cls)[meth]
                    wrapped = recorder.span(span, fn, observe)
                    self.patches += [(cls, attr, fn, wrapped)
                                     for attr, value in vars(cls).items()
                                     if value is fn]   # aliases: __rmul__
                else:
                    fn = getattr(mod, qual)
                    replace[id(fn)] = (fn, recorder.span(span, fn, observe))
        for name, mod in list(sys.modules.items()):
            if name != "covertwist" and not name.startswith("covertwist."):
                continue
            for attr, value in vars(mod).items():
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patches.append((mod, attr, value, hit[1]))

    def __enter__(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
        return False
