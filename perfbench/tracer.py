"""Spans and counters around susyqm's public functions, installed from outside.

`Tracer.install()` replaces every public module-level function of the traced
modules with a wrapper wherever it is looked up: in its defining module, in
every other susyqm module that imported it by name (`cli.ladder_chain`,
`spectra.jacobi_poly`, ...) and in module-level dicts (`cli.RUNNERS`,
`cli.SECTION_RUNNERS`).  Hot methods get counting wrappers only.
`uninstall()` puts every original object back.

A span is (name index, start, end, parent span, op id).  Spans stay in memory
and are written once, by `dump()`, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "susyqm"
MODULES = ("cli", "fd_oracle", "tanh_algebra", "orthopoly", "spectra",
           "susy_core", "coordinate_maps", "potentials")

# called per coefficient; a span each would swamp what it measures
NOT_SPANNED = {"tanh_algebra.as_fraction"}

# (module, class, method, counter name): counted, never spanned
COUNTED_METHODS = (
    ("tanh_algebra", "TanhPoly", "__mul__", "tanh_algebra.TanhPoly.mul.calls"),
    ("tanh_algebra", "HypWave", "__post_init__", "tanh_algebra.HypWave.canonicalise.calls"),
)


def _coefficient_bits(wave) -> int:
    """Largest numerator or denominator bit length in a HypWave."""
    values = [wave.a, wave.b, wave.prefactor, *wave.poly.coeffs]
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.passes: list[list] = []   # spans of each finished pass, for dump()
        self._index: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)   # name index -> depth
        self._restore: list = []   # (container, key, original, is_dict)
        self._hypwave = None
        self._numerical_error = None

    # ------------------------------------------------------------------
    # installation

    def _targets(self) -> dict:
        """id(function) -> (qualified name, function) for every spanned function."""
        targets = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                qualified = f"{short}.{attr}"
                if (callable(value) and not isinstance(value, type)
                        and not attr.startswith("_")
                        and getattr(value, "__module__", None) == module.__name__
                        and qualified not in NOT_SPANNED):
                    targets[id(value)] = (qualified, value)
        return targets

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            importlib.import_module(f"{PACKAGE}.{short}")
        self._hypwave = sys.modules[f"{PACKAGE}.tanh_algebra"].HypWave
        self._numerical_error = sys.modules[f"{PACKAGE}.fd_oracle"].NumericalError
        wrappers = {key: self._span_wrapper(name, fn)
                    for key, (name, fn) in self._targets().items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE
                                      or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value, False))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._restore.append((value, key, item, True))
                            value[key] = wrappers[id(item)]
        for short, cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original, False))
            setattr(cls, method, self._count_wrapper(counter, original))

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # wrappers

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _count_wrapper(self, counter: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, name: str, fn):
        index = self._name_index(name)
        module = name.split(".", 1)[0]
        tracer = self
        spans = self.spans
        stack = self._stack
        active = self._active
        counters = self.counters
        clock = time.perf_counter
        hypwave = self._hypwave
        numerical_error = self._numerical_error
        is_fd = module == "fd_oracle"

        def spanned(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[index] == 0
            stack.append(span)
            active[index] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except numerical_error:
                if is_fd and outermost:
                    counters["fd_oracle.numerical_errors"] += 1
                raise
            finally:
                end = clock()
                active[index] -= 1
                stack.pop()
                spans[span] = (index, start, end, parent, tracer.op_id, outermost)
            if isinstance(result, hypwave):
                bits = _coefficient_bits(result)
                if bits > counters["tanh_algebra.max_coeff_bits"]:
                    counters["tanh_algebra.max_coeff_bits"] = bits
            elif name == "fd_oracle.bound_state_eigenvalues":
                counters["fd_oracle.bound_state_eigenvalues.eigenvalues"] += len(result)
            elif name == "cli.execute_command":
                report = result[0]
                checks = ([c for s in report["sections"].values() for c in s]
                          if "sections" in report else report.get("checks", []))
                counters["cli.checks"] += len(checks)
                counters["cli.checks_failed"] += sum(not c["pass"] for c in checks)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # ------------------------------------------------------------------
    # results

    def take_pass(self) -> dict[str, float]:
        """Totals of the spans and counters recorded since the last call.

        Per function: calls and busy_s; per module: calls and self_s.  busy_s
        counts only outermost calls of a function, so recursion is not counted
        twice; self_s is a span's duration minus its direct children's.
        """
        totals: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            index, start, end, parent, _op, _outer = span
            if parent >= 0:
                child_time[parent] += end - start
        for i, (index, start, end, _parent, _op, outermost) in enumerate(self.spans):
            name = self.names[index]
            module = name.split(".", 1)[0]
            totals[f"{name}.calls"] += 1
            totals[f"{module}.calls"] += 1
            if outermost:
                totals[f"{name}.busy_s"] += end - start
            totals[f"{module}.self_s"] += (end - start) - child_time[i]
        for name, value in self.counters.items():
            totals[name] = value
        totals["trace.spans"] = len(self.spans)
        self.passes.append(list(self.spans))
        self.spans.clear()
        self.counters.clear()
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write the spans of every finished pass: [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "names": self.names,
                       "passes": [[[i, round(s, 9), round(e, 9), p, op]
                                   for i, s, e, p, op, _outer in spans]
                                  for spans in self.passes]}, fh)
