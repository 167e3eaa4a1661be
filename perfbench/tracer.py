"""Span tracer that wraps ``rqi``'s public functions from outside the package.

``install`` rebinds every public function of every ``rqi`` module in each
module namespace that holds it (``rqi.udw.bessel_K_imag_order`` as well as
``rqi.bessel.bessel_K_imag_order``), because callers resolve those names at
call time.  ``uninstall`` puts every original back.  Nothing under ``src/``
changes, and an untraced run pays nothing.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  Runs are single-threaded (``RQI_THREADS=1``), so one stack of open
spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("bessel", "boson", "boxpair", "cli", "entanglement", "fermion", "gaussian", "nonpert", "teleport", "udw")
# library functions counted where an rqi module binds them
FOREIGN = {"nonpert": ("expm",)}
# spans whose per-call durations are kept for percentiles
KEEP_DURATIONS = ("boxpair.cavity_entanglement", "udw.transition_rate_accelerated")


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    def __init__(self):
        self._open = []  # child-time accumulator of each open span
        self._rebound = []  # (module, attribute, original)
        self._reset()

    def _reset(self):
        self.stats = {}
        self.counters = Counter()
        self.top_level = 0.0  # time inside spans with no open parent

    def _enter(self):
        self._open.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._open.pop()
        if self._open:
            self._open[-1] += dt
        else:
            self.top_level += dt
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total += dt
        st.self_time += dt - child
        if name in KEEP_DURATIONS:
            st.durations.append(dt)

    @contextmanager
    def span(self, name):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def wrap(self, name, fn, on_args=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(args, kwargs)
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            return out if on_result is None else on_result(out)

        return traced

    def _count_rows(self, args, kwargs):
        rows = kwargs["rows"] if "rows" in kwargs else args[2]
        self.counters["cli.rows"] += len(rows)

    def _hooks(self, name):
        if name == "cli.write_csv":
            return {"on_args": self._count_rows}
        if name == "nonpert.derive_F_odes":  # time and count the RHS closure it returns
            return {"on_result": lambda rhs: self.wrap("nonpert.rhs", rhs)}
        return {}

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name in MODULES:
            mod = importlib.import_module("rqi." + mod_name)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__.startswith("rqi."):
                    name = obj.__module__[len("rqi.") :] + "." + obj.__name__
                elif attr in FOREIGN.get(mod_name, ()):
                    name = f"{mod_name}.{attr}"
                else:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(name, obj, **self._hooks(name))
                setattr(mod, attr, wrappers[id(obj)])
                self._rebound.append((mod, attr, obj))

    def uninstall(self):
        while self._rebound:
            mod, attr, obj = self._rebound.pop()
            setattr(mod, attr, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self):
        """Return (stats, counters, top_level) since the last take, and start afresh."""
        out = (self.stats, self.counters, self.top_level)
        self._reset()
        return out
