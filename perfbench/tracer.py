"""In-process span recorder for the fockspace benchmark.

``Recorder.install()`` replaces every public function of the traced
fockspace modules, wherever the package binds it (module attributes, names
imported with ``from .x import f``, and functions held in module-level dicts
such as ``verify.SUITES``), by a wrapper that records one span per call:
name, start, end and parent.  The parent comes from a thread-local stack,
because ``verify.run_verify`` runs its suites in a thread pool.  Spans stay
in memory, one compact buffer per thread, until ``to_json()`` writes them.

A few wrappers also count work at the same boundary: quadrature rule builds
and their keys, recurrence steps, Monte Carlo samples, mapped points and
Cauchy grid points.  Counters live in the per-thread buffers too, so no
update is lost between suite threads.

This module imports nothing from fockspace at load time; ``install`` takes
the already-imported modules from ``sys.modules``.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
import time
from array import array

TRACED_MODULES = (
    "quadrature", "specfun", "hydrogen", "quadmaps", "clifford",
    "identities", "verify", "cli",
)

_RULE_KINDS = {
    "quadrature.gauss_legendre": "legendre",
    "quadrature.gauss_laguerre": "laguerre",
    "quadrature.gauss_hermite": "hermite",
    "quadrature.chebyshev_second": "chebyshev2",
}


def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1


class _ThreadBuffer:
    """Spans and counters of one thread: parallel arrays, one slot per span."""

    def __init__(self, ident: int):
        self.ident = ident
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.keys: set[str] = set()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Recorder:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_ThreadBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self._names))
                if nid == len(self._names):
                    self._names.append(name)
        return nid

    def span(self, name: str, fn, args, kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        buf = self._buffer()
        idx = len(buf.start)
        buf.name.append(self._name_id(name))
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.start.append(time.perf_counter())
        buf.end.append(math.nan)
        buf.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            buf.end[idx] = time.perf_counter()
            buf.stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self._buffer().count(key, amount)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        """A wrapper that records a span around ``fn`` and counts its work.

        Counters read the call's arguments after binding them to ``fn``'s
        signature with its defaults applied, so a count follows the
        program's own defaults (grid sizes, sample counts, methods).
        """
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        if name in _RULE_KINDS:
            counter = self._rule_counter(_RULE_KINDS[name])
        bind = None
        if counter is not None or name in ("quadmaps.ks_integral", "hydrogen.extract_coefficient"):
            signature = inspect.signature(fn)

            def bind(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments

        if name == "quadmaps.ks_integral":
            def wrapper(*args, **kwargs):
                method = bind(args, kwargs)["method"]
                return self.span(f"{name}.{method}", fn, args, kwargs)
        elif name == "hydrogen.extract_coefficient":
            def wrapper(*args, **kwargs):
                nodes = bind(args, kwargs)["nodes"]
                coefficient = self.span(name, fn, args, kwargs)
                return self._wrap_coefficient(coefficient, math.prod(nodes))
        elif name == "verify.run_verify":
            def wrapper(*args, **kwargs):
                report = self.span(name, fn, args, kwargs)
                buf = self._buffer()
                buf.count("verify.cases", len(report.cases))
                buf.count("verify.cases_failed", report.failed)
                return report
        elif counter is not None:
            def wrapper(*args, **kwargs):
                counter(bind(args, kwargs))
                return self.span(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_coefficient(self, coefficient, grid_points: int):
        from fockspace.errors import ConvergenceError

        def traced_coefficient(point):
            self.count("hydrogen.coefficient.grid_points", grid_points)
            try:
                return self.span("hydrogen.coefficient", coefficient, (point,), {})
            except ConvergenceError:
                self.count("hydrogen.coefficient.convergence_errors")
                raise

        return traced_coefficient

    def _rule_counter(self, kind: str):
        def counter(arguments):
            npts = int(arguments["npts"])
            a = float(arguments["a"]) if kind == "laguerre" else 0.0
            buf = self._buffer()
            buf.count("quadrature.rule_builds")
            buf.count(f"quadrature.rule_builds.{kind}")
            buf.count("quadrature.rule_nodes_built", npts)
            buf.keys.add(f"{kind}/{npts}/{a!r}")

        return counter

    def _count_specfun_gegenbauer(self, arguments):
        self.count("specfun.gegenbauer.recurrence_steps",
                   max(int(arguments["m"]) - 1, 0) * _size(arguments["x"]))

    def _count_specfun_laguerre(self, arguments):
        self.count("specfun.laguerre.recurrence_steps",
                   max(int(arguments["k"]) - 1, 0) * _size(arguments["x"]))

    def _count_quadrature_mc_gaussian(self, arguments):
        self.count("quadrature.mc_gaussian.samples", int(arguments["samples"]))

    def _count_clifford_gaussian_mc(self, arguments):
        self.count("clifford.gaussian_mc.samples", int(arguments["samples"]))

    def _count_quadmaps_ks_map(self, arguments):
        self.count("quadmaps.ks_map.points", _size(arguments["u"]) // 4)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules where it is bound."""
        if self._restore:
            raise RuntimeError("recorder is already installed")
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "fockspace" or name.startswith("fockspace.")}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = pkg.get(f"fockspace.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in pkg.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._restore.append((obj, key, val))
                            obj[key] = hit[1]

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def to_json(self) -> dict:
        """All spans and counters, in the layout ``run.py`` aggregates."""
        counters: dict[str, float] = {}
        keys: set[str] = set()
        threads = []
        for buf in self._buffers:
            for key, val in buf.counters.items():
                counters[key] = counters.get(key, 0) + val
            keys |= buf.keys
            threads.append({
                "ident": buf.ident,
                "name": buf.name.tolist(),
                "parent": buf.parent.tolist(),
                "start": buf.start.tolist(),
                "end": buf.end.tolist(),
            })
        return {"names": list(self._names), "threads": threads,
                "counters": counters, "rule_keys": sorted(keys)}
