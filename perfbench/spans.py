"""Spans and counters around the public functions of a package, from outside.

A Tracer replaces a function in every module of the package that bound
it, including names bound by ``from ... import``, so calls made from
inside the package are caught as well as calls from outside.  An
``lru_cache`` function is replaced by a fresh cache of the same size
around a spanned copy of the cached body, which gives exact builds, hits
and bytes built; install before the first call, so the fresh cache
behaves as the original would have.  Only builds are spanned: a hit
stays a C-level lookup, read from ``cache_info()``, so millions of hits
add no Python overhead to their callers' self time.  For such a target
``calls`` and ``self_s`` therefore cover builds only.

Each thread keeps its own stack of open spans.  A span's self time is its
duration minus the time its child spans cover.  Work submitted to a
``ThreadPoolExecutor`` the package bound is adopted by the submitting
span: the workers' outermost spans count as its children, and children
that overlap on different threads are counted once.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

__all__ = ["Tracer", "covered_length"]


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _nbytes(obj) -> int:
    """Bytes of a built array, or of the array a table object holds."""
    arr = obj if hasattr(obj, "nbytes") else getattr(obj, "values", None)
    return int(getattr(arr, "nbytes", 0))


class _Frame:
    """One open span: time covered by same-thread children so far, and
    the intervals of adopted children that ran on other threads."""

    __slots__ = ("child_s", "remote")

    def __init__(self) -> None:
        self.child_s = 0.0
        self.remote: list[tuple[float, float]] = []


class Tracer:
    """Install spans on ``package.module.function`` targets; read stats."""

    def __init__(self, package: str, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.bytes_built: dict[str, int] = {}
        self.caches: dict[str, Callable] = {}
        self._observers: dict[str, Callable] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def observe(self, name: str, callback: Callable) -> None:
        """Call ``callback(args, result, seconds)`` after each spanned return of ``name``."""
        self._observers[name] = callback

    def _modules(self) -> list:
        pkg = self.package
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == pkg or n.startswith(pkg + "."))
        ]

    def install(self, targets: list[str]) -> None:
        """Wrap each ``module.function`` target wherever the package bound it."""
        modules = self._modules()
        for name in targets:
            modname, fname = name.rsplit(".", 1)
            orig = getattr(sys.modules[f"{self.package}.{modname}"], fname)
            repl = self._wrap(name, orig)
            self._rebind(modules, orig, repl)
        self._rebind(modules, ThreadPoolExecutor, self._pool_class())

    def _rebind(self, modules: list, orig: object, repl: object) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        """Put every original object back where it was bound."""
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, orig: Callable) -> Callable:
        self.calls[name] = 0
        self.self_s[name] = 0.0
        observer = self._observers.get(name)
        if hasattr(orig, "cache_info"):
            return self._counting_cache(name, orig, observer)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self._span(name, orig, observer, args, kwargs)

        return wrapper

    def _counting_cache(self, name: str, orig: Callable, observer) -> Callable:
        params = orig.cache_parameters()
        body = orig.__wrapped__
        self.bytes_built[name] = 0

        @functools.wraps(body)
        def build(*args, **kwargs):
            out = self._span(name, body, observer, args, kwargs)
            with self._lock:
                self.bytes_built[name] += _nbytes(out)
            return out

        cache = functools.lru_cache(maxsize=params["maxsize"], typed=params["typed"])(
            build
        )
        self.caches[name] = cache
        return cache

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, observer, args, kwargs):
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            dur = t1 - t0
            covered = frame.child_s
            if frame.remote:
                covered += covered_length(frame.remote)
            if stack:
                stack[-1].child_s += dur
            else:
                adopter = getattr(self._local, "adopter", None)
                if adopter is not None:
                    with self._lock:
                        adopter.remote.append((t0, t1))
            with self._lock:
                self.calls[name] += 1
                self.self_s[name] += dur - covered
        if observer is not None:
            observer(args, result, dur)
        return result

    def _pool_class(self) -> type:
        tracer = self

        def adopt(parent, fn, *args, **kwargs):
            tracer._local.adopter = parent
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._local.adopter = None

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else getattr(tracer._local, "adopter", None)
                return super().submit(adopt, parent, fn, *args, **kwargs)

        return TracedPool

    # ------------------------------------------------------------ readout

    def builds(self, name: str) -> int:
        return self.caches[name].cache_info().misses

    def hits(self, name: str) -> int:
        return self.caches[name].cache_info().hits
