"""Out-of-program span tracer for the ``nsmc`` package.

The tracer replaces the public functions and public methods of the
package's layer modules with timing wrappers, from outside: it rebinds
every ``nsmc.*`` namespace that holds the original object (so a function
that ``exact`` imported from ``model`` is traced when ``exact`` calls it)
and rebinds methods on the classes that define them.  ``uninstall``
puts every original back.

Each wrapped call is a span.  Spans nest on a stack; a span's self time
is its wall time minus the wall time of the spans it directly caused.
Statistics are kept per ``(label, key)``, where ``label`` is whatever
the caller set before running (the benchmark sets the filter name) and
``key`` is ``<layer>.<function>`` or ``<layer>.<Class>.<method>``.

No wrapper draws random numbers or touches a generator, so a traced run
consumes every RNG stream exactly as an untraced run does.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter
from types import FunctionType


class Tracer:
    """Wraps public callables of ``nsmc`` modules and records spans.

    ``layers`` maps a layer name to ``(module name, only)``: ``only`` is
    ``None`` to wrap every public function and method defined in the
    module, or a tuple of the public names to wrap (the CLI wraps only
    its entry point, so its internals count as its self time).
    ``observers`` maps key patterns to ``fn(label, result)`` callbacks
    run after a span closes; their cost is charged to ``trace.observer``
    and not to any layer.  ``peak_patterns`` lists key patterns whose
    spans also record the tracemalloc peak (in bytes) inside the span.
    """

    def __init__(self, layers, observers=None, peak_patterns=()):
        self.layers = layers
        self.observers = observers or {}
        self.peak_patterns = tuple(peak_patterns)
        self.label = None
        self.calls = defaultdict(int)  # (label, key) -> calls
        self.self_s = defaultdict(float)  # (label, key) -> self seconds
        self.peak_bytes = defaultdict(int)  # key -> max tracemalloc peak
        self.keys: list[str] = []
        self.warnings: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if (name == "nsmc" or name.startswith("nsmc.")) and mod is not None
        ]
        keys = []
        for layer, (modname, only) in self.layers.items():
            try:
                module = importlib.import_module(modname)
            except ImportError as err:
                self.warnings.append(f"layer {layer}: cannot import {modname} ({err})")
                continue
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if only is not None and name not in only:
                    continue
                if isinstance(obj, FunctionType):
                    key = f"{layer}.{name}"
                    wrapper = self._wrap(key, obj)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, attr, wrapper)
                    keys.append(key)
                elif inspect.isclass(obj):
                    for meth, fn in sorted(vars(obj).items()):
                        if (
                            meth.startswith("_")
                            or not isinstance(fn, FunctionType)
                            or getattr(fn, "__isabstractmethod__", False)
                        ):
                            continue
                        key = f"{layer}.{name}.{meth}"
                        self._set(obj, meth, self._wrap(key, fn))
                        keys.append(key)
            if only is not None:
                for name in only:
                    if not any(k == f"{layer}.{name}" for k in keys):
                        self.warnings.append(
                            f"{modname}.{name} is gone; {layer}.{name} reads as 0"
                        )
        self.keys = keys

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _set(self, target, attr, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        observers = [
            obs for pat, obs in self.observers.items() if fnmatch.fnmatchcase(key, pat)
        ]
        peak = any(fnmatch.fnmatchcase(key, p) for p in self.peak_patterns)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            if peak:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if peak:
                    tracer.peak_bytes[key] = max(
                        tracer.peak_bytes[key], tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                label = tracer.label
                calls[(label, key)] += 1
                self_s[(label, key)] += dt - child
            if observers:
                t1 = perf_counter()
                for obs in observers:
                    obs(tracer.label, result)
                spent = perf_counter() - t1
                self_s[(tracer.label, "trace.observer")] += spent
                if stack:
                    stack[-1] += spent
            return result

        return wrapper

    # -- queries ----------------------------------------------------------

    def matching(self, patterns) -> list[str]:
        """Installed keys matching any of the fnmatch ``patterns``."""
        return [k for k in self.keys if any(fnmatch.fnmatchcase(k, p) for p in patterns)]

    def totals(self, label, patterns) -> tuple[int, float]:
        """``(calls, self seconds)`` of ``label`` summed over matching keys."""
        keys = self.matching(patterns)
        return (
            sum(self.calls[(label, k)] for k in keys),
            sum(self.self_s[(label, k)] for k in keys),
        )
