"""Outside-in per-layer tracing: wrap named functions, time every call.

:class:`LayerTracer` replaces each target function with a timing
wrapper for the duration of a ``with`` block and restores the original
bindings on exit. The program itself is not edited:

* a method target is replaced on its class, so every instance and every
  importer of the class sees the wrapper;
* a module-level function target is replaced in *every* loaded module of
  ``package`` that bound it (``from x import f`` copies the binding into
  the importer's namespace, so patching only the defining module would
  miss those call sites). Call sites that import lazily inside a
  function body read the defining module's attribute and see the
  wrapper too.

For each target the tracer records the call count, the cumulative wall
time and the self wall time (cumulative time minus time spent in other
traced calls made from inside it). Optional hooks derive work counters
from arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Target:
    """One function to trace.

    ``name`` is the metric prefix (``<layer>.<qualname>``); ``module``
    and ``qualname`` locate the function (``Class.method`` for methods).
    ``before(tracer, args)`` runs at call entry and returns a state
    object; ``after(tracer, state, args, result)`` runs after a call
    returns normally. Both are optional.
    """

    def __init__(self, layer, module, qualname, *, before=None, after=None):
        self.name = f"{layer}.{qualname}"
        self.module = module
        self.qualname = qualname
        self.before = before
        self.after = after


class LayerTracer:
    """Context manager that traces ``targets`` while active.

    ``package`` limits which loaded modules get their bindings replaced
    (``"repro"`` matches ``repro`` and every ``repro.*`` module).
    """

    def __init__(self, targets, *, package="repro"):
        self.targets = list(targets)
        self.package = package
        self.calls = {t.name: 0 for t in self.targets}
        self.cum_s = {t.name: 0.0 for t in self.targets}
        self.self_s = {t.name: 0.0 for t in self.targets}
        self.counters = {}
        """Work counters the hooks fill in (name -> number)."""
        self._stack = []
        self._undo = []

    def __enter__(self):
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def count(self, name, amount=1):
        """Add ``amount`` to work counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def _modules(self):
        prefix = self.package + "."
        return [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == self.package or name.startswith(prefix))
        ]

    def _install(self, target):
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:
            original = owner.__dict__[attr]
            self._bind(owner, attr, original, self._wrap(target, original))
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(target, original)
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, key, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, target, fn):
        name = target.name
        before, after = target.before, target.after
        calls, cum_s, self_s = self.calls, self.cum_s, self.self_s
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(tracer, args) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[name] += 1
                cum_s[name] += elapsed
                self_s[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(tracer, state, args, result)
            return result

        return traced
