"""Span tracer for the benchmark's traced runs.

A ``Tracer`` wraps named callables of a package where its callers look
them up: a module-level function is replaced in every module of the
package that holds a reference to it, a method on its class, and a class
by its ``__init__``.  Each wrapper keeps, per name, the number of calls,
the total time (outermost spans of that name only, so recursion is not
counted twice) and the self time (span duration minus the time of
traced spans nested in it).  Spans are aggregated in memory while the
tracer is installed and the original callables are put back when it is
removed.

Names are written ``module.attr`` or ``module.Class.method`` relative to
the package.  A name that does not resolve to a callable is recorded in
``absent`` and reads as zero calls; it never stops a run.

``call_cost`` measures what one traced call adds to an untraced one, so
a traced run can report its own overhead as calls times that cost.
"""

import functools
import statistics
import sys
import time
import types


class Tracer:
    """Context manager that installs per-name span wrappers.

    observers maps a traced name to ``fn(args, result)``, called after
    each successful call to record counts at that boundary.  An observer
    that finds the call's arguments or result no longer shaped as it
    expects is disabled and its name added to ``absent``.
    """

    def __init__(self, package, names, observers=None):
        self.package = package
        self.names = list(dict.fromkeys(names))
        self.observers = dict(observers or {})
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.total_s = dict.fromkeys(self.names, 0.0)
        self.root_s = 0.0       # summed duration of outermost spans
        self.absent = []
        self._children = []     # traced time nested in each open span
        self._undo = []

    def __enter__(self):
        try:
            for name in self.names:
                self._install(name)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, name):
        mod_name, _, path = name.partition(".")
        owner = sys.modules.get(f"{self.package}.{mod_name}")
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        target = getattr(owner, attr, None) if owner is not None else None
        if isinstance(target, type):
            init = target.__dict__.get("__init__")
            if isinstance(init, types.FunctionType):
                self._patch(target, "__init__", self._wrap(name, init))
                return
        elif isinstance(owner, type):
            method = owner.__dict__.get(attr)
            if isinstance(method, types.FunctionType):
                self._patch(owner, attr, self._wrap(name, method))
                return
        elif isinstance(target, types.FunctionType):
            wrapper = self._wrap(name, target)
            for module in self._modules():
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)
            return
        self.absent.append(name)

    def _modules(self):
        prefix = self.package + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def _patch(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _restore(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _wrap(self, name, fn):
        children = self._children
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                nested = children.pop()
                depth[0] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - nested
                if not depth[0]:
                    self.total_s[name] += duration
                if children:
                    children[-1] += duration
                else:
                    self.root_s += duration
            observe = self.observers.get(name)
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, IndexError):
                    del self.observers[name]
                    self.absent.append(f"{name} (observer)")
            return result

        return traced


def call_cost(calls=20000, repeats=5):
    """Seconds one traced call adds to a plain one: the median over
    `repeats` timings of `calls` calls of an empty function, wrapped
    minus bare."""
    def empty():
        pass

    traced = Tracer(None, ["empty"])._wrap("empty", empty)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            traced()
        wrapped = clock() - start
        start = clock()
        for _ in range(calls):
            empty()
        bare = clock() - start
        costs.append((wrapped - bare) / calls)
    return max(statistics.median(costs), 0.0)
