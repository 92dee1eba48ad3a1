"""In-memory tracing of package functions, installed from outside the package.

Each traced function is replaced by one wrapper in every namespace of the
package that binds it: module globals (``multiply`` is bound in
``weyl_algebra``, ``weyl_functors`` and ``harness``) and class dictionaries
(``CoeffExpr.__rmul__`` is the same function as ``__mul__``).  A call made
through any of those names is therefore counted under one metric name.

Per thread the tracer keeps a stack of open calls, so a call's self time is
its duration minus the time of the traced calls it made directly.
Inclusive time counts only the outermost call of a recursive function.
Every call of a function not in ``aggregate_only`` also leaves a span
``(id, parent id, name, start, end)``; spans stay in memory until
``write_spans``.  ``restore`` puts every original back.
"""

import functools
import importlib
import json
import sys
import threading
import time


class _ThreadState:
    __slots__ = ("index", "stack", "active", "totals", "spans", "next_id")

    def __init__(self, index):
        self.index = index
        self.stack = []  # open calls: [span id, name, time of traced children]
        self.active = {}  # name -> open calls of that name on this thread
        self.totals = {}  # name -> [calls, inclusive s, self s]
        self.spans = []
        self.next_id = 0


class Tracer:
    def __init__(self, package, targets, aggregate_only=()):
        self.package = package
        self.targets = tuple(targets)
        self.aggregate_only = frozenset(aggregate_only)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []  # (namespace object, attribute, original)

    # --- install and restore ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        pkg = importlib.import_module(self.package)
        modules = [pkg] + [
            importlib.import_module("%s.%s" % (self.package, name))
            for name in sorted({t.split(".", 1)[0] for t in self.targets} | _submodules(pkg))
        ]
        originals = {}
        for target in self.targets:
            module_name, qualname = target.split(".", 1)
            owner = importlib.import_module("%s.%s" % (self.package, module_name))
            for part in qualname.split(".")[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner)[qualname.split(".")[-1]]
            if not callable(fn):
                raise TypeError("%s is not callable" % target)
            originals[id(fn)] = (fn, self._wrap(target, fn))
        try:
            for module in modules:
                self._patch_namespace(module, originals)
                for value in list(vars(module).values()):
                    if isinstance(value, type) and value.__module__.startswith(self.package):
                        self._patch_namespace(value, originals)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch_namespace(self, owner, originals):
        for attr, value in list(vars(owner).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                self._patches.append((owner, attr, value))
                setattr(owner, attr, hit[1])

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # --- recording -------------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _wrap(self, name, fn):
        keep_spans = name not in self.aggregate_only
        clock = time.perf_counter
        get_state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            span_id = state.next_id
            state.next_id = span_id + 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            outer = state.active.get(name, 0)
            state.active[name] = outer + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.active[name] = outer
                elapsed = end - start
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                if outer == 0:
                    total[1] += elapsed
                total[2] += elapsed - frame[2]
                parent = None
                if stack:
                    stack[-1][2] += elapsed
                    parent = stack[-1][0]
                if keep_spans:
                    state.spans.append((span_id, parent, name, start, end))

        return traced

    # --- results ---------------------------------------------------------------

    def totals(self):
        """name -> (calls, inclusive s, self s), summed over threads."""
        merged = {name: [0, 0.0, 0.0] for name in self.targets}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, incl, own) in state.totals.items():
                acc = merged[name]
                acc[0] += calls
                acc[1] += incl
                acc[2] += own
        return {name: tuple(v) for name, v in merged.items()}

    def write_spans(self, path):
        with self._lock:
            states = list(self._states)
        payload = {
            "fields": ["thread", "id", "parent", "name", "start", "end"],
            "aggregate_only": sorted(self.aggregate_only),
            "spans": [
                [state.index, sid, parent, name, start, end]
                for state in states
                for sid, parent, name, start, end in state.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(payload["spans"])


def _submodules(pkg):
    """Names of the package's modules that are already imported."""
    prefix = pkg.__name__ + "."
    return {
        name[len(prefix):]
        for name in list(sys.modules)
        if name.startswith(prefix) and "." not in name[len(prefix):]
    }
