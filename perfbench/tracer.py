"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records one span (id, parent id, name, start, end, time
covered by its direct children) in memory.  Self time is the span's duration
minus that child coverage, which stays correct across recursion such as
``MPLEngine.coeff_series`` calling itself.  Optional probes turn arguments or
return values into counters at the same boundary.

Patching replaces the function in every ``associators.*`` module that holds
it (a function imported by name into another module is patched there too),
and ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "associators"


class Tracer:
    def __init__(self):
        self.names = []          # name id -> span name
        self.spans = []          # (id, parent, name id, start, end, child time)
        self.counters = Counter()
        self._stack = []         # open spans: [id, child time]
        self._next_id = 1
        self._patched = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        nid = len(self.names)
        self.names.append(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self.counters, args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, parent, nid, t0, t1, frame[1]))
            if post is not None:
                post(self.counters, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr, name, pre=None, post=None):
        """Wrap module.attr and every other package module's binding of the
        same function object."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, pre, post)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, pre=None, post=None):
        original = cls.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError("only plain methods are traced: %s" % name)
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, pre, post))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output ----------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counters": dict(self.counters),
                       "spans": self.spans}, fh, separators=(",", ":"))


class SpanIndex:
    """Aggregates over a finished tracer's spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.by_name = {}
        for span in tracer.spans:
            self.by_name.setdefault(tracer.names[span[2]], []).append(span)
        self._name_of_id = {s[0]: tracer.names[s[2]] for s in tracer.spans}

    def _spans(self, names):
        out = []
        for n in names:
            out.extend(self.by_name.get(n, ()))
        return out

    def calls(self, names):
        return len(self._spans(names))

    def self_time(self, names):
        return sum(s[4] - s[3] - s[5] for s in self._spans(names))

    def cum_time(self, names):
        """Wall time covered by the named spans; nested or recursive spans of
        the same set are counted once."""
        total, end = 0.0, None
        for s in sorted(self._spans(names), key=lambda s: s[3]):
            if end is None or s[3] >= end:  # spans nest, so skip contained ones
                total += s[4] - s[3]
                end = s[4]
        return total

    def calls_with_parent(self, name, parent_name):
        return sum(1 for s in self.by_name.get(name, ())
                   if self._name_of_id.get(s[1]) == parent_name)

    def calls_without_child(self, name, child_name):
        parents = {s[1] for s in self.by_name.get(child_name, ())}
        return sum(1 for s in self.by_name.get(name, ()) if s[0] not in parents)

    def self_time_by_prefix(self, prefix):
        names = [n for n in self.by_name if n.startswith(prefix + ".")]
        return self.self_time(names)
