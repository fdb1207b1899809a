"""Spans around calls into the program's public methods.

The benchmark traces from outside the program: :meth:`Tracer.wrap`
replaces a bound method of a live instance with a version that records a
span (name, start, end, parent, request id).  Nothing under ``src/``
changes.  Spans are kept in memory and written out when the run ends.

Parent links come from two places.  Calls nested on one thread (a cache
probe inside ``choose`` inside ``query``) use a per-thread stack.  Calls
that cross from the event loop to a worker thread (the service prices
and executes a request on its thread pool) are linked through the
request's query object: the loop side :meth:`binds <Tracer.bind>` the
object to its span, and a traced call on another thread whose key
argument is that object takes the span as its parent.  Every request
therefore submits its own copy of its query.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        #: ``(span id, name, start, end, parent id, request id)``
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner: dict[int, tuple] = {}   # id(obj) -> (request, span)

    # -- recording -----------------------------------------------------------

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, sid, name, start, end, parent=None, req=None) -> None:
        self.spans.append((sid, name, start, end, parent, req))

    def bind(self, obj, req, sid) -> tuple | None:
        """Link calls keyed by ``obj`` to span ``sid``; returns the previous
        link so the caller can :meth:`restore` it."""
        prev = self._owner.get(id(obj))
        self._owner[id(obj)] = (req, sid)
        return prev

    def restore(self, obj, prev) -> None:
        if prev is None:
            self._owner.pop(id(obj), None)
        else:
            self._owner[id(obj)] = prev

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _context(self, key_obj) -> tuple:
        """``(request, parent span)`` for a call starting now."""
        stack = self._stack()
        if stack:
            return stack[-1]
        if key_obj is not None:
            owner = self._owner.get(id(key_obj))
            if owner is not None:
                return owner
        return (None, None)

    def span(self, name, req=None):
        """Context manager for a synchronous span on this thread."""
        return _SyncSpan(self, name, req)

    def wrap(self, obj, method: str, name: str, key_arg: int | None = None):
        """Trace ``obj.method`` under ``name``.

        ``key_arg`` is the position of the argument (after ``self``) whose
        identity links the call to a request bound on another thread.
        """
        fn = getattr(obj, method)
        tracer = self

        def key_of(args):
            if key_arg is None or len(args) <= key_arg:
                return None
            return args[key_arg]

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                key_obj = key_of(args)
                req, parent = tracer._context(key_obj)
                sid = tracer.new_id()
                prev = (
                    tracer.bind(key_obj, req, sid)
                    if key_obj is not None else None
                )
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.add(sid, name, start, time.perf_counter(),
                               parent, req)
                    if key_obj is not None:
                        tracer.restore(key_obj, prev)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                req, parent = tracer._context(key_of(args))
                sid = tracer.new_id()
                stack = tracer._stack()
                stack.append((req, sid))
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    tracer.add(sid, name, start, end, parent, req)

        setattr(obj, method, traced)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the part its children cover."""
        children = defaultdict(list)
        for sid, _name, start, end, parent, _req in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _name, start, end, _parent, _req in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def layer_self(self) -> dict[str, float]:
        """Span name -> summed self time (seconds)."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for sid, name, *_ in self.spans:
            out[name] += selfs[sid]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for _s, n, start, end, _p, _r in self.spans
                if n == name]

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "req": req,
                }) + "\n")


class _SyncSpan:
    def __init__(self, tracer: Tracer, name: str, req):
        self.tracer, self.name, self.req = tracer, name, req

    def __enter__(self) -> int:
        self.sid = self.tracer.new_id()
        self.parent = self.tracer._context(None)[1]
        self.tracer._stack().append((self.req, self.sid))
        self.start = time.perf_counter()
        return self.sid

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.add(self.sid, self.name, self.start, end,
                        self.parent, self.req)
