"""Outside-in tracing of popmaxent's layers.

:class:`Tracer` wraps each layer's public entry point where its caller
looks it up: a function is replaced in every popmaxent module that binds
it (``popmaxent.cli.fit_hard`` as well as ``popmaxent.model.fit_hard``),
a method on its class.  Each call records a span (name, start, end,
parent) and, where the layer reports work, a count.  Spans stay in memory
until :meth:`Tracer.write_jsonl`.  Nothing in the program changes; the
wrappers are removed when the ``installed`` block ends.

A span's parent is the innermost open span of its thread; a span opened
on a worker thread with no open span of its own takes the innermost span
open on the thread that created the tracer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(dict(id=sid, name=name, start=start, end=end, parent=parent))

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, kwargs, result)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attribute, span name, after)`` target.

        A module-level function is replaced in every loaded ``popmaxent``
        module that binds the same object; a class attribute on the class.
        """
        patched = []
        for owner, attr, name, after in targets:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, after)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod for key, mod in list(sys.modules.items())
                    if (key == "popmaxent" or key.startswith("popmaxent."))
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                patched.append((holder, attr, original))
                setattr(holder, attr, traced)
        try:
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    # -- reading the spans back ---------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s["start"]
            for c in sorted(children[s["id"]], key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def outermost(self, names) -> list[dict]:
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        names = set(names)
        by_id = {s["id"]: s for s in self.spans}
        out = []
        for s in self.spans:
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def seconds(self, *names) -> float:
        return sum(s["end"] - s["start"] for s in self.outermost(names))

    def calls(self, *names) -> int:
        names = set(names)
        return sum(1 for s in self.spans if s["name"] in names)

    def self_seconds(self, *names) -> float:
        own = self.self_times()
        return sum(own[s["id"]] for s in self.spans if s["name"] in names)

    def subtree(self, root_id: int) -> list[dict]:
        kids: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        out, todo = [], [root_id]
        while todo:
            sid = todo.pop()
            out.append(sid)
            todo.extend(c["id"] for c in kids[sid])
        return [s for s in self.spans if s["id"] in set(out)]

    def write_jsonl(self, path, extra: dict | None = None) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps({**(extra or {}), **s}) + "\n")
