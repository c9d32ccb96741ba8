"""Call spans around the library's public functions, kept in memory.

A :class:`Tracer` replaces every public function of the traced modules with
a wrapper that records one span per call: its name, start, end, parent span
and query id.  Wrappers are installed wherever callers look the name up: on
the defining module and on every ``phiribbon`` module that imported the
name.  ``PhiSpec.safe_eval`` and ``PhiSpec.deriv`` are wrapped on the class.
Private helpers are not wrapped, so their time lands in the self time of
the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("dist", "phi", "correlation", "ribbon_mc", "ribbon_phi", "oracle", "cli")
METHODS = (("phi", "PhiSpec", "safe_eval"), ("phi", "PhiSpec", "deriv"))


class Tracer:
    """Records spans while installed; restore the library with :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.query_id = -1  # -1 marks set-up work outside any query
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name_a, start_a, end_a = self.name, self.start, self.end
        parent_a, query_a, stack = self.parent, self.query, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            query_a.append(self.query_id)
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()

        return wrapper

    def install(self, lib) -> None:
        """Wrap the public functions of ``lib``'s modules where callers find them."""
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = getattr(lib, short)
            for attr, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "phiribbon" or modname.startswith("phiribbon.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(getattr(lib, short), cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def span_name(self, i: int) -> str:
        return self.names[self.name[i]]

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        names, name_a, start_a, end_a = self.names, self.name, self.start, self.end
        parent_a, query_a = self.parent, self.query
        with open(path, "w") as fh:
            for i in range(len(start_a)):
                fh.write(
                    f'{{"id":{i},"name":"{names[name_a[i]]}",'
                    f'"start":{start_a[i] - t0:.9f},"end":{end_a[i] - t0:.9f},'
                    f'"parent":{parent_a[i]},"query":{query_a[i]}}}\n'
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never counts one instant twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def has_ancestor(tracer: Tracer, i: int, names: set[str]) -> bool:
    p = tracer.parent[i]
    while p >= 0:
        if tracer.span_name(p) in names:
            return True
        p = tracer.parent[p]
    return False
