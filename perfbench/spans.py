"""In-memory span recorder for the traced benchmark pass.

Every wrapped call records one span - name, start, end, parent span -
into four parallel ``array`` columns (32 bytes a span), so a traced
pass of a few hundred thousand calls costs megabytes, not the
gigabytes a tuple per span would.  Self time is accumulated online:
when a span ends, its duration is charged to its parent's child time
and ``self = duration - child time``.  The self times of every span
under one root therefore add up exactly to the root's duration, which
is what the closing-the-books table relies on.

Wrappers are installed by rebinding a public function or method in its
defining module (and, for a module-level function, in every ``repro``
module that imported it by name) and removed by restoring the
originals.  The recorder is single-threaded: the traced workloads call
the program from one thread.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Hook run after a wrapped call returns: ``after(args, result)``.
After = Callable[[tuple, Any], None]

_END = object()


class Tracer:
    """Span columns plus per-name call counts and self/total time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        #: Calls counted without a span.
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._child: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def wrap(self, name: str, fn: Callable, after: Optional[After] = None) -> Callable:
        """``fn`` recorded as a span named ``name``.

        The bookkeeping is inlined rather than shared with
        :meth:`span`: the hottest wrapped calls run a few hundred
        thousand times a pass.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack, child = self._stack, self._child
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col = self.start_col, self.end_col
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            end_col.append(0)
            stack.append(idx)
            child.append(0)
            start = clock()
            start_col.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                end_col[idx] = end
                stack.pop()
                duration = end - start
                total_ns[nid] += duration
                self_ns[nid] += duration - child.pop()
                calls[nid] += 1
                if child:
                    child[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        nid = self.name_id(name)
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.end_col.append(0)
        self._stack.append(idx)
        self._child.append(0)
        start = time.perf_counter_ns()
        self.start_col.append(start)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.end_col[idx] = end
            self._stack.pop()
            duration = end - start
            self.total_ns[nid] += duration
            self.self_ns[nid] += duration - self._child.pop()
            self.calls[nid] += 1
            if self._child:
                self._child[-1] += duration

    def wrap_first_item(self, name: str, gen_fn: Callable) -> Callable:
        """Generator function ``gen_fn`` with a span from its call to
        its first item (for a stream, the wait for the first event)."""

        @functools.wraps(gen_fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            items = gen_fn(*args, **kwargs)
            with self.span(name):
                first = next(items, _END)
            if first is _END:
                return
            yield first
            yield from items

        return traced

    def wrap_count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``name``, with no span."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``"module:Attr.path"`` with ``make(original)``.

        A module-level function is also rebound in every loaded
        ``repro`` module that imported it by name, so call sites that
        resolve it as a global of their own module see the wrapper too.
        """
        module_name, _, path = target.partition(":")
        owner: Any = sys.modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = make(original)
        self._set(owner, attr, wrapped, original)
        if parents:
            return
        for name, module in list(sys.modules.items()):
            if module is owner or module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped, original)

    def _set(self, owner: Any, attr: str, value: Any, original: Any) -> None:
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def total_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_ns[nid] / 1e9

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path: str) -> None:
        """Dump every span: the name table plus the four columns."""
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "names": self.names,
                    "name": self.name_col,
                    "parent": self.parent_col,
                    "start_ns": self.start_col,
                    "end_ns": self.end_col,
                },
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
