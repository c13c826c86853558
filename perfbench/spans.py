"""Span aggregation for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces a
function with a wrapper in every ``msograph`` module that looks the
function up by name, and ``uninstall`` puts the originals back.  Spans
are not kept one per call (the census makes millions of calls); each is
folded into a running (count, total, self) record keyed by (name,
parent), where the parent is the name of the innermost enclosing span
or ``""`` at top level.  A span's self time is its duration minus the
durations of its direct children; the run is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Iterable


class Spans:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # each open span: [name, seconds spent in direct children]
        self.stack: list[list] = []
        # (name, parent) -> [count, total seconds, self seconds]
        self.agg: dict[tuple[str, str], list] = {}
        self.counters: Counter = Counter()

    def _close(self, frame: list, parent: str, dt: float) -> None:
        rec = self.agg.get((frame[0], parent))
        if rec is None:
            rec = self.agg[(frame[0], parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]
        if self.stack:
            self.stack[-1][1] += dt

    def _count_unknown(self, exc: BaseException, unknown: tuple) -> None:
        """``unknown`` is (counter, exception types).  Each exception is
        counted once, by the innermost span that declares its type."""
        if unknown and isinstance(exc, unknown[1]) and \
                not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.counters[unknown[0]] += 1

    def wrap(self, fn: Callable, name: str, *, unknown: tuple = (),
             on_result: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``.  ``unknown`` is (counter,
        exception types) for outcomes that mean "unknown";
        ``on_result(spans, args, kwargs, result, seconds)`` runs after
        the span closes."""
        stack, clock, close = self.stack, self.clock, self._close

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                dt = clock() - t0
                stack.pop()
                close(frame, parent, dt)
                self._count_unknown(exc, unknown)
                raise
            dt = clock() - t0
            stack.pop()
            close(frame, parent, dt)
            if on_result is not None:
                on_result(self, args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn: Callable, name: str, *,
                       unknown: tuple = ()) -> Callable:
        """A generator function whose every step is timed as span
        ``name``; ``<name>.yields`` counts the items it produced."""
        stack, clock, close = self.stack, self.clock, self._close

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                parent = stack[-1][0] if stack else ""
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    dt = clock() - t0
                    stack.pop()
                    close(frame, parent, dt)
                    return
                except BaseException as exc:
                    dt = clock() - t0
                    stack.pop()
                    close(frame, parent, dt)
                    self._count_unknown(exc, unknown)
                    raise
                dt = clock() - t0
                stack.pop()
                close(frame, parent, dt)
                self.counters[name + ".yields"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading the aggregate ---------------------------------------------

    def calls(self, name: str, *, parents: Iterable[str] | None = None,
              exclude: Iterable[str] = ()) -> int:
        return sum(rec[0] for key, rec in self._select(name, parents, exclude))

    def total(self, name: str, *, parents: Iterable[str] | None = None,
              exclude: Iterable[str] = ()) -> float:
        return sum(rec[1] for key, rec in self._select(name, parents, exclude))

    def self_time(self, name: str, *, parents: Iterable[str] | None = None,
                  exclude: Iterable[str] = ()) -> float:
        return sum(rec[2] for key, rec in self._select(name, parents, exclude))

    def _select(self, name, parents, exclude):
        parents = None if parents is None else set(parents)
        exclude = set(exclude)
        for key, rec in self.agg.items():
            if key[0] != name or key[1] in exclude:
                continue
            if parents is not None and key[1] not in parents:
                continue
            yield key, rec

    def outer_total(self, names: Iterable[str]) -> float:
        """Time inside any of ``names``, counting nested spans of the
        same set once."""
        names = set(names)
        return sum(rec[1] for (n, p), rec in self.agg.items()
                   if n in names and p not in names)

    def merge(self, data: dict) -> None:
        """Add the aggregate of another run, as ``to_json`` wrote it."""
        for name, parent, count, total, self_s in data["spans"]:
            rec = self.agg.setdefault((name, parent), [0, 0.0, 0.0])
            rec[0] += count
            rec[1] += total
            rec[2] += self_s
        self.counters.update(data["counters"])

    def to_json(self) -> dict:
        return {
            "spans": [[name, parent, *rec]
                      for (name, parent), rec in sorted(self.agg.items())],
            "counters": dict(self.counters),
        }


def install(spans: Spans, targets: Iterable[tuple]) -> list[tuple]:
    """Replace each target function in every loaded ``msograph`` module
    that holds it, so that every lookup by name reaches the wrapper.

    A target is ``(module, attribute, span name, kind, options)`` with
    kind ``"call"`` or ``"generator"``; list each function once.
    Returns the undo list for ``uninstall``."""
    undo = []
    owners = [m for k, m in sorted(sys.modules.items()) if m is not None
              and (k == "msograph" or k.startswith("msograph."))]
    for module, attr, name, kind, opts in targets:
        original = getattr(module, attr)
        make = spans.wrap if kind == "call" else spans.wrap_generator
        wrapped = make(original, name, **opts)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    undo.append((owner, key, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
