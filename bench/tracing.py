"""Spans around pemsim's public functions, for the traced pass.

`Tracer.install` wraps every public function and every public method of a
public class that a pemsim module defines, at every module or class
attribute through which the package reaches it (so `pemsim.engine.substream`
and `pemsim.core.substream` share one wrapper). Each call records a span:
name, start, end and the span that was open when it began. Per-name call
counts, inclusive time and self time are kept for every call; the spans
themselves are kept in memory up to a cap and written out at the end.
`uninstall` restores every attribute it replaced.
"""

from __future__ import annotations

import csv
import enum
import functools
import inspect
import sys
import time
from pathlib import Path
from typing import Callable

MARK = "__pemsim_bench_span__"
SPAN_CAP = 50_000  # spans kept in memory; counts and times cover every call


def pemsim_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "pemsim" or name.startswith("pemsim."))
    ]


def _short(module_name: str) -> str:
    return module_name.removeprefix("pemsim.")


def installed_wrappers() -> list[str]:
    """Attributes of pemsim modules and classes that still hold a span
    wrapper; empty when no tracing is installed."""
    found = []
    for module in pemsim_modules():
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__.startswith("pemsim"):
                found += [
                    f"{value.__module__}.{value.__qualname__}.{name}"
                    for name, member in vars(value).items()
                    if getattr(member, MARK, False)
                ]
    return found


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "observed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.observed: list[float] = []


class Tracer:
    """Records spans for wrapped pemsim functions.

    `observe` maps a span name to a function of (args, result) returning a
    tuple of numbers; the tuples are summed per name (for ratios such as
    accepted admissions per admission).
    """

    def __init__(self, observe: dict[str, Callable[[tuple, object], tuple]] | None = None):
        self.observe = observe or {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.span_count = 0
        self.stats: dict[str, Stat] = {}
        self._open: list[list] = []  # [span id, time covered by child spans]
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, fn, name: str):
        stat = self.stat(name)
        observe = self.observe.get(name)
        open_spans = self._open
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.span_count
            tracer.span_count += 1
            parent = open_spans[-1] if open_spans else None
            frame = [span_id, 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if span_id < SPAN_CAP:
                    spans.append((span_id, name, start, end, -1 if parent is None else parent[0]))
            if observe is not None:
                values = observe(args, result)
                if not stat.observed:
                    stat.observed = [0.0] * len(values)
                for i, v in enumerate(values):
                    stat.observed[i] += v
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, MARK, True)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = {}  # function -> its one wrapper, whatever the route
        for module in pemsim_modules():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("pemsim"):
                    if value not in functions:
                        name = f"{_short(value.__module__)}.{value.__qualname__}"
                        functions[value] = self._wrap(value, name)
                    self._patch(module, attr, functions[value])
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (enum.Enum, BaseException))
                ):
                    for member, fn in list(vars(value).items()):
                        if not member.startswith("_") and inspect.isfunction(fn):
                            name = f"{_short(value.__module__)}.{value.__qualname__}.{member}"
                            self._patch(value, member, self._wrap(fn, name))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            for span_id, name, start, end, parent in self.spans:
                writer.writerow([span_id, name, f"{start:.9f}", f"{end:.9f}", parent])
