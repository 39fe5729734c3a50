"""In-memory span tracer for the benchmark's traced run.

The tracer replaces named functions of the basinwave modules with wrappers
that record one span per call: name, start, end, parent span, the type of
any exception raised, and an optional note (for example the band count
and size of a banded solve). Spans stay in memory and are written out once,
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Layer:
    """All spans of one traced name, in call order."""

    durations: list[float] = field(default_factory=list)
    self_times: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    notes: list = field(default_factory=list)


class Tracer:
    """Wraps ``(module, attribute, span name, note)`` targets while active.

    It may be entered many times; spans accumulate. A target whose module
    or attribute does not exist is listed in ``missing`` and records no
    spans, so the traced run reports a count of 0 for it instead of failing.

    The function object found at ``basinwave.<module>.<attribute>`` is
    replaced wherever a basinwave module binds it, so calls through
    ``from .core import permeability_factor`` in another module are traced
    too.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        self.missing = []
        for module_name, attribute, span_name, note in self.targets:
            try:
                module = importlib.import_module(f"basinwave.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(original, span_name, note)
            bindings = [
                (mod, key)
                for name, mod in list(sys.modules.items())
                if name == "basinwave" or name.startswith("basinwave.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
            for mod, key in bindings:
                setattr(mod, key, wrapper)
                self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc_info):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, span_name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error, result = "", None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                value = None
                if note is not None and not error:
                    # A note is metadata only; it must never change how the
                    # traced program behaves, whatever its call looks like.
                    try:
                        value = note(args, kwargs, result)
                    except Exception:
                        value = None
                spans[index] = (span_name, start, end, parent, error, value)

        return traced

    def layers(self) -> dict[str, Layer]:
        """Durations, self times, errors and notes grouped by span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _error, _value in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, Layer] = defaultdict(Layer)
        for index, (name, start, end, _parent, error, value) in enumerate(self.spans):
            layer = layers[name]
            layer.durations.append(end - start)
            layer.self_times.append(end - start - covered[index])
            layer.errors.append(error)
            layer.notes.append(value)
        return layers

    def write(self, path) -> None:
        """Write every span as one CSV row (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "error", "note"])
            for index, (name, start, end, parent, error, value) in enumerate(self.spans):
                writer.writerow(
                    [index, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent, error,
                     "" if value is None else value]
                )
