"""Outside-in layer attribution: wrap public callables, record busy time.

The probe never edits the program.  It swaps an *instance's* class for a
one-off subclass whose listed methods and properties are timing wrappers
around the originals, so calls made through ``self``, through a shared
reference held by another component, or through a property all land in the
wrapper, while other instances of the same class stay untouched.
:meth:`LayerProbe.restore` puts every original class back.

Each wrapper records, per label (``<layer>.<callable>``): calls, items
(when the caller says how to count them), inclusive nanoseconds and self
nanoseconds.  Self time is inclusive time minus the inclusive time of
wrapped calls made underneath it, so the self times of every label plus the
unwrapped remainder of the top-level frame add up to the wall time of the
region :meth:`LayerProbe.region` measured: the attribution tiles the run.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable

__all__ = ["LayerProbe", "LabelStats"]


class LabelStats:
    """Counters for one wrapped callable."""

    __slots__ = ("calls", "items", "inclusive_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.inclusive_ns = 0
        self.self_ns = 0


class LayerProbe:
    """Timing wrappers over chosen callables of chosen instances."""

    def __init__(self) -> None:
        self.stats: dict[str, LabelStats] = {}
        # One child-time accumulator per open frame; index 0 is the region.
        self._stack: list[int] = [0]
        self._swapped: list[tuple[Any, type]] = []
        self.wall_ns = 0

    # ------------------------------------------------------------------
    def wrap(self, label: str, fn: Callable, items: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped to record under ``label``.

        ``items(args, result)`` (optional) counts the work items of one
        call, e.g. the rows of a batch.
        """
        record = self.stats.setdefault(label, LabelStats())
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                record.calls += 1
                record.inclusive_ns += elapsed
                record.self_ns += elapsed - children
            if items is not None:
                record.items += items(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def instrument(self, obj: Any, layer: str, names, items: dict[str, Callable] | None = None) -> None:
        """Route ``obj``'s listed methods/properties through timing wrappers.

        Labels are ``f"{layer}.{name}"``.  Instruments an object once; a
        second call for the same object is an error (the wrappers would
        nest and double-count).
        """
        if any(swapped is obj for swapped, _ in self._swapped):
            raise ValueError(f"{type(obj).__name__} instance is already instrumented")
        items = items or {}
        cls = type(obj)
        # An empty __slots__ keeps the instance layout identical, which is
        # what lets __class__ be swapped on slotted classes too.
        overrides: dict[str, Any] = {"__slots__": ()}
        for name in names:
            attr = inspect.getattr_static(cls, name)
            label = f"{layer}.{name}"
            if isinstance(attr, property):
                overrides[name] = property(self.wrap(label, attr.fget, items.get(name)))
            elif callable(attr):
                overrides[name] = self.wrap(label, attr, items.get(name))
            else:
                raise TypeError(f"{cls.__name__}.{name} is neither a method nor a property")
        obj.__class__ = type(cls.__name__, (cls,), overrides)
        self._swapped.append((obj, cls))

    def restore(self) -> None:
        """Give every instrumented object its original class back."""
        while self._swapped:
            obj, cls = self._swapped.pop()
            obj.__class__ = cls

    # ------------------------------------------------------------------
    @contextmanager
    def region(self):
        """Measure the wall time of the attributed region (the replay)."""
        if len(self._stack) != 1:
            raise RuntimeError("probe regions do not nest")
        start = time.perf_counter_ns()
        try:
            yield self
        finally:
            self.wall_ns += time.perf_counter_ns() - start

    @property
    def attributed_ns(self) -> int:
        """Inclusive time of the top-level wrapped calls inside regions."""
        return self._stack[0]

    @property
    def unattributed_ns(self) -> int:
        """Region wall time spent outside every wrapped call (the replay loop)."""
        return self.wall_ns - self._stack[0]

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed per layer (the label prefix before the first dot)."""
        totals: dict[str, int] = {}
        for label, record in self.stats.items():
            layer = label.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0) + record.self_ns
        return totals

    def get(self, label: str) -> LabelStats:
        """Stats for ``label``; an all-zero record when it was never wrapped."""
        return self.stats.get(label) or LabelStats()
