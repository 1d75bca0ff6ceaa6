"""In-memory span tracer, installed around ``repro`` from the outside.

:class:`Tracer` wraps callables so that each call records one span --
``[name, start, end, parent, label]`` -- in a list kept in memory;
:func:`self_times` folds the spans into per-name self seconds (a span's
duration minus the part of it its child spans cover), so the self times
of all spans add up to the time spent inside any traced call.

:class:`Patch` installs such wrappers on a list of :class:`Target`
functions and methods for the duration of a ``with`` block and puts the
originals back afterwards.  A module-level function is rebound in every
loaded ``repro`` module that imported it by name, so callers reach the
wrapper whichever module they looked the name up in.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

#: Attribute set on every wrapper, so tests can prove none is left behind.
MARK = "__perfbench_traced__"


class Tracer:
    """Spans and counters of one traced run.

    Calls are recorded only while :attr:`label` is set (the traced
    passes set it to ``"cold"`` or ``"warm"``); outside, wrappers call
    straight through.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        #: Distinct keys (such as cells) per counter name.
        self.distinct = defaultdict(set)
        self.label = None
        self._stack = []

    def wrap(self, function, name, count=None):
        """``function`` recording a span ``name`` per call.

        After the call, outside the span, ``count(tracer, args, result)``
        may add to :attr:`counts` or :attr:`distinct`.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if self.label is None:
                return function(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.label]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        setattr(traced, MARK, True)
        return traced


def self_times(spans):
    """``{name: self seconds}`` over ``spans``."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - covered[index]
    return dict(totals)


@dataclass(frozen=True)
class Target:
    """One callable to trace: ``attribute`` is a function name or
    ``Class.method`` in ``module``; the span is called ``name``."""

    module: str
    attribute: str
    name: str
    count: Optional[Callable] = None


def _repro_modules():
    return [module for key, module in list(sys.modules.items())
            if module is not None
            and (key == "repro" or key.startswith("repro."))]


class Patch:
    """Context manager installing ``tracer`` wrappers on ``targets``."""

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = targets
        #: ``(owner, attribute, original)`` for every rebinding made.
        self.bindings = []

    def __enter__(self):
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _install(self, target):
        module = importlib.import_module(target.module)
        owner_name, _, method = target.attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._bind(owner, method, original,
                       self._wrap(original, target))
            return
        original = getattr(module, method)
        wrapped = self._wrap(original, target)
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._bind(loaded, key, original, wrapped)

    def _wrap(self, original, target):
        return self.tracer.wrap(original, target.name, count=target.count)

    def _bind(self, owner, key, original, wrapped):
        self.bindings.append((owner, key, original))
        setattr(owner, key, wrapped)

    def _restore(self):
        while self.bindings:
            owner, key, original = self.bindings.pop()
            setattr(owner, key, original)
