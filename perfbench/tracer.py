"""Span tracing of the spdmix package from outside it.

:meth:`Tracer.install` replaces every public function of every spdmix module,
and every public method of spdmix classes, with a wrapper that records a
span. Modules import names with ``from ... import``, so a function is
replaced under its name in every spdmix module that binds it: wrapping
``spdmix.linalg.eig_sym`` alone would miss the calls made through
``augment`` and ``spdness``. The symmetric eigensolvers spdmix can reach
(scipy ``eigh``/``eigvalsh``, numpy ``eigh``/``eigvalsh``) are wrapped the
same way and also counted per matrix, split into full and values-only
solves, so a change of backend stays visible. :meth:`Tracer.uninstall`
restores every binding.

A span records its name, start, end and parent. A span's self time is its
duration minus that of its direct children; spans stay in memory and
:meth:`Tracer.save` writes them out at the end of a run. Spans are recorded
only inside an operation opened with :meth:`Tracer.operation`, and only from
the thread that opened it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import numpy.linalg
import scipy.linalg

MODULES = ("linalg", "metrics", "spdness", "augment", "regress", "data_io", "cli")

# (owner module, attribute, values-only?) for every eigensolver entry point.
_EIGENSOLVERS = (
    (scipy.linalg, "eigh", False),
    (scipy.linalg, "eigvalsh", True),
    (numpy.linalg, "eigh", False),
    (numpy.linalg, "eigvalsh", True),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._thread = None
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[int, list] = {}  # name id -> [calls, seconds, self seconds]
        self.eig_full = 0
        self.eig_values = 0

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> None:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([index, perf_counter(), 0.0])

    def _close(self) -> None:
        end = perf_counter()
        index, start, child = self._stack.pop()
        duration = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.setdefault(self.span_name[index], [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child

    def _recording(self) -> bool:
        return bool(self._stack) and threading.get_ident() == self._thread

    @contextmanager
    def operation(self, name: str):
        """Root span of one CLI operation; resets the per-operation stats."""
        self.stats = {}
        self.eig_full = self.eig_values = 0
        self._thread = threading.get_ident()
        self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close()

    def calls(self, name: str) -> int:
        """Calls of ``name`` in the current or last operation."""
        return self.stats.get(self._ids.get(name), [0])[0]

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _wrap_eigensolver(self, fn, name: str, values_only: bool):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self._recording():
                return fn(a, *args, **kwargs)
            matrices = a.shape[0] if np.ndim(a) == 3 else 1
            if values_only or kwargs.get("eigvals_only"):
                self.eig_values += matrices
            else:
                self.eig_full += matrices
            self._open(name_id)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public spdmix function and method, and the eigensolvers."""
        modules = [importlib.import_module(f"spdmix.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for owner, attr, values_only in _EIGENSOLVERS:
            fn = getattr(owner, attr)
            wrappers[id(fn)] = self._wrap_eigensolver(
                fn, f"lapack.{owner.__name__.split('.')[0]}.{attr}", values_only
            )
            self._patch(owner, attr, wrappers[id(fn)])
        classes = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
                elif inspect.isfunction(obj) and obj.__module__.startswith("spdmix."):
                    if id(obj) not in wrappers:
                        short = obj.__module__.rsplit(".", 1)[1]
                        wrappers[id(obj)] = self._wrap(obj, f"{short}.{obj.__qualname__}")
                    self._patch(module, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__.startswith("spdmix."):
                    classes[id(obj)] = obj
        for cls in classes.values():
            short = cls.__module__.rsplit(".", 1)[1]
            for attr, member in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{short}.{cls.__qualname__}.{attr}"
                if isinstance(member, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(member.__func__, name)))
                elif isinstance(member, staticmethod):
                    self._patch(cls, attr, staticmethod(self._wrap(member.__func__, name)))
                elif inspect.isfunction(member):
                    self._patch(cls, attr, self._wrap(member, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
