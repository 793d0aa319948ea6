"""Tracing starext from outside: wrap public callables, record spans.

The tracer never edits the package's files. ``install`` replaces every public
function and public method of the layer modules with a wrapper, at every
place the package binds it: the defining module, each module that did
``from .x import name``, the package ``__init__`` and dict registries
such as ``suites.SUITE_RUNNERS``. ``uninstall`` puts the originals back.

Each wrapped call appends one span (name, start, end, parent) to flat
arrays kept in memory. A recursive call to the span already on top of the
stack extends that span instead of opening a new one, so call counts mean
"entries into the function from another function".
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

PACKAGE = "starext"

#: the repository's modules, which are the benchmark's layers
LAYERS = (
    "cli", "scenario", "suites", "axioms", "hyper", "oracle",
    "funlang", "nary", "transfer", "fragments", "topology", "gen",
)

#: scalar per-index helpers: they run once per index inside a mask or a
#: value vector, so wrapping them would cost more than the work they do
#: and their time already shows as the self time of their caller
PER_INDEX = frozenset({
    "funlang.pair",
    "funlang.unpair",
    "funlang.interpret",
    "funlang.IndexPredicate.truth_at",
    "hyper.Hyperpoint.value_at",
    "nary.encode_args",
    "nary.NaryFn.apply",
    "nary.NaryRel.holds",
})

#: the CLI entry point is timed by the benchmark, not traced, so that
#: what it does outside the layers shows as unattributed time
NOT_TRACED = frozenset({"cli.main"})


@dataclass
class Hook:
    """Callbacks a wrapper runs inside its span.

    ``before(span, args, kwargs)`` before the call, ``after(span, result)``
    on return, ``on_error(span, exc)`` when the call raises; ``span`` is
    the index of the span being recorded.
    """

    before: Callable | None = None
    after: Callable | None = None
    on_error: Callable | None = None


@dataclass
class _Site:
    owner: object  # module, class or dict
    key: str
    original: object
    is_dict: bool = False


class Tracer:
    """Span recorder. Single-threaded: the starext run is one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self._sites: list[_Site] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, hook: "Hook | None" = None):
        """A wrapper recording one span per call of ``fn``.

        The hook's callbacks run inside the span, so their small cost is
        charged to the layer they describe rather than to its caller.
        """
        nid = self._nid(name)
        clock = time.perf_counter
        start, end, names, parents, stack = (
            self.start, self.end, self.name, self.parent, self.stack)
        hook = hook or Hook()
        before, after, on_error = hook.before, hook.after, hook.on_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            start.append(clock())
            end.append(0.0)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            try:
                if before is not None:
                    before(idx, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(idx, result)
                return result
            except BaseException as exc:
                if on_error is not None:
                    on_error(idx, exc)
                raise
            finally:
                stack.pop()
                end[idx] = clock()

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every public callable of the layer modules everywhere it is bound.

        ``hooks`` maps a span name to the :class:`Hook` of its wrapper.
        """
        hooks = hooks or {}
        pkg = PACKAGE
        modules = {m: sys.modules[f"{pkg}.{m}"] for m in LAYERS}
        replacement: dict[int, object] = {}  # id(original) -> wrapper

        for layer, mod in modules.items():
            for key, obj in list(vars(mod).items()):
                if key.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{key}"
                    if name in PER_INDEX or name in NOT_TRACED:
                        continue
                    replacement[id(obj)] = self.wrap(name, obj, hooks.get(name))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, (Enum, BaseException, tuple))):
                    self._wrap_class(layer, obj, hooks)

        # rebind every module-level reference in the package, and registry
        # dicts holding them, to the wrappers
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg or modname.startswith(pkg + ".")):
                continue
            for key, obj in list(vars(mod).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None:
                    self._sites.append(_Site(mod, key, obj))
                    setattr(mod, key, wrapper)
                elif isinstance(obj, dict):
                    for dkey, dval in list(obj.items()):
                        wrapper = replacement.get(id(dval))
                        if wrapper is not None:
                            self._sites.append(_Site(obj, dkey, dval, is_dict=True))
                            obj[dkey] = wrapper

    def _wrap_class(self, layer: str, cls: type, hooks: dict) -> None:
        for key, raw in list(vars(cls).items()):
            if key.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{key}"
            if name in PER_INDEX or name in NOT_TRACED:
                continue
            hook = hooks.get(name)
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__, hook))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, hook))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw, hook)
            else:
                continue
            self._sites.append(_Site(cls, key, raw))
            setattr(cls, key, new)

    def uninstall(self) -> None:
        for site in reversed(self._sites):
            if site.is_dict:
                site.owner[site.key] = site.original
            else:
                setattr(site.owner, site.key, site.original)
        self._sites.clear()

    # -- analysis --------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> "SpanSummary":
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        names = np.frombuffer(self.name, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = end - start
        child = np.zeros(n)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        return SpanSummary(
            names=list(self.names),
            calls=np.bincount(names, minlength=k),
            total_s=np.bincount(names, weights=dur, minlength=k),
            self_s=np.bincount(names, weights=self_time, minlength=k),
            top_level_s=float(dur[~nested].sum()),
            span_names=names,
            span_parents=parents,
            span_self=self_time,
        )


@dataclass
class SpanSummary:
    names: list[str]
    calls: np.ndarray
    total_s: np.ndarray
    self_s: np.ndarray
    top_level_s: float
    span_names: np.ndarray
    span_parents: np.ndarray
    span_self: np.ndarray

    def _id(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls_of(self, name: str) -> int:
        i = self._id(name)
        return 0 if i is None else int(self.calls[i])

    def self_of(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.self_s[i])

    def total_of(self, name: str) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.total_s[i])

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time summed over every span name of each layer."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer][0] += int(self.calls[i])
            out[layer][1] += float(self.self_s[i])
        return {k: (v[0], v[1]) for k, v in out.items()}

    def spans_named(self, name: str) -> np.ndarray:
        i = self._id(name)
        if i is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.span_names == i)

    def spans_with_parent(self, name: str, parent: str) -> np.ndarray:
        """Indices of spans called ``name`` whose parent is a ``parent`` span."""
        p = self._id(parent)
        idx = self.spans_named(name)
        if p is None:
            return idx[:0]
        par = self.span_parents[idx]
        ok = par >= 0
        idx, par = idx[ok], par[ok]
        return idx[self.span_names[par] == p]
