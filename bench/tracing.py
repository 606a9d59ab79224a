"""Spans around the calls into each layer, recorded from outside the program.

:class:`Tracer` replaces the public functions of the ``artifact`` modules (and
the public methods of their classes) with timing wrappers, by rebinding module
and class attributes, and counts the ``numpy.linalg`` calls the program makes
the same way.  Every original attribute is put back on exit.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing span
(-1 at the top); spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import inspect
import time

LAYERS = ("cli", "graph", "boundary", "scattering", "starprod", "numkernel")
LINALG = ("svd", "norm", "solve", "inv", "eigvals", "det", "qr")

_VALIDATE = {"boundary.validate", "boundary.require_valid"}
_PARSE = {"cli.load_document", "cli.loads_document", "cli.GraphDocument.to_graph"}


class Tracer:
    """Context manager: wrappers installed on enter, originals restored on exit."""

    def __init__(self, package, linalg_module):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self._package = package
        self._linalg = linalg_module

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [getattr(self._package, layer) for layer in LAYERS]
        holders = [self._package, *modules]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    # rebind the aliases made by ``from .x import f`` as well
                    for holder in holders:
                        for alias, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, alias, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth,
                                        self._wrap(f"{layer}.{attr}.{meth}", fn))
        for attr in LINALG:
            self._patch(self._linalg, attr,
                        self._wrap(f"linalg.{attr}", getattr(self._linalg, attr)))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False


def span_totals(spans: list, first: int, end: int) -> dict:
    """Counts and times per layer for the spans ``first`` to ``end - 1``.

    Self time is a span's duration minus its direct children's durations
    (calls are sequential, so children never overlap).  Work done inside
    ``graph.assemble`` is set-up and is kept out of the per-energy counts.
    """
    n = end - first
    own = [s[2] - s[1] for s in spans[first:end]]
    in_assemble = [False] * n
    in_validate = [False] * n
    in_parse = [False] * n
    in_spectrum = [False] * n
    for i in range(n):
        name, start, stop, parent = spans[first + i]
        if parent >= first:
            p = parent - first
            own[p] -= stop - start
            pname = spans[parent][0]
            in_assemble[i] = in_assemble[p] or pname == "graph.assemble"
            in_validate[i] = in_validate[p] or pname in _VALIDATE
            in_parse[i] = in_parse[p] or pname in _PARSE
            in_spectrum[i] = in_spectrum[p] or pname == "scattering.spectrum"

    t = {"validate_calls": 0, "validate_s": 0.0, "linalg_calls": 0, "svd_s": 0.0,
         "spectrum_svd_calls": 0, "spectrum_build_xyz_calls": 0, "spectrum_calls": 0,
         "cli_self_s": 0.0, "parse_s": 0.0}
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    for i in range(n):
        name, start, stop, _ = spans[first + i]
        dur = stop - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if name == "boundary.validate" and not in_assemble[i]:
            t["validate_calls"] += 1
        if name in _VALIDATE and not in_validate[i]:
            t["validate_s"] += dur
        if name.startswith("linalg.") and not in_assemble[i]:
            t["linalg_calls"] += 1
        if name == "linalg.svd":
            t["svd_s"] += dur
            t["spectrum_svd_calls"] += in_spectrum[i]
        if name == "scattering.build_xyz":
            t["spectrum_build_xyz_calls"] += in_spectrum[i]
        if name == "scattering.spectrum":
            t["spectrum_calls"] += 1
        if name in _PARSE:
            if not in_parse[i]:
                t["parse_s"] += dur
        elif name.startswith("cli."):
            t["cli_self_s"] += own[i]
    t["calls"], t["total"], t["self"] = calls, total, self_s
    return t
