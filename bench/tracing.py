"""In-memory span tracing of ghzlocal's public functions, installed from outside.

The package imports names with ``from .module import name``, so a function is
looked up in the namespace of the module that calls it.  ``Tracer.install``
therefore replaces every binding of a target function in every loaded
``ghzlocal`` module (and the two ``Model`` builder classmethods on the class),
and ``Tracer.uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, op, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the benchmark op that
was running, ``extra`` a per-function detail (skipped contexts for
``verify_ac``, 1 for a search step that yielded a model).  Calls made while no
op is running are not recorded.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from functools import wraps

# layer -> public functions timed in that layer; a name the package no longer
# has is skipped, and its metrics read 0.
TARGETS: dict[str, tuple[str, ...]] = {
    "state_space": (
        "enumerate_ghz_microstates", "partition_classes", "classify", "enumerate_contexts",
    ),
    "qm": ("qm_probability",),
    "models": (
        "verify_ac", "verify_dm", "satisfies_ac", "census", "combination_distribution",
        "detection_probability", "conditional_probability",
    ),
    "builtin": ("reproduce_section4", "builtin_model"),
    "search": ("search_models",),
    "serialize": ("model_from_json", "model_to_json", "repro_report_to_json", "combinations_to_csv"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)
PACKAGE = "ghzlocal"
MODEL_BUILDERS = ("models.from_state_map", "models.from_element_families")
SEARCH = "search.search_models"
CHECKS_IN_SEARCH = ("models.verify_dm", "models.satisfies_ac")


class Tracer:
    """Spans of the calls into the package made while ``op`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._qm_cache_info = None

    def qm_cache(self) -> tuple[int, int]:
        """Hits and misses of the ``qm_probability`` cache so far; (0, 0) without one."""
        if self._qm_cache_info is None:
            return 0, 0
        info = self._qm_cache_info()
        return info.hits, info.misses

    # ------------------------------------------------------------------ spans

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:  # one span per resumption, marked 1 when it yields
                    span = None if tracer.op is None else tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            tracer._close(span)
                    if span is not None:
                        span[5] = 1
                    yield item
            return generator

        skipped = name == "models.verify_ac"

        @wraps(fn)
        def function(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if skipped:
                span[5] = len(result.skipped)
            return result
        return function

    # --------------------------------------------------------------- patching

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(prefix))
        ]
        for layer, names in TARGETS.items():
            home = sys.modules.get(prefix + layer)
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                if layer == "qm" and attr == "qm_probability":
                    self._qm_cache_info = getattr(original, "cache_info", None)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original))
        model_cls = sys.modules[prefix + "models"].Model
        for name in MODEL_BUILDERS:
            attr = name.split(".")[1]
            descriptor = model_cls.__dict__.get(attr)
            if descriptor is None:
                continue
            setattr(model_cls, attr, classmethod(self._wrap(name, descriptor.__func__)))
            self._restore.append((model_cls, attr, descriptor))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def aggregate(spans: list[list], op_scale: dict) -> dict:
    """Calls, self time and inclusive time per span name, over the ops in
    ``op_scale``; times are multiplied by their op's scale factor.

    Self time is a span's duration minus the time its direct children cover;
    children are nested inside their parent because the benchmark runs one
    thread.  ``candidates`` and ``search_checks_ns`` describe the work done
    under ``search_models``.
    """
    n = len(spans)
    child_ns = [0] * n
    in_search = [False] * n
    for i, (name, start, end, parent, _op, _extra) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            in_search[i] = in_search[parent] or spans[parent][0] == SEARCH
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    incl_ns: Counter = Counter()
    extra: Counter = Counter()
    builds = candidates = search_checks_ns = 0
    for i, (name, start, end, parent, op, value) in enumerate(spans):
        scale = op_scale.get(op)
        if scale is None:
            continue
        calls[name] += 1
        self_ns[name] += (end - start - child_ns[i]) * scale
        incl_ns[name] += (end - start) * scale
        extra[name] += value
        if name in MODEL_BUILDERS and (parent < 0 or spans[parent][0] not in MODEL_BUILDERS):
            builds += 1
            candidates += in_search[i]
        if name in CHECKS_IN_SEARCH and in_search[i]:
            search_checks_ns += (end - start) * scale
    return {
        "calls": calls, "self_ns": self_ns, "incl_ns": incl_ns, "extra": extra,
        "model_builds": builds, "candidates": candidates, "search_checks_ns": search_checks_ns,
    }
