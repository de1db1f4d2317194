"""Spans around parrondoq's public functions, installed from outside.

``Tracer.install`` replaces functions at the module attributes their callers
look up (``engine.apply_channel`` is what ``engine.play`` calls,
``coins.embed`` what ``coins.build_unitary`` calls, ``figures.play`` what
the sweep pool calls, and so on) with wrappers that record a span per call; ``uninstall``
puts the originals back. Spans carry the op id and their parent span and are
kept in memory until the run writes them out.

Spans may start on the figure pool's worker threads. A worker span with no
open span on its own thread takes as parent the innermost open span of the
thread that started the op (``figures.sweep_rows`` waiting on its pool).
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

from parrondoq import cli, coins, engine, figures, oracle, verify

#: Layers reported per function, as <module>.<function>.calls / .self_s.
REPORTED = (
    "coins.parse_sequence", "coins.calibrate_classical", "coins.build_unitary",
    "linalg.embed", "noise.apply_channel",
    "engine.play", "engine.make_initial_state", "engine.evolve",
    "engine.payoff_report",
    "figures.sweep_rows", "figures.rows_to_csv",
    "cli.main",
)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _check_span_name(result) -> str:
    return f"verify.check.{result.check_id}"


def _library_functions(module, imported_only: bool):
    """Public parrondoq functions in ``module``'s namespace; with
    ``imported_only``, just those imported from another parrondoq module."""
    for attr, value in vars(module).items():
        if (attr.startswith("_") or not inspect.isfunction(value)
                or not value.__module__.startswith("parrondoq.")):
            continue
        if imported_only and value.__module__ == module.__name__:
            continue
        yield attr


def _targets():
    """(module, attribute) pairs whose functions get wrapped."""
    for module, imported_only in ((engine, False), (oracle, False),
                                  (verify, True)):
        for attr in _library_functions(module, imported_only):
            yield module, attr
    for attr in ("play", "calibrate_classical", "figure_rows", "sweep_rows",
                 "rows_to_csv"):
        yield figures, attr
    yield cli, "main"
    yield cli, "figure_csv"
    yield coins, "embed"


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root_stack: list = []
        self._saved: list = []
        self.op = 0
        #: (span id, parent id or 0, op id, name, start, end)
        self.spans: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name_of_result=None):
        name = _span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
                outer = stack or self._root_stack
                parent = outer[-1] if outer else 0
                stack.append(sid)
            op = self.op
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                span_name = (name_of_result(result)
                             if name_of_result and result is not None
                             else name)
                with self._lock:
                    stack.pop()
                    self.spans.append((sid, parent, op, span_name, start,
                                       end))

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; spans from now on nest under this thread."""
        self._root_stack = self._stack()
        wrappers: dict = {}
        for module, attr in _targets():
            fn = getattr(module, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn)
            self._patch(module, attr, wrappers[id(fn)])
        checks = tuple(self._wrap(check, _check_span_name)
                       for check in verify.CHECKS)
        self._patch(verify, "CHECKS", checks)

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, _, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self, passes: int, check_ids) -> dict:
        """Per-layer metrics per traced pass: name -> (value, unit)."""
        self_s = self.self_times()
        calls = defaultdict(int)
        own = defaultdict(float)
        check_s = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            if name.startswith("verify.check."):
                check_s[name] += end - start
                continue
            layer = "oracle" if name.startswith("oracle.") else name
            calls[layer] += 1
            own[layer] += self_s[sid]
        metrics = {}
        for layer in REPORTED + ("oracle",):
            metrics[f"{layer}.calls"] = (calls[layer] / passes, "count")
            metrics[f"{layer}.self_s"] = (own[layer] / passes, "s")
        for check_id in check_ids:
            name = f"verify.check.{check_id}"
            metrics[f"{name}.s"] = (check_s[name] / passes, "s")
        return metrics

    def write(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
