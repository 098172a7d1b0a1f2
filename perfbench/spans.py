"""Outside-in tracing: time the public entry point behind each layer.

:meth:`Tracer.install` replaces each entry point at the name its caller
looks up (a module global, a class attribute) with a wrapper that
records a span ``[layer, start, end, parent, request]`` in memory, and
:meth:`Tracer.close` puts the originals back.  Nothing in ``repro`` is edited
and nothing is recorded while no tracer is installed, so the untraced
runs that give the end-to-end figures run the program as shipped.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from typing import Any, Callable

#: (module, class or None, attribute, layer).  The class entries patch the
#: class, which every instance's attribute lookup reaches.
ENTRY_POINTS = (
    ("repro.core.csa", None, "require_well_nested", "comms.wellnested"),
    ("repro.core.columnar", None, "require_well_nested", "comms.wellnested"),
    ("repro.core.base", None, "is_well_nested", "comms.wellnested"),
    ("repro.service.cache", None, "is_well_nested", "comms.wellnested"),
    ("repro.service.cache", None, "parenthesis_profile", "comms.wellnested"),
    ("repro.comms.decompose", None, "is_well_nested", "comms.wellnested"),
    ("repro.core.plan", None, "decompose", "comms.decompose"),
    ("repro.service.service", None, "canonical_signature", "service.cache.signature"),
    ("repro.service.streaming", None, "canonical_signature", "service.cache.signature"),
    ("repro.service.cache", "ScheduleCache", "get", "service.cache"),
    ("repro.service.cache", "ScheduleCache", "put", "service.cache"),
    ("repro.service.service", "SchedulerService", "drain", "service.service.drain"),
    ("repro.service.streaming", "StreamingSchedulerService", "step",
     "service.streaming.step"),
    ("repro.service.admission", "AdmissionController", "decide", "service.admission"),
    ("repro.service.admission", "AdmissionController", "defers", "service.admission"),
    ("repro.service.admission", "AdmissionController", "observe", "service.admission"),
    ("repro.service.tenants", "TenantRegistry", "try_consume", "service.tenants"),
    ("repro.service.tenants", "TenantRegistry", "enqueue", "service.tenants"),
    ("repro.service.tenants", "TenantRegistry", "fair_select", "service.tenants"),
    ("repro.service.tenants", "TenantRegistry", "requeue_front", "service.tenants"),
    ("repro.service.tenants", "TenantRegistry", "backlog", "service.tenants"),
    ("repro.service.service", None, "init_worker", "service.worker.init"),
    ("repro.service.service", None, "schedule_request", "service.worker.solo"),
    ("repro.service.service", None, "schedule_batch_request", "service.worker.batch"),
    ("repro.service.streaming", None, "init_worker", "service.worker.init"),
    ("repro.service.streaming", None, "schedule_request", "service.worker.solo"),
    ("repro.service.streaming", None, "schedule_batch_request", "service.worker.batch"),
    ("repro.service.service", None, "cset_to_dict", "io"),
    ("repro.service.streaming", None, "cset_to_dict", "io"),
    ("repro.service.worker", None, "cset_from_dict", "io"),
    ("repro.service.worker", None, "result_to_dict", "io"),
    ("repro.service.worker", None, "schedule_to_dict", "io"),
    ("repro.core.csa", "PADRScheduler", "schedule", "core.csa"),
    ("repro.core.csa", None, "run_phase1", "core.phase1"),
    ("repro.core.csa", None, "run_phase1_vectorized", "core.phase1"),
    ("repro.core.columnar", "ColumnarRun", "__init__", "core.phase1"),
    ("repro.core.columnar", None, "run_columnar", "core.columnar"),
    ("repro.core.columnar", None, "schedule_batch", "core.columnar"),
    ("repro.core.plan", None, "schedule_general", "core.plan"),
    ("repro.core.base", None, "execute_round_plan", "core.base.round_plan"),
    ("repro.cst.network", "CSTNetwork", "of_size", "cst.network.build"),
    ("repro.cst.network", "CSTNetwork", "commit_round", "cst.network.commit"),
    ("repro.cst.network", "CSTNetwork", "transfer", "cst.network.transfer"),
    ("repro.cst.engine", "CSTEngine", "upward_wave", "cst.engine.wave"),
    ("repro.cst.engine", "CSTEngine", "downward_wave", "cst.engine.wave"),
    ("repro.core.columnar", "ColumnarRun", "run_round", "cst.engine.wave"),
)

#: layers whose first argument is a list of requests; the tracer counts
#: the requests each call carries.
BATCHED = frozenset({"service.worker.batch"})

#: the benchmark's own root span around each door call.
DOOR = "door"

# index of each field in a span record
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span recorder over :data:`ENTRY_POINTS`, while installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._request = -1
        #: requests carried by calls into the layers in :data:`BATCHED`.
        self.items: dict[str, int] = dict.fromkeys(BATCHED, 0)
        self._undo: list[Callable[[], None]] = []

    def install(self) -> None:
        """Put a timed wrapper over every entry point."""
        for module_name, class_name, attr, layer in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self._patch(owner, attr, layer)

    def _patch(self, owner: Any, attr: str, layer: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, classmethod):
            new: Any = classmethod(self._timed(raw.__func__, layer))
        else:
            new = self._timed(raw, layer)
        setattr(owner, attr, new)
        if own:
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:  # inherited: drop the shadowing attribute again
            self._undo.append(lambda: delattr(owner, attr))

    def _timed(self, fn: Callable, layer: str) -> Callable:
        spans, stack, items = self.spans, self._stack, self.items
        clock = time.perf_counter
        batched = layer in BATCHED

        def timed(*args, **kwargs):
            if batched:
                items[layer] += len(args[0])
            record = [layer, clock(), 0.0, stack[-1] if stack else -1, self._request]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def door(self, request: int):
        """The root span of one door call; its children share ``request``."""
        self._request = request
        record = [DOOR, time.perf_counter(), 0.0, -1, request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[END] = time.perf_counter()

    def close(self) -> None:
        """Put every original entry point back."""
        while self._undo:
            self._undo.pop()()

    def write(self, path: str) -> None:
        """The spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")

    # -- aggregation -------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per-layer inclusive time, self time and span count, in seconds.

        Inclusive time counts only a layer's outermost spans, so a layer
        that re-enters itself (the decomposition path schedules batches
        through the same scheduler) is not counted twice.  Self time is a
        span's duration minus its direct children's.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        count: dict[str, int] = {}
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            count[name] = count.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + dur - child_time[i]
            if not self._inside(i, name):
                inclusive[name] = inclusive.get(name, 0.0) + dur
        return inclusive, own, count

    def _inside(self, i: int, name: str) -> bool:
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False
