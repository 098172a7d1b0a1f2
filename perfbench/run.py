#!/usr/bin/env python3
"""The CST/PADR benchmark: three workloads through three doors.

    python3 perfbench/run.py --workload direct-cold --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``direct-cold``    ``PADRScheduler().schedule`` on fresh well-nested sets;
* ``batch-hot``      an inline ``SchedulerService`` draining a warm working set;
* ``stream-tenants`` a ``StreamingSchedulerService`` replaying a three-tenant
                     arrival trace with ``decompose="auto"``.

A run builds its inputs from ``--seed`` before any timing, then repeats
whole passes over them until ``--seconds`` of host time have been spent
inside passes, and checks every settled result with ``checker.py``
between passes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced passes with passes under :class:`spans.Tracer` and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import checker
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 11
clock = time.perf_counter


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    init = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no program under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.abspath(repro.__file__) != init:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {init}")


# -- workloads -------------------------------------------------------------------


@dataclass
class Settled:
    """One request's fate as a pass reports it."""

    index: int            # into the workload's ``expected`` list
    latency_s: float
    #: the checker's view of the result, decoded between door calls so the
    #: pass holds no result the program has let go of; or a payload dict a
    #: cache keeps and hands out again (batch-hot); None when not DONE
    result: Any
    from_cache: bool = False
    wait_ticks: int = 0


class DirectCold:
    """``PADRScheduler().schedule`` under the default config, no service."""

    service = False

    def __init__(self, seed: int) -> None:
        self.sets = inputs.direct_cold(seed)
        self.expected = [checker.expect(p, n) for p, n in self.sets]

    def build(self) -> None:
        from repro import Communication, CommunicationSet, PADRScheduler

        self.csets = [
            (CommunicationSet(Communication(s, d) for s, d in pairs), n)
            for pairs, n in self.sets
        ]
        self.scheduler = PADRScheduler()

    def reset(self) -> None:
        pass

    def run_pass(self, tracer) -> tuple[list[Settled], list[float]]:
        out = []
        schedule = self.scheduler.schedule
        for i, (cset, n) in enumerate(self.csets):
            with tracer.door(i) if tracer else nullcontext():
                t0 = clock()
                result = schedule(cset, n_leaves=n)
                latency = clock() - t0
            out.append(Settled(i, latency, checker.view_from_schedule(result)))
        return out, [s.latency_s for s in out]


class BatchHot:
    """An inline ``SchedulerService`` serving repeats of a cached working set."""

    service = True

    def __init__(self, seed: int) -> None:
        self.working, self.drains = inputs.batch_hot(seed)
        self.expected = [checker.expect(p, n) for p, n in self.working]

    def build(self) -> None:
        from repro import Communication, CommunicationSet, SchedulerService

        self.csets = [
            (CommunicationSet(Communication(s, d) for s, d in pairs), n)
            for pairs, n in self.working
        ]
        self.svc = SchedulerService()
        for cset, n in self.csets:
            self.svc.submit(cset, n_leaves=n)
        warm = self.svc.drain()
        if warm.n_done != len(self.csets):
            raise RuntimeError(f"warm-up settled {warm.summary()}")

    def reset(self) -> None:
        pass

    def run_pass(self, tracer) -> tuple[list[Settled], list[float]]:
        from repro.service import RequestStatus

        out, doors = [], []
        submit, drain, csets = self.svc.submit, self.svc.drain, self.csets
        for d, members in enumerate(self.drains):
            with tracer.door(d) if tracer else nullcontext():
                sent = []
                start = clock()
                for j in members:
                    t0 = clock()
                    cset, n = csets[j]
                    sent.append((submit(cset, n_leaves=n), j, t0))
                report = drain()
                end = clock()
            doors.append(end - start)
            for ticket, j, t0 in sent:
                r = report.results[ticket.id]
                done = r.status is RequestStatus.DONE
                out.append(Settled(j, end - t0, r.payload if done else None, r.from_cache))
        return out, doors


class StreamTenants:
    """A ``StreamingSchedulerService`` replaying the three-tenant trace."""

    service = True

    def __init__(self, seed: int) -> None:
        self.trace = inputs.stream_tenants(seed)
        self.expected = [checker.expect(a.pairs, a.n_leaves) for a in self.trace]

    def build(self) -> None:
        from repro import Communication, CommunicationSet, SchedulerConfig
        from repro.service.admission import Priority
        from repro.service.streaming import StreamRequest

        self.config = SchedulerConfig(decompose="auto")
        by_tick: dict[int, list] = {}
        for i, a in enumerate(self.trace):
            request = StreamRequest(
                cset=CommunicationSet(Communication(s, d) for s, d in a.pairs),
                n_leaves=a.n_leaves,
                release_time=a.tick,
                priority=Priority.HIGH if a.high else Priority.NORMAL,
                tenant=a.tenant,
            )
            by_tick.setdefault(a.tick, []).append((i, request))
        self.by_tick = [by_tick.get(t, []) for t in range(inputs.STREAM_TICKS)]
        self.reset()

    def reset(self) -> None:
        from repro.service.streaming import StreamingSchedulerService

        self.svc = StreamingSchedulerService(
            config=self.config,
            cache_size=inputs.STREAM_CACHE,
            max_inflight=inputs.STREAM_MAX_INFLIGHT,
        )

    def run_pass(self, tracer) -> tuple[list[Settled], list[float]]:
        from repro.service.streaming import StreamStatus

        svc = self.svc
        submit, step = svc.submit, svc.step
        started: dict[int, tuple[int, float]] = {}
        out, doors = [], []
        tick = 0
        while tick < len(self.by_tick) or started:
            arrivals = self.by_tick[tick] if tick < len(self.by_tick) else ()
            with tracer.door(tick) if tracer else nullcontext():
                t0 = clock()
                for i, request in arrivals:
                    ticket = submit(request)
                    if ticket.accepted:
                        started[ticket.id] = (i, t0)
                    else:
                        out.append(Settled(i, 0.0, None))
                settled = step()
                end = clock()
            doors.append(end - t0)
            for r in settled:
                i, t0 = started.pop(r.request_id)
                done = r.status is StreamStatus.DONE
                out.append(Settled(
                    i, end - t0, checker.view_from_payload(r.payload) if done else None,
                    r.from_cache, r.latency_ticks,
                ))
            tick += 1
        return out, doors


WORKLOADS = {
    "direct-cold": DirectCold,
    "batch-hot": BatchHot,
    "stream-tenants": StreamTenants,
}


# -- measurement -------------------------------------------------------------------


@dataclass
class Tally:
    """Everything a run accumulates over its timed passes.

    The end-to-end times are plain host time: every door call's time adds
    to ``door_s`` and every request's latency joins ``latencies``, over
    every pass of the run, so a cost that falls on some calls only, a
    collector pause or a slow spell of the host, counts as it happened.
    """

    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    door_s: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))
    rounds: int = 0
    width: int = 0
    power: int = 0
    pairs: int = 0
    hits: int = 0
    puts: int = 0
    batches: int = 0
    wait_ticks: Counter = field(default_factory=Counter)
    logical: int = 0
    physical: int = 0
    changes_max: int = 0
    #: id(payload) -> (the payload, its view, verdict per request index)
    seen: dict[int, tuple[Any, checker.View, dict[int, list[str]]]] = field(
        default_factory=dict
    )

    def add(self, work, settled: list[Settled], doors: list[float]) -> None:
        self.door_s += sum(doors)
        self.latencies.extend(s.latency_s for s in settled)
        for s in settled:
            self.attempted += 1
            if s.result is None:
                self.failed += 1
                continue
            expected = work.expected[s.index]
            view, verdicts = self.view_of(s.result)
            if s.index not in verdicts:
                verdicts[s.index] = checker.check(expected, view)
                self.problems.extend(verdicts[s.index])
            self.rounds += len(view.rounds)
            self.width += expected.width
            self.power += view.power_units
            self.pairs += len(expected.pairs)
            self.hits += s.from_cache
            self.puts += work.service and not s.from_cache
            self.batches += view.batches
            self.wait_ticks[s.wait_ticks] += 1
            if view.logical_messages:
                self.logical += view.logical_messages
                self.physical += view.physical_messages
            self.changes_max = max(self.changes_max, view.switch_changes_max)

    def view_of(self, result: Any) -> tuple[checker.View, dict[int, list[str]]]:
        """A result's view and the verdicts already given on it.

        A view is checked every time.  A payload dict is an object the
        cache keeps and hands out on every hit, so it is decoded once and
        checked once per requesting set, then once more by :meth:`recheck`.
        """
        if isinstance(result, checker.View):
            return result, {}
        entry = self.seen.get(id(result))
        if entry is None or entry[0] is not result:
            entry = self.seen[id(result)] = (result, checker.view_from_payload(result), {})
        return entry[1], entry[2]

    def recheck(self, work) -> None:
        """Decode every kept payload again and check it against its first view.

        A service that changed a stored payload in place after its first
        check would otherwise go unseen.
        """
        for result, view, verdicts in self.seen.values():
            now = checker.view_from_payload(result)
            for index in verdicts:
                if now != view:
                    self.problems.append(
                        f"request {index}: its result changed after it was checked"
                    )
                self.problems.extend(checker.check(work.expected[index], now))

    @property
    def done(self) -> int:
        return self.attempted - self.failed

    @property
    def requests_per_s(self) -> float:
        """Requests settled over the host time spent in door calls."""
        return self.attempted / self.door_s


def timed_pass(work, tally: Tally, tracer=None) -> None:
    """One pass into ``tally``, under ``tracer`` when one is given."""
    work.reset()
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        settled, doors = work.run_pass(tracer)
        tally.elapsed += clock() - t0
    finally:
        if tracer is not None:
            tracer.close()
    tally.add(work, settled, doors)


def measure(work, seconds: float) -> Tally:
    """Whole passes until ``seconds`` of host time were spent inside them."""
    tally = Tally()
    while tally.elapsed < seconds:
        timed_pass(work, tally)
    tally.recheck(work)
    return tally


def measure_traced(work, seconds: float, tracer) -> tuple[Tally, Tally]:
    """Untraced and traced passes in turn, so both meet the same host spells."""
    untraced, traced = Tally(), Tally()
    while untraced.elapsed + traced.elapsed < seconds:
        timed_pass(work, untraced)
        timed_pass(work, traced, tracer)
    untraced.recheck(work)
    traced.recheck(work)
    return untraced, traced


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def latency_ms(latencies: array, qs: tuple[float, ...]) -> list[float]:
    """Nearest-rank quantiles of the latencies, in milliseconds.

    batch-hot keeps a few hundred thousand latencies; a sorted copy as
    Python floats would add about 9 MB to ``peak_rss_mb``, so the array
    is partitioned in place instead.
    """
    import numpy

    values = numpy.frombuffer(latencies)
    ranks = [min(len(values), max(1, math.ceil(q * len(values)))) - 1 for q in qs]
    values.partition(ranks)
    return [float(values[k]) * 1e3 for k in ranks]


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    p50, p90 = latency_ms(tally.latencies, (0.5, 0.9))
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (tally.requests_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "rounds_over_width": (tally.rounds / tally.width, "ratio"),
        "power_units_per_pair": (tally.power / tally.pairs, "units/pair"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(tally: Tally, tracer, untraced: Tally) -> dict[str, tuple[float, str]]:
    incl, own, count = tracer.layer_times()
    n = tally.done

    def ms(seconds: float) -> tuple[float, str]:
        return (seconds * 1e3 / n, "ms")

    door_total = incl.get("door", 0.0)
    solo = count.get("service.worker.solo", 0)
    batched = tracer.items["service.worker.batch"]
    return {
        "comms.wellnested.ms_per_req": ms(incl.get("comms.wellnested", 0.0)),
        "comms.decompose.ms_per_req": ms(incl.get("comms.decompose", 0.0)),
        "comms.decompose.batches_per_req": (tally.batches / n, "count"),
        "service.cache.signature_ms_per_req": ms(incl.get("service.cache.signature", 0.0)),
        "service.cache.ms_per_req": ms(incl.get("service.cache", 0.0)),
        "service.cache.hit_ratio": (tally.hits / n, "ratio"),
        "service.cache.puts_per_req": (tally.puts / n, "count"),
        "service.service.drain_self_ms_per_req": ms(own.get("service.service.drain", 0.0)),
        "service.streaming.step_self_ms_per_req": ms(
            own.get("service.streaming.step", 0.0)
        ),
        "service.streaming.wait_ticks_p50": (
            quantile(list(tally.wait_ticks.elements()), 0.5), "ticks"
        ),
        "service.streaming.shape_batched_ratio": (
            batched / (batched + solo) if batched + solo else 0.0, "ratio"
        ),
        "service.admission.ms_per_req": ms(incl.get("service.admission", 0.0)),
        "service.tenants.ms_per_req": ms(incl.get("service.tenants", 0.0)),
        "service.worker.self_ms_per_req": ms(sum(
            own.get(f"service.worker.{k}", 0.0) for k in ("init", "solo", "batch")
        )),
        "io.ms_per_req": ms(incl.get("io", 0.0)),
        "core.csa.self_ms_per_req": ms(own.get("core.csa", 0.0)),
        "core.phase1.ms_per_req": ms(incl.get("core.phase1", 0.0)),
        "core.columnar.ms_per_req": ms(incl.get("core.columnar", 0.0)),
        "core.plan.self_ms_per_req": ms(own.get("core.plan", 0.0)),
        "core.base.round_plan_ms_per_req": ms(incl.get("core.base.round_plan", 0.0)),
        "cst.network.build_ms_per_req": ms(incl.get("cst.network.build", 0.0)),
        "cst.network.commit_ms_per_req": ms(incl.get("cst.network.commit", 0.0)),
        "cst.network.commits_per_req": (count.get("cst.network.commit", 0) / n, "count"),
        "cst.network.transfer_ms_per_req": ms(incl.get("cst.network.transfer", 0.0)),
        "cst.engine.wave_ms_per_req": ms(incl.get("cst.engine.wave", 0.0)),
        "cst.engine.physical_over_logical": (
            tally.physical / tally.logical if tally.logical else 0.0, "ratio"
        ),
        "cst.power.switch_changes_max": (tally.changes_max, "count"),
        "trace.covered_share": (
            1.0 - own.get("door", 0.0) / door_total if door_total else 0.0, "ratio"
        ),
        "trace.overhead_ratio": (tally.requests_per_s / untraced.requests_per_s, "ratio"),
    }


# -- set-up time -------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh process: interpreter start to a ready door.

    The child reports when ``repro`` is imported (timed here, so it covers
    the interpreter's own start), then generates its inputs untimed, then
    times building the door and any warm-up itself.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        imported = clock() - t0
        last = proc.stdout.read()
    if proc.returncode != 0 or first.strip() != "imported":
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return imported + json.loads(last)["door_s"]


def run_probe_child(workload: str, seed: int) -> None:
    import_program()
    print("imported", flush=True)
    work = WORKLOADS[workload](seed)
    t0 = clock()
    work.build()
    print(json.dumps({"door_s": clock() - t0}), flush=True)


# -- entry point -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        run_probe_child(args.workload, args.seed)
        return 0

    import_program()
    failed_selftest = checker.self_test()
    if failed_selftest:
        sys.exit(f"perfbench: checker self-test accepted {failed_selftest}")
    setup_s = statistics.median(
        setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)
    )
    work = WORKLOADS[args.workload](args.seed)
    work.build()

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        untraced, traced = measure_traced(work, args.seconds, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        metrics = per_layer(traced, tracer, untraced)
        tallies = (untraced, traced)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        tally = measure(work, args.seconds)
        metrics = end_to_end(tally, setup_s)
        tallies = (tally,)

    problems = [p for t in tallies for p in t.problems]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:40s} {value:14.4f} {unit}")
    print(f"{args.workload:15s} attempted {attempted} failed {failed} "
          f"check problems {len(problems)}")
    for p in problems[:10]:
        print("  problem:", p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
