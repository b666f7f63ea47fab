"""The three fleet workloads: two closed loops and an open loop.

All build a :class:`~repro.service.FleetService` the way ``repro serve``
builds one by default: default :class:`MonitorConfig` (MMHD, N=2, M=5,
window 3000, hop 1500, stationarity gate on), drain mode ``auto``,
backpressure off, the default alert rules, a TSDB, metrics on.

* ``fleet-saturated`` (closed loop): 6 MMHD paths; each source hands
  over its next hop when the service polls it, so every cycle drains one
  window per path in one wide mega-batch.
* ``fleet-observed`` (closed loop): fleet-open's mix and observers
  (every fourth path ``model=hmm``, trace and health stores, the HTTP
  API and its client) on 8 paths, driven like fleet-saturated.
* ``fleet-open`` (open loop): 16 paths, 4 of them ``model=hmm``; a
  benchmark-side source releases records on a wall-clock schedule at a
  fixed aggregate rate that does not slow when the service stalls, path
  phases staggered so windows complete one at a time; trace and health
  stores on; one client thread reads ``GET /fleet`` and
  ``GET /verdicts/{id}`` on a fixed schedule over one connection at a
  time.

Every path streams its own ``strong_dcl_stream`` with ``q_max`` and
``loss_prob`` drawn per path from the seed, and starts warm: one
template path per model kind is cold-fitted in set-up and its fitted
parameters seed every path of that kind.  Set-up runs
``SETUP_REPEATS`` times and its median is reported; only the last
service built is measured.
"""

from __future__ import annotations

import bisect
import http.client
import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.harness import Tally, quantile
from perfbench.oracle import check_fleet_window
from perfbench.spans import maybe_span
from repro import obs
from repro.experiments.streams import strong_dcl_stream
from repro.models.base import EMConfig
from repro.obs import health as health_mod
from repro.obs import trace as trace_mod
from repro.obs.alerts import DEFAULT_RULES, AlertEngine, parse_rules
from repro.obs.tsdb import TimeSeriesStore
from repro.service import BackpressurePolicy, FleetService, ServiceAPI
from repro.service.ingest import IngestSource
from repro.streaming import MonitorConfig
from repro.streaming.tracker import analyze_window
from repro.streaming.windows import iter_windows

__all__ = ["FLEETS", "run_fleet"]

#: Open-loop aggregate release rate, records per second: half of the
#: 16-path fleet's saturated capacity on the reference host (2 CPUs, see
#: README), where closed-loop cycles of 16 windows ran ~1700 records/s.
OPEN_RATE = 850.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Closed loop: a 6-8-path cycle's wall time on the reference host
#: (about 5-12 s; the host's speed swings up to ~1.8x).  A run does ``seconds / CYCLE_S`` cycles, rounded, so
#: every run of a given length does the same work.  The first cycle,
#: warm from the template rather than from the path's own last window,
#: costs up to ~40% more than later ones; a count that followed host
#: speed ("another cycle while it fits in ``seconds``") flipped between
#: runs and moved every figure.
CYCLE_S = 6.0

FLEETS = {
    "fleet-saturated": {"paths": 6, "hmm_every": 0, "loop": "closed",
                        "observers": False},
    "fleet-observed": {"paths": 8, "hmm_every": 4, "loop": "closed",
                       "observers": True, "api_period_s": 0.25},
    "fleet-open": {"paths": 16, "hmm_every": 4, "loop": "open",
                   "observers": True, "rate_rps": OPEN_RATE,
                   "api_period_s": 0.25},
}

WINDOW = 3000
HOP = 1500
#: Per-path stream parameters are drawn from these bands.  Inside them
#: the default stationarity gate passes the generator's windows; at the
#: generator's default loss_prob=0.7 it skips about a quarter of them.
Q_MAX = (0.06, 0.12)
LOSS_PROB = (0.15, 0.25)
#: Records dropped from the start of every stream: the generator's queue
#: starts empty and climbs to q_max, a start-up transient the gate
#: rightly calls nonstationary.  A monitored path is already running.
WARMUP = 1000
TEMPLATE_SEED = 20030
#: Open loop: after the timed phase, how long the service may take to
#: publish the windows that fell due in it before they count unpublished.
GRACE_S = 60.0


def _path_streams(seed: int, n_paths: int, n_records: List[int],
                  recorder=None):
    """Per-path records (list of (send_time, delay)) and parameters."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for i in range(n_paths):
        q_max = float(rng.uniform(*Q_MAX))
        loss_prob = float(rng.uniform(*LOSS_PROB))
        stream_seed = int(rng.integers(2**31))
        # The generator is lazy: the span covers consuming it.
        with maybe_span(recorder, "experiments.stream"):
            records = list(strong_dcl_stream(
                WARMUP + n_records[i], q_max=q_max, loss_prob=loss_prob,
                seed=stream_seed))[WARMUP:]
        out.append((records, {"q_max": round(q_max, 6),
                              "loss_prob": round(loss_prob, 6),
                              "stream_seed": stream_seed}))
    return out


class _BenchSource(IngestSource):
    """A pre-generated record list the service polls.

    ``polls`` keeps ``(first_index, end_index, poll_time)`` per non-empty
    poll, so a record's admission time is known afterwards.
    """

    def __init__(self, records, start: int, clock):
        self.records = records
        self.start = start
        self.pos = start
        self.clock = clock
        self.polls: List[Tuple[int, int, float]] = []
        self.exhausted = start >= len(records)

    def _take(self, end: int):
        now = self.clock()
        batch = self.records[self.pos:end]
        if batch:
            self.polls.append((self.pos, end, now))
        self.pos = end
        self.exhausted = self.pos >= len(self.records)
        return batch

    def admitted_at(self, index: int) -> Optional[float]:
        i = bisect.bisect_right(self.polls, (index, math.inf)) - 1
        if i >= 0 and self.polls[i][0] <= index < self.polls[i][1]:
            return self.polls[i][2]
        return None


class HopSource(_BenchSource):
    """Closed loop: every poll hands over the next ``max_records``."""

    def poll(self, max_records: int):
        return self._take(min(len(self.records), self.pos + max_records))


class ScheduledSource(_BenchSource):
    """Open loop: record ``k >= start`` is due at ``t0 + (k-start+1)/rate``.

    The schedule is fixed at construction: a stalled service finds more
    records due at its next poll, never a later schedule.
    """

    def __init__(self, records, start: int, clock, t0: float, rate: float):
        super().__init__(records, start, clock)
        self.t0 = t0
        self.rate = rate

    def due(self, index: int) -> float:
        return self.t0 + (index - self.start + 1) / self.rate

    def poll(self, max_records: int):
        n_due = self.start + int(math.floor(
            (self.clock() - self.t0) * self.rate))
        n_due = min(len(self.records), max(self.pos, n_due))
        return self._take(min(n_due, self.pos + max_records))


def _templates(kinds, configs, recorder=None):
    """Cold-fit one template window per model kind; returns warm states.

    The template stream is the same in every run (mid-band parameters,
    a fixed seed), so set-up does the same work whatever the seed.
    """
    warm = {}
    for kind in kinds:
        with maybe_span(recorder, "experiments.stream"):
            stream = list(strong_dcl_stream(
                WARMUP + WINDOW + 4 * HOP, q_max=sum(Q_MAX) / 2,
                loss_prob=sum(LOSS_PROB) / 2, seed=TEMPLATE_SEED))
        for pw in iter_windows(stream[WARMUP:], WINDOW, HOP):
            analysis = analyze_window(pw.observation, None, configs[kind],
                                      pw.index)
            if analysis.analyzed:
                warm[kind] = analysis.warm_state
                break
        else:
            raise RuntimeError(f"no template window of kind {kind} passed")
    return warm


def _build_service(observers: bool, emit_fn):
    """A FleetService configured as ``repro serve`` configures it."""
    obs.enable(events=None, clear=True)
    trace_store = health_store = None
    if observers:
        trace_mod.enable_tracing()
        trace_store = trace_mod.TraceStore()
        health_mod.enable_health()
        health_store = health_mod.HealthStore()
    service = FleetService(
        base_config=MonitorConfig(),
        n_jobs=1,
        max_pending=64,
        drain_mode="auto",
        backpressure=BackpressurePolicy(mode="off"),
        alert_engine=AlertEngine(parse_rules(DEFAULT_RULES)),
        emit_fn=emit_fn,
        tsdb=TimeSeriesStore(),
        trace_store=trace_store,
        health_store=health_store,
    )
    obs.schema.preregister(obs.registry())
    return service


def _teardown(observers: bool) -> None:
    if observers:
        trace_mod.disable_tracing()
        health_mod.disable_health()
    obs.disable()


class _ApiClient(threading.Thread):
    """Reads /fleet and /verdicts/{id} on a fixed schedule.

    Latency is timed from each request's due time, so a client that falls
    behind (GIL contention with the drain) shows it.
    """

    def __init__(self, port: int, paths: List[str], t0: float,
                 t_end: float, period: float):
        super().__init__(name="perfbench-api-client", daemon=True)
        self.port = port
        self.paths = paths
        self.t0 = t0
        self.t_end = t_end
        self.period = period
        self.read_ms: List[float] = []
        self.get_ms: List[float] = []
        self.errors = 0

    def run(self) -> None:
        k = 0
        while True:
            due = self.t0 + k * self.period
            if due > self.t_end:
                return
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            target = ("/fleet" if k % 2 == 0 else
                      f"/verdicts/{self.paths[(k // 2) % len(self.paths)]}")
            sent = time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=10)
            try:
                conn.request("GET", target)
                response = conn.getresponse()
                response.read()
                if response.status != 200:
                    self.errors += 1
            except (OSError, http.client.HTTPException):
                self.errors += 1
            finally:
                conn.close()
            done = time.perf_counter()
            self.read_ms.append(1e3 * (done - due))
            self.get_ms.append(1e3 * (done - sent))
            k += 1


def _expected_windows(source, t_end: Optional[float]) -> List[int]:
    """Windows whose completing record was handed over in the timed phase.

    Open loop: every window whose completing record falls due by
    ``t_end``.  Closed loop (``t_end`` is None): every window whose
    completing record a poll handed over.
    """
    out = []
    window = 0
    while _completing(window) < len(source.records):
        index = _completing(window)
        if index >= source.start:
            if t_end is None:
                if index >= source.pos:
                    break
            elif source.due(index) > t_end:
                break
            out.append(window)
        window += 1
    return out


def _completing(window: int) -> int:
    """Index of the record that completes ``window`` (hop never coarsened)."""
    return window * HOP + WINDOW - 1


def closed_loop_cycles(seconds: float) -> int:
    """Cycles a closed-loop run of ``seconds`` does."""
    return max(1, round(seconds / CYCLE_S))


def _set_up(spec, seed: int, seconds: float, names: List[str],
            kinds: List[str], emit_fn, recorder=None):
    """Input generation, service build, warm templates and pre-load.

    Returns ``(streams, starts, service, server)``; ``server`` is the
    HTTP API when the fleet runs its observers, else None.
    """
    n_paths = len(names)
    open_loop = spec["loop"] == "open"
    if open_loop:
        # Stagger: path i is pre-loaded so its next window completes
        # at slot i + 0.5 of n_paths even slots per hop period.
        starts = [WINDOW - int(round((i + 0.5) * HOP / n_paths))
                  for i in range(n_paths)]
        horizon = seconds + GRACE_S
        lengths = [s + int(horizon * spec["rate_rps"] / n_paths) + HOP
                   for s in starts]
    else:
        starts = [HOP] * n_paths
        lengths = [HOP + HOP * closed_loop_cycles(seconds)] * n_paths
    streams = _path_streams(seed, n_paths, lengths, recorder)
    service = _build_service(spec["observers"], emit_fn)
    for path, kind in zip(names, kinds):
        service.register(path, overrides=None if kind == "mmhd"
                         else {"model": kind})
    configs = {kind: service.registry.get(path).config
               for path, kind in zip(names, kinds)}
    warm = _templates(sorted(configs), configs, recorder)
    for path, kind in zip(names, kinds):
        # Start warm: the scheduler's per-path warm state is what a
        # path that already published a window would carry.
        service.monitor._paths[path].warm = warm[kind]
    for path, (records, _), start in zip(names, streams, starts):
        for send_time, delay in records[:start]:
            service.ingest(path, send_time, delay)
    server = (ServiceAPI(service, port=0).start() if spec["observers"]
              else None)
    return streams, starts, service, server


def _close(service, server, observers: bool) -> None:
    if server is not None:
        server.close()
    service.close()
    _teardown(observers)


def run_fleet(name: str, seed: int, seconds: float, recorder=None,
              paths: Optional[int] = None) -> dict:
    """Run one fleet workload; returns measurements and the oracle tally.

    ``paths`` shrinks the fleet for the harness self-check's smoke run.
    """
    spec = FLEETS[name]
    n_paths = paths or spec["paths"]
    open_loop = spec["loop"] == "open"
    clock = time.perf_counter
    kinds = ["hmm" if spec["hmm_every"] and i % spec["hmm_every"] == 0
             else "mmhd" for i in range(n_paths)]
    names = [f"{kind}-{i:02d}" for i, kind in enumerate(kinds)]
    published: List[Tuple[dict, float]] = []

    def emit_fn(payload):
        published.append((payload, clock()))

    setups: List[float] = []
    service = server = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            _close(service, server, spec["observers"])
        started = clock()
        with maybe_span(recorder, "bench.setup"):
            streams, starts, service, server = _set_up(
                spec, seed, seconds, names, kinds, emit_fn, recorder)
        setups.append(clock() - started)
    setup_s = statistics.median(setups)

    t0 = clock()
    t_end = t0 + seconds
    sources = []
    for path, (records, _), start in zip(names, streams, starts):
        if open_loop:
            source = ScheduledSource(records, start, clock, t0,
                                     spec["rate_rps"] / n_paths)
        else:
            source = HopSource(records, start, clock)
        service.attach_source(path, source)
        sources.append(source)
    source_of = dict(zip(names, sources))
    client = None
    if open_loop:
        expected = {(path, w) for path, source in source_of.items()
                    for w in _expected_windows(source, t_end)}
    if server is not None:
        # A closed loop ends with its last cycle, not at ``t_end``.
        client = _ApiClient(server.port, names, t0,
                            t_end if open_loop else math.inf,
                            spec["api_period_s"])
        client.start()

    c0 = time.process_time()
    n_cycles = 0
    n_seen = 0
    seen = set()
    # Closed loop: (start, end, CPU seconds) of every cycle.
    cycles: List[Tuple[float, float, float]] = []
    try:
        while True:
            started, cpu_started = clock(), time.process_time()
            with maybe_span(recorder, "bench.cycle"):
                summary = service.step()
            n_cycles += 1
            now = clock()
            if not open_loop:
                cycles.append((started, now,
                               time.process_time() - cpu_started))
                # The streams hold closed_loop_cycles(seconds) hops past
                # the pre-load, one handed over per cycle.
                if all(s.exhausted for s in sources):
                    break
                continue
            for payload, _ in published[n_seen:]:
                seen.add((payload["path"], payload["window"]))
            n_seen = len(published)
            if now >= t_end and (expected <= seen
                                 or now >= t_end + GRACE_S):
                break
            if summary["ingested"] == 0 and summary["windows"] == 0:
                # ``repro serve``'s default idle interval.
                time.sleep(0.05)
        t_exit = clock()
        cpu_s = time.process_time() - c0
    finally:
        if client is not None:
            client.t_end = min(client.t_end, clock())
            client.join(timeout=30)
        _close(service, server, spec["observers"])

    if not open_loop:
        expected = {(path, w) for path, source in source_of.items()
                    for w in _expected_windows(source, None)}

    def due_of(path: str, window: int) -> Optional[float]:
        source = source_of[path]
        if open_loop:
            return source.due(_completing(window))
        return source.admitted_at(_completing(window))

    # Oracle over every published window; latency from the due time of
    # the record that completed it.
    tally = Tally()
    tally.attempted = len(expected)
    outcome: Dict[Tuple[str, int], Optional[str]] = {}
    publish_at: Dict[Tuple[str, int], float] = {}
    correct = attempted_correct = 0
    latencies: List[float] = []
    for payload, at in published:
        key = (payload["path"], payload["window"])
        start, stop = payload["probe_range"]
        delays = [d for _, d in source_of[key[0]].records[start:stop]]
        outcome[key] = check_fleet_window(payload, delays)
        publish_at[key] = at
        correct += outcome[key] is None
        if key in expected:
            attempted_correct += outcome[key] is None
            latencies.append(1e3 * (at - due_of(*key)))
    for key in sorted(expected):
        if key not in outcome:
            tally.fail("unpublished")
        elif outcome[key] is not None:
            tally.fail(outcome[key])
    for _ in range(sum(service.monitor.dropped_windows.values())):
        tally.fail("dropped")
    for _ in range(service.backpressure.n_shed_windows):
        tally.fail("shed")

    per_cycle = [{"wall_s": end - start, "cpu_s": cpu,
                  "correct": sum(1 for key, at in publish_at.items()
                                 if start <= at <= end and key in expected
                                 and outcome[key] is None)}
                 for start, end, cpu in cycles]

    extra: Dict[str, float] = {}
    ctx: Dict[str, float] = {}
    if open_loop:
        backlog = sum(1 for key in expected
                      if publish_at.get(key, math.inf) > t_end)
        lags = [at - source.due(k) for source in sources
                for first, end, at in source.polls
                for k in range(first, end)]
        extra = {"end_backlog_windows": backlog}
        ctx = {"end_backlog_windows": backlog,
               "ingest_lag_p50_ms": 1e3 * quantile(lags, 0.5)}
    else:
        # A closed-loop record is due when the service polls for it.
        ctx = {"ingest_lag_p50_ms": 0.0}
    if client is not None:
        extra.update({"api_read_p50_ms": quantile(client.read_ms, 0.5),
                      "api_reads": len(client.read_ms)})
        ctx.update({"api_read_p50_ms": extra["api_read_p50_ms"],
                    "api_get_p95_ms": quantile(client.get_ms, 0.95),
                    "api_errors": client.errors})

    def admit_time(path: str, window: int) -> Optional[float]:
        return source_of[path].admitted_at(_completing(window))

    return {
        "tally": tally,
        "setup_s": setup_s,
        "measured_s": t_exit - t0,
        "cpu_s": cpu_s,
        "correct": correct,
        "attempted_correct": attempted_correct,
        "published": len(published),
        "em_iters": sum(p["n_iter"] or 0 for p, _ in published),
        "latencies_ms": latencies,
        "cycles": n_cycles,
        "per_cycle": per_cycle,
        "extra": extra,
        "ctx": ctx,
        "admit_time": admit_time,
        "units": len(published),
        "max_iter": EMConfig().max_iter,
        "params": {
            "paths": n_paths,
            "kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
            "loop": spec["loop"],
            "rate_rps": spec.get("rate_rps"),
            "api_period_s": spec.get("api_period_s"),
            "config": "MonitorConfig() defaults: mmhd N=2 M=5 window=3000 "
                      "hop=1500, stationarity gate on; drain auto; "
                      "backpressure off; n_jobs=1",
            "observers": ("trace+health stores, default alerts, tsdb, "
                          "http api" if spec["observers"] else
                          "default alerts, tsdb"),
            "q_max_band": Q_MAX,
            "loss_prob_band": LOSS_PROB,
            "stream_warmup_records": WARMUP,
            "streams": [p for _, p in streams],
        },
    }
