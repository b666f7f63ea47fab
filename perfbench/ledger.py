"""Per-layer metrics from a traced run's spans.

Busy time is the summed duration of root spans (spans without a parent
on their thread).  Each layer's share is the self time of its spans over
busy time; the benchmark's own root spans (``bench.cycle``,
``bench.op``, ``bench.setup``) keep as self time only what no named
layer span covers, which is ``bench.unattributed_share``.

Counts that only the workload knows (published windows, ingest lag,
queue admission times, HTTP reads, backlog) arrive in ``ctx``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from perfbench.harness import metric, quantile
from perfbench.spans import Span, layer_of, self_times

__all__ = ["LAYERS", "PER_LAYER", "UNDECLARED", "UNITS", "layer_metrics"]

LAYERS = ("netsim", "measurement", "core", "models", "streaming",
          "service", "obs", "experiments", "bench")

#: Every per-layer metric: name -> unit.  The order is the print order.
UNITS = {
    "models.em.iters_per_window": "count",
    "models.em.iters_p90": "count",
    "models.em.row_iters": "count",
    "models.em.maxiter_share": "ratio",
    "models.em.pass_utilisation": "ratio",
    "models.em.ms_per_row_iter": "ms",
    "models.em.ms_per_row_iter.mmhd": "ms",
    "models.em.ms_per_row_iter.hmm": "ms",
    "models.diagnostics.busy_ms_per_window": "ms",
    "models.cold_fit.busy_s": "s",
    "streaming.drain.windows_per_call": "count",
    "streaming.drain.queue_wait_p50_ms": "ms",
    "streaming.drain.queue_wait_p90_ms": "ms",
    "streaming.fit.warm_busy_s": "s",
    "streaming.fit.cold_busy_s": "s",
    "streaming.fit.cold_windows": "count",
    "streaming.fit.fallbacks": "count",
    "streaming.prepare.busy_ms_per_window": "ms",
    "streaming.finish.busy_ms_per_window": "ms",
    "service.cycles": "count",
    "service.ingest.busy_ms_per_krec": "ms",
    "service.ingest.lag_p50_ms": "ms",
    "service.ingest.dropped": "count",
    "service.backpressure.shed_windows": "count",
    "service.backlog.end_windows": "windows",
    "service.loop.self_ms_per_cycle": "ms",
    "service.api.read_p50_ms": "ms",
    "service.api.get_p95_ms": "ms",
    "service.api.errors": "count",
    "measurement.stationarity.busy_ms_per_window": "ms",
    "measurement.stationarity.skip_share": "ratio",
    "core.discretize.busy_ms_per_window": "ms",
    "core.tests.busy_ms_per_window": "ms",
    "core.identify.fit_s": "s",
    "core.bound.refit_s": "s",
    "netsim.events": "count",
    "netsim.events_per_s": "1/s",
    "netsim.busy_s": "s",
    "obs.tsdb.collect_ms_per_cycle": "ms",
    "obs.alerts.evaluate_ms_per_cycle": "ms",
    "obs.health.add_ms_per_window": "ms",
    "obs.trace.add_ms_per_window": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "bench.unattributed_share": "ratio",
    "bench.trace_overhead_share": "ratio",
}

#: Metrics only an undeclared workload exercises: paper-batch (the
#: simulator and the single-sequence identify / bound fits) or fleet-open
#: (scheduled ingest).  They read 0 on the closed-loop fleets
#: BENCHMARK.json declares, so they are printed in the report but not
#: part of the declared set.
UNDECLARED = frozenset({
    "core.identify.fit_s",
    "core.bound.refit_s",
    "netsim.events",
    "netsim.events_per_s",
    "netsim.busy_s",
    "netsim.self_share",
    "service.ingest.lag_p50_ms",
    "service.backlog.end_windows",
})

#: The per-layer metrics BENCHMARK.json declares (``--trace 1`` output).
PER_LAYER = {name: unit for name, unit in UNITS.items()
             if name not in UNDECLARED}

_ROOTS = ("bench.cycle", "bench.op", "bench.setup")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[Span],
    *,
    max_iter: int,
    windows: int,
    ctx: Dict,
    admit_time: Optional[Callable[[str, int], Optional[float]]] = None,
) -> Dict[str, dict]:
    """Every :data:`UNITS` metric, as ``{name: {"value", "unit"}}``.

    ``windows`` is the unit work count for the ``*_per_window`` metrics:
    published windows on the fleets, scenario traces on paper-batch.
    ``admit_time(path, window)`` gives when a window's completing record
    entered the service, for the drain queue wait.
    """
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def root_of(span: Span) -> Span:
        while span.parent:
            span = by_id[span.parent]
        return span

    def under(span: Span, name: str) -> bool:
        while span.parent:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    roots = [s for s in spans if not s.parent]
    busy = sum(s.duration for s in roots)
    timed = [s for s in spans if root_of(s).name != "bench.setup"]
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in timed:
        named[span.name].append(span)

    def total(name: str, self_only: bool = False) -> float:
        return sum(selfs[s.sid] if self_only else s.duration
                   for s in named[name])

    out: Dict[str, float] = {}

    # models: iteration accounting from the outermost EM spans of the
    # timed phase (set-up's template fits count in cold_fit.busy_s only).
    em_all = [s for s in timed if s.name.startswith("models.em.")]
    outer = [s for s in em_all if not (
        s.parent and by_id[s.parent].name.startswith("models.em."))]
    per_fit: List[int] = []
    for span in outer:
        if span.name == "models.em.hedged":
            per_fit.extend(span.attrs["n_iter"])
    per_fit.extend(s.attrs["n_iter"] for s in timed
                   if s.name == "models.cold_fit"
                   and not under(s, "models.cold_fit"))
    row_iters = {"mmhd": 0, "hmm": 0}
    slots = 0
    for span in outer:
        row_iters[span.attrs["kind"]] += span.attrs["row_iters"]
        slots += span.attrs["slots"]
    em_self = {"mmhd": 0.0, "hmm": 0.0}
    for span in em_all:
        em_self[span.attrs["kind"]] += selfs[span.sid]
    all_iters = sum(row_iters.values())
    out["models.em.iters_per_window"] = _ratio(sum(per_fit), len(per_fit))
    out["models.em.iters_p90"] = quantile(per_fit, 0.9)
    out["models.em.row_iters"] = all_iters
    out["models.em.maxiter_share"] = _ratio(
        sum(n >= max_iter for n in per_fit), len(per_fit))
    out["models.em.pass_utilisation"] = _ratio(all_iters, slots)
    out["models.em.ms_per_row_iter"] = 1e3 * _ratio(sum(em_self.values()),
                                                    all_iters)
    for kind in ("mmhd", "hmm"):
        out[f"models.em.ms_per_row_iter.{kind}"] = 1e3 * _ratio(
            em_self[kind], row_iters[kind])
    out["models.diagnostics.busy_ms_per_window"] = 1e3 * _ratio(
        total("models.diagnostics"), windows)
    out["models.cold_fit.busy_s"] = sum(
        s.duration for s in spans
        if s.name == "models.cold_fit" and not under(s, "models.cold_fit"))

    # streaming
    drains = [s for s in named["streaming.drain"] if s.attrs["windows"]]
    out["streaming.drain.windows_per_call"] = _ratio(
        sum(s.attrs["windows"] for s in drains), len(drains))
    waits = []
    if admit_time is not None:
        for span in drains:
            for path, window in span.attrs["ids"]:
                admitted = admit_time(path, window)
                if admitted is not None:
                    waits.append(1e3 * (span.start - admitted))
    out["streaming.drain.queue_wait_p50_ms"] = quantile(waits, 0.5)
    out["streaming.drain.queue_wait_p90_ms"] = quantile(waits, 0.9)
    solo = named["streaming.fit.solo"]
    out["streaming.fit.warm_busy_s"] = total("streaming.fit.fused") + sum(
        s.duration for s in solo if s.attrs["warm"])
    out["streaming.fit.cold_busy_s"] = sum(
        s.duration for s in solo if not s.attrs["warm"])
    out["streaming.fit.cold_windows"] = sum(not s.attrs["warm"] for s in solo)
    out["streaming.fit.fallbacks"] = sum(
        s.attrs["fallbacks"] for s in named["streaming.fit.fused"]) + sum(
        s.attrs["fallback"] is not None for s in solo)
    for part in ("prepare", "finish"):
        calls = named[f"streaming.{part}"]
        out[f"streaming.{part}.busy_ms_per_window"] = 1e3 * _ratio(
            sum(s.duration for s in calls), len(calls))

    # service
    cycles = len(named["service.step"])
    ingests = named["service.ingest"]
    out["service.cycles"] = cycles
    out["service.ingest.busy_ms_per_krec"] = 1e3 * _ratio(
        sum(s.duration for s in ingests), len(ingests) / 1e3)
    out["service.ingest.lag_p50_ms"] = ctx.get("ingest_lag_p50_ms", 0.0)
    out["service.ingest.dropped"] = sum(isinstance(s.attrs, dict)
                                        for s in ingests)
    out["service.backpressure.shed_windows"] = sum(
        s.attrs["shed"] for s in named["service.backpressure"])
    out["service.backlog.end_windows"] = ctx.get("end_backlog_windows", 0)
    out["service.loop.self_ms_per_cycle"] = 1e3 * _ratio(
        total("service.step", self_only=True), cycles)
    out["service.api.read_p50_ms"] = ctx.get("api_read_p50_ms", 0.0)
    out["service.api.get_p95_ms"] = ctx.get("api_get_p95_ms", 0.0)
    out["service.api.errors"] = ctx.get("api_errors", 0)

    # measurement
    gates = named["measurement.stationarity"]
    out["measurement.stationarity.busy_ms_per_window"] = 1e3 * _ratio(
        sum(s.duration for s in gates), len(gates))
    out["measurement.stationarity.skip_share"] = _ratio(
        sum(not s.attrs["stationary"] for s in gates), len(gates))

    # core
    out["core.discretize.busy_ms_per_window"] = 1e3 * _ratio(
        total("core.discretize", self_only=True), windows)
    out["core.tests.busy_ms_per_window"] = 1e3 * _ratio(
        total("core.tests"), windows)
    for name, key in (("core.identify", "core.identify.fit_s"),
                      ("core.bound", "core.bound.refit_s")):
        calls = named[name]
        fit_s = sum(s.duration for s in timed if s.name == "models.cold_fit"
                    and under(s, name) and not under(s, "models.cold_fit"))
        out[key] = _ratio(fit_s, len(calls))

    # netsim: paper-batch simulates its traces in set-up.
    events: Dict[int, int] = {}
    runs = [s for s in spans if s.name == "netsim.run"]
    for span in runs:
        net = span.attrs["net"]
        events[net] = max(events.get(net, 0), span.attrs["events"])
    sim_s = sum(s.duration for s in runs)
    out["netsim.events"] = sum(events.values())
    out["netsim.events_per_s"] = _ratio(sum(events.values()), sim_s)
    out["netsim.busy_s"] = sim_s

    # obs
    out["obs.tsdb.collect_ms_per_cycle"] = 1e3 * _ratio(
        total("obs.tsdb.collect"), cycles)
    out["obs.alerts.evaluate_ms_per_cycle"] = 1e3 * _ratio(
        total("obs.alerts.evaluate"), cycles)
    out["obs.health.add_ms_per_window"] = 1e3 * _ratio(
        total("obs.health.add"), windows)
    out["obs.trace.add_ms_per_window"] = 1e3 * _ratio(
        total("obs.trace.add"), windows)

    # the ledger: per-layer self time over busy time
    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        layer_self[layer_of(span.name)] += selfs[span.sid]
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(layer_self[layer], busy)
    out["bench.unattributed_share"] = _ratio(
        sum(selfs[s.sid] for s in roots if s.name in _ROOTS), busy)
    # Tracing cost: spans recorded x the calibrated cost of one span.
    out["bench.trace_overhead_share"] = _ratio(
        len(spans) * ctx.get("span_cost_s", 0.0), busy)

    unknown = set(layer_self) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    return {name: metric(out[name], unit) for name, unit in UNITS.items()}
