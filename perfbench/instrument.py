"""Which public entry points the traced run wraps, and what each records.

Span names are ``<layer>.<part>``; the layer is the ``repro`` package
the wrapped code lives in (``bench`` marks the benchmark's own root and
oracle spans).  ``describe`` callbacks run after the call returns and
copy the ids and counts the ledger needs out of the arguments and the
result: path and window ids, EM row and iteration counts, gate outcomes.
"""

from __future__ import annotations

import importlib

from perfbench.spans import SpanRecorder

__all__ = ["install"]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hedged_fits(args, kwargs, result):
    fits, info = result
    active = int(info["active_row_iterations"])
    # occupancy = active row-iterations / (rows x batch iterations), summed
    # over the warm batch and any cold-hedge batch.
    slots = round(active / info["occupancy"]) if info["occupancy"] else 0
    return {"kind": args[0], "rows": len(fits), "row_iters": active,
            "slots": slots, "n_iter": [int(f[0].n_iter) for f in fits]}


def _restart_fits(args, kwargs, result):
    iters = [int(f.n_iter) for f in result]
    return {"kind": args[0], "rows": len(iters), "row_iters": sum(iters),
            "slots": len(iters) * max(iters, default=0), "n_iter": iters}


def _single_restart(kind):
    def describe(args, kwargs, result):
        n = int(result.n_iter)
        return {"kind": kind, "rows": 1, "row_iters": n, "slots": n,
                "n_iter": [n]}
    return describe


def _cold_fit(kind):
    def describe(args, kwargs, result):
        return {"kind": kind, "n_iter": int(result.n_iter),
                "converged": bool(result.converged)}
    return describe


def _fused_fits(args, kwargs, result):
    results, _ = result
    return {"kind": args[0], "rows": len(results),
            "warm": sum(r.warm_used for r in results),
            "fallbacks": sum(r.fallback_reason is not None for r in results)}


def _solo_fit(args, kwargs, result):
    return {"kind": _arg(args, kwargs, 3, "kind", "mmhd"),
            "warm": bool(result.warm_used),
            "fallback": result.fallback_reason}


def _drain(args, kwargs, result):
    return {"windows": len(result),
            "ids": [[e.path, e.window_index] for e in result]}


def _prepare(args, kwargs, result):
    return {"window": _arg(args, kwargs, 2, "window_index", 0),
            "skip": None if result.skip is None else result.skip.reason}


def _finish(args, kwargs, result):
    return {"window": _arg(args, kwargs, 3, "window_index", 0),
            "verdict": result.verdict}


def _event_for(args, kwargs, result):
    return {"path": result.path, "window": result.window_index}


def _ingest(args, kwargs, result):
    # One span per record: keep the payload to the path string itself.
    return args[1] if result is None else {"path": args[1], "drop": result}


def _step(args, kwargs, result):
    return {"cycle": result["cycle"], "windows": result["windows"],
            "ingested": result["ingested"], "dropped": result["dropped"],
            "shed": result["shed"]}


def _apply(args, kwargs, result):
    return {"shed": int(result["shed"])}


def _stationary(args, kwargs, result):
    return {"stationary": bool(result)}


def _network_run(args, kwargs, result):
    net = args[0]
    return {"net": id(net), "events": int(net.sim.processed_events)}


def _health_add(args, kwargs, result):
    return {"path": getattr(args[1], "path", None)}


def _trace_add(args, kwargs, result):
    return {"path": getattr(args[1], "path", None),
            "window": getattr(args[1], "window_index", None)}


def _verdict_snapshot(args, kwargs, result):
    return {"path": args[1]}


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced entry point (undo with ``recorder.restore()``)."""
    mod = importlib.import_module
    loop = mod("repro.service.loop")
    backpressure = mod("repro.service.backpressure")
    scheduler = mod("repro.streaming.scheduler")
    tracker = mod("repro.streaming.tracker")
    online_em = mod("repro.streaming.online_em")
    batched = mod("repro.models.batched")
    mmhd = mod("repro.models.mmhd")
    hmm = mod("repro.models.hmm")
    diagnostics = mod("repro.models.diagnostics")
    identify = mod("repro.core.identify")
    discretize = mod("repro.core.discretize")
    stationarity = mod("repro.measurement.stationarity")
    topology = mod("repro.netsim.topology")
    runner = mod("repro.experiments.runner")
    tsdb = mod("repro.obs.tsdb")
    alerts = mod("repro.obs.alerts")
    health = mod("repro.obs.health")
    trace = mod("repro.obs.trace")

    fn = recorder.wrap_function
    meth = recorder.wrap_method

    # service
    meth(loop.FleetService, "step", "service.step", _step)
    meth(loop.FleetService, "ingest", "service.ingest", _ingest)
    meth(loop.FleetService, "fleet_snapshot", "service.api.fleet")
    meth(loop.FleetService, "verdict_snapshot", "service.api.verdict",
         _verdict_snapshot)
    meth(backpressure.BackpressurePolicy, "apply", "service.backpressure",
         _apply)
    # streaming
    meth(scheduler.MultiPathMonitor, "drain", "streaming.drain", _drain)
    fn(tracker, "prepare_window", "streaming.prepare", _prepare)
    fn(tracker, "finish_window", "streaming.finish", _finish)
    fn(tracker, "analyze_window", "streaming.analyze")
    fn(online_em, "fused_streaming_fits", "streaming.fit.fused", _fused_fits)
    fn(online_em, "streaming_fit", "streaming.fit.solo", _solo_fit)
    meth(tracker.VerdictTracker, "event_for", "streaming.tracker",
         _event_for)
    # models
    fn(batched, "run_hedged_fits", "models.em.hedged", _hedged_fits)
    fn(batched, "batched_restart_fits", "models.em.restarts", _restart_fits)
    fn(mmhd, "_fit_mmhd_restart", "models.em.restart",
       _single_restart("mmhd"))
    fn(hmm, "_fit_hmm_restart", "models.em.restart", _single_restart("hmm"))
    fn(mmhd, "fit_mmhd", "models.cold_fit", _cold_fit("mmhd"))
    fn(hmm, "fit_hmm", "models.cold_fit", _cold_fit("hmm"))
    fn(diagnostics, "compute_window_diagnostics", "models.diagnostics")
    # core
    meth(discretize.DelayDiscretizer, "from_observation", "core.discretize")
    meth(discretize.DelayDiscretizer, "observation_sequence",
         "core.discretize")
    fn(identify, "evaluate_distribution", "core.tests")
    fn(identify, "identify", "core.identify")
    fn(identify, "estimate_bound", "core.bound")
    # measurement
    fn(stationarity, "observation_is_stationary", "measurement.stationarity",
       _stationary)
    # netsim and the experiment input generators
    meth(topology.Network, "run", "netsim.run", _network_run)
    fn(runner, "run_scenario", "experiments.scenario")
    # obs
    meth(tsdb.TimeSeriesStore, "collect", "obs.tsdb.collect")
    meth(alerts.AlertEngine, "evaluate", "obs.alerts.evaluate")
    meth(health.HealthStore, "add", "obs.health.add", _health_add)
    meth(trace.TraceStore, "add", "obs.trace.add", _trace_add)
