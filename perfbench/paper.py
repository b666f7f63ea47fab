"""The ``paper-batch`` workload: the paper's offline pipeline per trace.

One operation is one scenario trace; one pass runs, in order:

* ``table2-strong`` — Table II (strong DCL at (r2, r3)), 130 s of probing;
* ``table4-none`` — Table IV (no DCL), 30 s of probing;

Set-up simulates both traces with ``run_scenario`` (the input
generation).  The timed phase puts each through ``identify`` (M=5) and,
on a DCL verdict, ``estimate_bound`` (M=40), in whole passes until the
run's seconds are spent.

The pass holds the traces whose oracle held on every seed first tried
at a length a run can afford.  Table III (weak DCL), the Fig. 12
Ethernet path and the Table II network through the Fig. 12 clock
distortion and repair failed it on some seeds; README.md gives the
counts.  Both traces of the pass fail it at seed 1319015729, which is
why BENCHMARK.json does not declare this workload.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Optional

from perfbench.harness import Tally
from perfbench.oracle import check_scenario
from perfbench.spans import maybe_span
from repro.core import IdentifyConfig, estimate_bound, identify
from repro.core.identify import evaluate_distribution, verdict_from_tests
from repro.core.virtual_delay import ground_truth_distribution
from repro.experiments import run_scenario
from repro.experiments.scenarios import no_dcl_scenario, strong_dcl_scenario
from repro.models.base import EMConfig, InsufficientLossError

__all__ = ["run_paper", "SIM_DURATION_S"]

#: Simulated seconds of probing per trace (after the scenarios' default
#: 30 s warm-up), at the paper's 20 ms probe period.  The strong-DCL
#: trace needs 130 s (6500 probes): at 60 s the M=40 bound fell more than
#: a bin below the true Q_k on 1 of 11 DCL traces, at 30 s on 3 of 8; at
#: 130 s it held on 7 seeds but not at seed 1319015729.  The no-DCL
#: verdict held on 15 seeds at 30 s, but not at seed 1319015729.
SIM_DURATION_S = {"table2-strong": 130.0, "table4-none": 30.0}
BOUND_SYMBOLS = 40
#: Set-up (simulating both traces, about a second) is repeated and its
#: median reported; every repeat simulates the same traces.
SETUP_REPEATS = 3


def _scenarios():
    return [("table2-strong", strong_dcl_scenario()),
            ("table4-none", no_dcl_scenario())]


def _truth(result, report, config) -> str:
    """Verdict of the tests on the simulator's virtual-probe ``G``,
    symbolized with the report's own discretizer."""
    sdcl, wdcl = evaluate_distribution(
        ground_truth_distribution(result.trace, report.discretizer), config)
    return verdict_from_tests(sdcl, wdcl)


def run_paper(seed: int, seconds: float, recorder=None,
              ops: Optional[int] = None) -> dict:
    """Run paper-batch; returns measurements and the oracle tally.

    Whole passes over the traces run, so every run sees the same
    scenario mix: another pass starts only if one as long as the last
    would still end within ``seconds``.  ``ops`` instead fixes the
    operation count (the harness self-check's smoke run).
    """
    config = IdentifyConfig()
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        traces = []
        with maybe_span(recorder, "bench.setup"):
            for k, (name, scenario) in enumerate(_scenarios()):
                sim_started = time.perf_counter()
                result = run_scenario(scenario, seed=seed * 1000 + k,
                                      duration=SIM_DURATION_S[name])
                traces.append((name, seed * 1000 + k, result,
                               result.trace.observation(),
                               time.perf_counter() - sim_started))
        setups.append(time.perf_counter() - started)

    tally = Tally()
    records = []
    latencies: List[float] = []
    t0 = time.perf_counter()
    c0 = time.process_time()
    k = 0
    pass_s = 0.0
    while (k < ops) if ops is not None else (
            k % len(traces) or k == 0
            or time.perf_counter() - t0 + pass_s <= seconds):
        if k % len(traces) == 0:
            pass_started = time.perf_counter()
        name, sim_seed, result, observation, sim_s = traces[k % len(traces)]
        tally.attempted += 1
        with maybe_span(recorder, "bench.op"):
            started = time.perf_counter()
            try:
                report = identify(observation, config)
            except InsufficientLossError:
                # A loss-free trace: the estimators are undefined on it.
                report = None
            bound = None
            if report is not None and report.verdict != "none":
                bound = estimate_bound(observation, report.verdict, config,
                                       n_symbols=BOUND_SYMBOLS)
            done = time.perf_counter()
            if report is not None:
                with maybe_span(recorder, "bench.oracle"):
                    truth = _truth(result, report, config)
        latencies.append(1e3 * (done - started))
        record = {"op": k, "scenario": name, "sim_seed": sim_seed,
                  "probes": len(observation.delays),
                  "simulate_s": sim_s,
                  "scenario_verdict_s": sim_s + done - started}
        if report is None:
            reason = "skipped:no-losses"
        else:
            built = result.built
            true_qk = (built.dominant_max_queuing_delay()
                       if built.dcl_link is not None else None)
            bound_s = None if bound is None else bound.seconds
            reason = check_scenario(
                report.verdict, truth, bound_s, true_qk,
                report.discretizer.queuing_range / BOUND_SYMBOLS)
            record.update({
                "verdict": report.verdict, "truth": truth,
                "bound_ms": None if bound_s is None else 1e3 * bound_s,
                "true_qk_ms": None if true_qk is None else 1e3 * true_qk,
                "n_iter": int(report.fitted.n_iter)})
        if reason is not None:
            tally.fail(reason)
        record["oracle"] = reason or "ok"
        records.append(record)
        k += 1
        if k % len(traces) == 0:
            pass_s = time.perf_counter() - pass_started
    measured_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    correct = tally.attempted - tally.failed
    scenario_s = [r["scenario_verdict_s"] for r in records]
    return {
        "tally": tally,
        "setup_s": statistics.median(setups),
        "measured_s": measured_s,
        "cpu_s": cpu_s,
        "correct": correct,
        "attempted_correct": correct,
        "published": k,
        "em_iters": sum(r.get("n_iter", 0) for r in records),
        "latencies_ms": latencies,
        "cycles": k,
        "extra": {"scenario_verdict_s": (statistics.median(scenario_s)
                                         if scenario_s else math.nan)},
        "ctx": {},
        "admit_time": None,
        "units": k,
        "max_iter": EMConfig().max_iter,
        "ops": records,
        "params": {
            "scenarios": [t[0] for t in traces],
            "scenario_settings": "strong_dcl_scenario(), no_dcl_scenario() "
                                 "defaults",
            "sim_duration_s": SIM_DURATION_S,
            "warmup_s": 30.0,
            "probe_interval_s": 0.020,
            "identify": "IdentifyConfig() defaults: mmhd N=2 M=5",
            "bound_symbols": BOUND_SYMBOLS,
            "sim_seed": "seed * 1000 + scenario index",
        },
    }
