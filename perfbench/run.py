"""Run one benchmark workload for one seed.

    python3 perfbench/run.py --workload fleet-saturated --seed 1 \\
        --seconds 20 --trace 0

Prints a human-readable report (provenance, typed failures, workload
metrics) and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics; with ``--trace 1`` the run does the
same work with the benchmark's span recorder installed and reports the
per-layer metrics instead.  Exits non-zero without a result when the
``repro`` sources are not beside this directory under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-saturated", "fleet-observed", "fleet-open",
             "paper-batch")
#: One BLAS / OpenMP thread unless the caller chose otherwise.  Each
#: workload loads the host from one process; a second BLAS thread spinning
#: beside it made paper-batch burn ~50% more CPU per verdict on the
#: reference host for no wall-time gain, and made runs noisier.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_repro() -> bool:
    """Put ``<root>/src`` first on the path; the program must come from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def _run(workload: str, seed: int, seconds: float, recorder=None) -> dict:
    if workload == "paper-batch":
        from perfbench.paper import run_paper

        return run_paper(seed, seconds, recorder=recorder)
    from perfbench.fleet import run_fleet

    return run_fleet(workload, seed, seconds, recorder=recorder)


def _end_to_end(out: dict) -> dict:
    """The end-to-end metrics.

    On the closed loops, throughput and CPU per verdict are medians over
    the run's cycles, so one cycle slowed by the shared host does not
    move them; elsewhere they are totals over the measured interval.
    """
    from perfbench.harness import metric, peak_rss_mb, quantile

    cycles = out.get("per_cycle")
    if cycles:
        rate = statistics.median(c["correct"] / c["wall_s"] for c in cycles)
        cpu_ms = statistics.median(1e3 * c["cpu_s"] / max(c["correct"], 1)
                                   for c in cycles)
    else:
        rate = out["attempted_correct"] / out["measured_s"]
        cpu_ms = 1e3 * out["cpu_s"] / max(out["correct"], 1)
    return {
        "verdicts_per_s": metric(rate, "1/s"),
        "cpu_ms_per_verdict": metric(cpu_ms, "ms"),
        "record_to_verdict_p50_ms": metric(
            quantile(out["latencies_ms"], 0.5), "ms"),
        "setup_s": metric(out["setup_s"], "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    if not _import_repro():
        return 2

    from perfbench.harness import OUT_DIR, provenance, quantile, write_json

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = None
    if args.trace:
        from perfbench.instrument import install
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        install(recorder)
    try:
        out = _run(args.workload, args.seed, args.seconds, recorder=recorder)
    finally:
        if recorder is not None:
            recorder.restore()
    tally = out["tally"]
    metrics = _end_to_end(out)
    report = {
        "workload": args.workload,
        "measured_s": out["measured_s"],
        "cycles_or_ops": out["cycles"],
        "published": out["published"],
        "em_iters_of_published_fits": out["em_iters"],
        "correct_verdicts": out["correct"],
        "latency_samples": len(out["latencies_ms"]),
        "record_to_verdict_p90_ms": quantile(out["latencies_ms"], 0.9),
        "failures": tally.summary(),
        "verdict_fail_share": tally.failed / max(tally.attempted, 1),
        "workload_metrics": out["extra"],
    }
    if "ops" in out:
        report["ops"] = out["ops"]
    if recorder is not None:
        from perfbench.ledger import PER_LAYER, layer_metrics
        from perfbench.spans import span_cost

        ctx = dict(out["ctx"], span_cost_s=span_cost())
        layers = layer_metrics(recorder.spans, max_iter=out["max_iter"],
                               windows=out["units"], ctx=ctx,
                               admit_time=out["admit_time"])
        metrics = {name: layers[name] for name in PER_LAYER}
        report["undeclared_layer_metrics"] = {
            name: m for name, m in layers.items() if name not in PER_LAYER}
        report["traced"] = {"spans": len(recorder.spans),
                            "span_cost_us": 1e6 * ctx["span_cost_s"],
                            "end_to_end_with_spans": _end_to_end(out)}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        recorder.dump(OUT_DIR / f"spans-{tag}.jsonl.gz")
    record = provenance(args.workload, args.seed, args.seconds,
                        bool(args.trace), out["params"])
    record["report"] = report
    record["metrics"] = metrics
    write_json(OUT_DIR / f"run-{tag}.json", record)

    shown = ("git_sha", "source_sha256", "host", "seed", "workload")
    print(f"provenance: {json.dumps({k: record[k] for k in shown})}")
    params = {k: v for k, v in out["params"].items() if k != "streams"}
    print(f"params: {json.dumps(params)} (per-path streams in "
          f"{OUT_DIR.name}/run-{tag}.json)")
    summary = tally.summary()
    print(f"operations: attempted={summary['attempted']} "
          f"failed={summary['failed']} reasons={summary['reasons']} "
          f"oracle={summary['oracle']}")
    for key, value in report.items():
        if key not in ("failures", "ops"):
            print(f"{key}: {json.dumps(value, default=str)}")
    for op in report.get("ops", []):
        print(f"op: {json.dumps(op)}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.correct,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
