"""Self-checks for the benchmark harness.

    python3 perfbench/selfcheck.py          # all checks (~3 min)
    python3 perfbench/selfcheck.py --quick  # skip the workload smoke runs

Checks that the oracles reject doctored outputs, that self-time
arithmetic is right on a synthetic span tree, that the open-loop source
keeps its schedule while the consumer stalls, and (unless ``--quick``)
that each workload completes a tiny run with its oracle passing.  Exits
non-zero when any check fails.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import _import_repro  # noqa: E402


def check_oracles() -> None:
    from perfbench.oracle import check_fleet_window, check_scenario

    delays = [0.02, 0.05, float("nan"), 0.12]
    good = {"status": "ok", "reason": None, "verdict": "strong",
            "bound_seconds": 0.08}
    assert check_fleet_window(good, delays) is None
    assert check_fleet_window(dict(good, verdict="weak"),
                              delays) == "wrong-verdict"
    assert check_fleet_window(dict(good, bound_seconds=math.inf),
                              delays) == "bad-bound"
    assert check_fleet_window(dict(good, bound_seconds=None),
                              delays) == "bad-bound"
    assert check_fleet_window(dict(good, bound_seconds=0.5),
                              delays) == "bad-bound"
    assert check_fleet_window(
        dict(good, status="skipped", reason="nonstationary", verdict=None),
        delays) == "skipped:nonstationary"
    assert check_scenario("strong", "strong", 0.16, 0.16, 0.004) is None
    assert check_scenario("strong", "weak", 0.16, 0.16, 0.004) \
        == "wrong-verdict"
    assert check_scenario("weak", "weak", math.nan, 1.0, 0.01) == "bad-bound"
    assert check_scenario("strong", "strong", 0.15, 0.16, 0.004) \
        == "bad-bound"
    assert check_scenario("none", "none", None, None, 0.004) is None


def check_self_time() -> None:
    from perfbench.ledger import layer_metrics
    from perfbench.spans import SpanRecorder, self_times

    now = [0.0]
    recorder = SpanRecorder(clock=lambda: now[0])

    def at(t):
        now[0] = t

    # bench.cycle [0,10] > service.step [1,9] > streaming.drain [2,8]
    #   > models.em.hedged [3,7]; obs.tsdb.collect [9,9.5] under the root.
    root = recorder.open("bench.cycle")
    at(1)
    step = recorder.open("service.step")
    at(2)
    drain = recorder.open("streaming.drain")
    at(3)
    em = recorder.open("models.em.hedged")
    at(7)
    recorder.close(em)
    em.attrs = {"kind": "mmhd", "rows": 2, "row_iters": 300, "slots": 400,
                "n_iter": [200, 100]}
    at(8)
    recorder.close(drain)
    drain.attrs = {"windows": 2, "ids": [["a", 0], ["b", 0]]}
    at(9)
    recorder.close(step)
    step.attrs = {"cycle": 1, "windows": 2, "ingested": 0, "dropped": 0,
                  "shed": 0}
    tsdb = recorder.open("obs.tsdb.collect")
    at(9.5)
    recorder.close(tsdb)
    at(10)
    recorder.close(root)

    selfs = self_times(recorder.spans)
    expect = {root.sid: 1.5, step.sid: 2.0, drain.sid: 2.0, em.sid: 4.0,
              tsdb.sid: 0.5}
    for sid, value in expect.items():
        assert abs(selfs[sid] - value) < 1e-12, (sid, selfs[sid], value)
    m = layer_metrics(recorder.spans, max_iter=200, windows=2, ctx={})
    shares = {"bench": 0.15, "service": 0.2, "streaming": 0.2,
              "models": 0.4, "obs": 0.05}
    for layer, share in shares.items():
        got = m[f"{layer}.self_share"]["value"]
        assert abs(got - share) < 1e-12, (layer, got, share)
    assert abs(m["bench.unattributed_share"]["value"] - 0.15) < 1e-12
    assert m["models.em.row_iters"]["value"] == 300
    assert m["models.em.maxiter_share"]["value"] == 0.5
    assert m["models.em.pass_utilisation"]["value"] == 0.75
    assert abs(m["models.em.ms_per_row_iter"]["value"] - 4000 / 300) < 1e-9
    assert m["streaming.drain.windows_per_call"]["value"] == 2


def _open_loop(stall: float):
    """Poll a ScheduledSource, 'drain' with a stub that sleeps ``stall``.

    Returns ``(due_times, window_latencies)`` for 10-record windows
    completed by the records polled, on a fake clock.
    """
    from perfbench.fleet import ScheduledSource

    now = [0.0]
    records = [(0.02 * k, 0.05) for k in range(400)]
    source = ScheduledSource(records, start=0, clock=lambda: now[0],
                             t0=0.0, rate=20.0)
    latencies = []
    seen = 0
    while now[0] < 10.0:
        batch = source.poll(1000)
        seen += len(batch)
        completed = [k for k in range(seen - len(batch), seen)
                     if (k + 1) % 10 == 0]
        if completed:
            now[0] += stall  # the stub drain
            latencies.extend(now[0] - source.due(k) for k in completed)
        now[0] += 0.05  # the service's idle interval
    return [source.due(k) for k in range(len(records))], latencies


def check_open_loop_schedule() -> None:
    due_fast, lat_fast = _open_loop(stall=0.0)
    due_slow, lat_slow = _open_loop(stall=2.0)
    assert due_fast == due_slow, "the schedule moved under a stalled consumer"
    assert due_fast[19] == 1.0 and due_fast[0] == 0.05
    assert max(lat_fast) < 0.11, max(lat_fast)
    assert min(lat_slow) > max(lat_fast)
    assert sorted(lat_slow)[len(lat_slow) // 2] > 1.0


def check_smoke() -> None:
    from perfbench.fleet import run_fleet
    from perfbench.paper import run_paper

    runs = {
        "fleet-saturated": run_fleet("fleet-saturated", 1, 0.0, paths=2),
        "fleet-observed": run_fleet("fleet-observed", 1, 0.0, paths=2),
        "fleet-open": run_fleet("fleet-open", 1, 3.0, paths=4),
        "paper-batch": run_paper(1, 0.0, ops=1),
    }
    for name, out in runs.items():
        tally = out["tally"]
        assert tally.attempted >= 1, name
        assert tally.correct, (name, tally.summary())
        assert out["latencies_ms"], name
        print(f"  smoke {name}: {tally.summary()}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not _import_repro():
        return 2
    checks = [check_oracles, check_self_time, check_open_loop_schedule]
    if "--quick" not in argv:
        checks.append(check_smoke)
    failed = 0
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
