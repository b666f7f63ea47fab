"""Sliding probe windows over an incremental record stream.

The batch pipeline consumes a whole :class:`~repro.netsim.trace
.PathObservation` at once; the streaming subsystem instead receives probe
records one at a time (from :func:`repro.measurement.traceio
.iter_observation`, a live socket, or the simulator) and re-materialises
bounded, overlapping windows for the per-window identification step.

:class:`SlidingWindowAssembler` is the only stateful piece: it keeps the
last ``window`` records and emits a :class:`ProbeWindow` every ``hop``
records, so memory stays O(window) no matter how long the monitor runs.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Deque, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.netsim.trace import PathObservation
from repro.obs import trace as _trace

__all__ = ["ProbeWindow", "SlidingWindowAssembler", "iter_windows",
           "record_problem"]


def record_problem(send_time: float, delay: float) -> Optional[str]:
    """Why one probe record is unusable, or ``None`` when it is fine.

    A record needs a finite ``send_time`` and a ``delay`` that is finite
    and non-negative, or NaN for a lost probe.  Anything else has no
    physical reading: one infinite delay in a window made the ``Q_k``
    bound infinite, one negative delay shifted it by seconds, and both
    still published as confident verdicts.  Returns ``"bad-send-time"``
    or ``"bad-delay"``.
    """
    try:
        if not math.isfinite(send_time):
            return "bad-send-time"
    except TypeError:
        return "bad-send-time"
    try:
        if math.isnan(delay) or (math.isfinite(delay) and delay >= 0.0):
            return None
    except TypeError:
        pass
    return "bad-delay"


class ProbeWindow:
    """One completed sliding window, ready for identification.

    Attributes
    ----------
    index:
        0-based window number (monotone per path).
    start, stop:
        Absolute probe indices ``[start, stop)`` covered by the window.
    observation:
        The window's records as the estimator-facing
        :class:`PathObservation`.
    assembled_at:
        ``time.monotonic()`` at window completion — the reference point
        for the assembly-to-verdict lag the monitor reports.
    trace:
        A :class:`repro.obs.trace.WindowTrace` stamped by the assembler
        when record-to-verdict tracing is on, ``None`` otherwise.  Rides
        next to the payload — never inside it — so verdict streams stay
        byte-identical with tracing on or off.
    """

    __slots__ = ("index", "start", "stop", "observation", "assembled_at",
                 "trace")

    def __init__(
        self, index: int, start: int, stop: int, observation: PathObservation,
        assembled_at: Optional[float] = None,
    ):
        self.index = int(index)
        self.start = int(start)
        self.stop = int(stop)
        self.observation = observation
        self.assembled_at = (
            time.monotonic() if assembled_at is None else float(assembled_at)
        )
        self.trace = None

    @property
    def time_range(self) -> Tuple[float, float]:
        """Send-time span ``(first, last)`` of the window's probes."""
        times = self.observation.send_times
        return float(times[0]), float(times[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbeWindow(#{self.index}, probes [{self.start}, {self.stop}), "
            f"loss={self.observation.loss_rate:.2%})"
        )


class SlidingWindowAssembler:
    """Maintains overlapping sliding windows over a probe stream.

    Parameters
    ----------
    window:
        Probes per emitted window.
    hop:
        Probes between consecutive window starts; ``hop < window`` gives
        overlapping windows (the streaming default is 50% overlap so
        congestion transitions are never split across a window boundary),
        ``hop == window`` tiles the stream.
    """

    def __init__(self, window: int, hop: Optional[int] = None):
        if window < 2:
            raise ValueError(f"window must be >= 2 probes, got {window}")
        hop = window // 2 if hop is None else int(hop)
        if not 1 <= hop <= window:
            raise ValueError(f"hop must lie in 1..window, got {hop}")
        self.window = int(window)
        self.hop = hop
        self._send_times: Deque[float] = deque(maxlen=window)
        self._delays: Deque[float] = deque(maxlen=window)
        self._ingest_times: Deque[float] = deque(maxlen=window)
        self._last_stamp = 0.0
        self._n_pushed = 0
        self._n_windows = 0
        self._next_emit_at = window
        self._last_emit_stop = 0

    @property
    def n_pushed(self) -> int:
        """Total probes ingested so far."""
        return self._n_pushed

    @property
    def n_windows(self) -> int:
        """Windows emitted so far."""
        return self._n_windows

    def _emit(self) -> ProbeWindow:
        stop = self._n_pushed
        probe_window = ProbeWindow(
            index=self._n_windows,
            start=stop - len(self._send_times),
            stop=stop,
            observation=PathObservation(
                np.array(self._send_times), np.array(self._delays)
            ),
        )
        if _trace._TRACING and self._ingest_times:
            probe_window.trace = _trace.WindowTrace(
                ingest_first=self._ingest_times[0],
                ingest_last=self._ingest_times[-1],
                assembled_at=probe_window.assembled_at,
            )
        self._n_windows += 1
        self._next_emit_at = stop + self.hop
        self._last_emit_stop = stop
        return probe_window

    def push(self, send_time: float, delay: float) -> Optional[ProbeWindow]:
        """Ingest one probe record; returns a window when one completes.

        ``delay`` is the one-way delay in seconds, ``NaN`` for a lost
        probe — the same convention as :class:`PathObservation`.
        """
        self._send_times.append(float(send_time))
        self._delays.append(float(delay))
        self._n_pushed += 1
        if _trace._TRACING:
            # Ingest stamps come from the monotonic clock, clamped
            # non-decreasing — records arriving out of send-time order
            # (or duplicated) still trace monotonically.
            stamp = time.monotonic()
            if stamp < self._last_stamp:
                stamp = self._last_stamp
            self._last_stamp = stamp
            self._ingest_times.append(stamp)
        if self._n_pushed >= self._next_emit_at:
            return self._emit()
        return None

    def tail(self, min_size: int = 2) -> Optional[ProbeWindow]:
        """The not-yet-emitted trailing partial window, if large enough.

        Called at end-of-stream so a monitor can squeeze a final verdict
        out of the leftover probes; returns ``None`` when fewer than
        ``min_size`` new records arrived since the last emitted window
        (this also covers streams shorter than one full window, whose
        only window is the tail).
        """
        fresh = self._n_pushed - self._last_emit_stop
        if fresh < min_size or len(self._send_times) < min_size:
            return None
        return self._emit()


def iter_windows(
    records: Iterable[Tuple[float, float]],
    window: int,
    hop: Optional[int] = None,
) -> Iterator[ProbeWindow]:
    """Convenience: stream ``(send_time, delay)`` pairs into windows."""
    assembler = SlidingWindowAssembler(window, hop)
    for send_time, delay in records:
        completed = assembler.push(send_time, delay)
        if completed is not None:
            yield completed
