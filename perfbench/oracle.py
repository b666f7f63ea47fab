"""Correctness oracles: every published output is checked, never filtered.

* Fleets: every due window of a ``strong_dcl_stream`` path must publish
  ``status == "ok"`` with verdict ``strong`` (the generator is a strong
  DCL by construction), and its ``Q_k`` bound must be finite and inside
  the window's observed queuing range ``(0, max delay - min delay]``.
* paper-batch: the verdict must equal the one the SDCL/WDCL tests give
  on the simulator's virtual-probe ground truth symbolized with the same
  discretizer; an ``M = 40`` bound must be finite and not below the true
  maximum queuing delay of the dominant link by more than one bin.

Each check returns ``None`` or a typed failure reason.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["check_fleet_window", "check_scenario"]


def check_fleet_window(payload: dict,
                       delays: Sequence[float]) -> Optional[str]:
    """Oracle for one published fleet window (its payload and delays)."""
    if payload["status"] != "ok":
        return f"skipped:{payload['reason']}"
    if payload["verdict"] != "strong":
        return "wrong-verdict"
    bound = payload["bound_seconds"]
    observed = [d for d in delays if not math.isnan(d)]
    if bound is None or not math.isfinite(bound) or not observed:
        return "bad-bound"
    queuing_range = max(observed) - min(observed)
    # The payload rounds the bound to 1 us; allow that much above.
    if not 0.0 < bound <= queuing_range + 1e-6:
        return "bad-bound"
    return None


def check_scenario(verdict: str, truth: str, bound_s: Optional[float],
                   true_qk: Optional[float],
                   bin_width: float) -> Optional[str]:
    """Oracle for one paper-batch trace.

    ``truth`` is the ground-truth verdict; ``true_qk`` the dominant
    link's maximum queuing delay (``None`` without one); ``bin_width``
    the ``M = 40`` bin width in seconds.
    """
    if verdict != truth:
        return "wrong-verdict"
    if verdict == "none":
        return None
    if bound_s is None or not math.isfinite(bound_s) or bound_s <= 0.0:
        return "bad-bound"
    if true_qk is not None and bound_s < true_qk - bin_width:
        return "bad-bound"
    return None
