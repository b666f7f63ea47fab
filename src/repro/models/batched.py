"""Batched E-step engine for the HMM/MMHD fitters.

A multi-restart EM fit runs ``R`` independent forward-backward
recursions over the same observation sequence.  The sequential engine
(:func:`repro.models.hmm._fit_hmm_restart` and its MMHD twin) pays the
interpreted Python time loop once per restart: ``R x T`` tiny
``(N,) @ (N, N)`` matvecs dominated by call overhead, not FLOPs.  This
module stacks parameter sets into tensors (``pi: (K, N)``,
``transition: (K, N, N)``, ``emission: (K, N, M)``) and runs ONE
forward-backward over the stack, so the time loop executes ``T``
batched ``(K, 1, N) @ (K, N, N)`` matmul steps instead — the classic
Baum-Welch batching opportunity.

One engine, ragged rows
-----------------------
Every batch row owns its own observation sequence, right-padded to the
stack's ``t_max`` through a :class:`repro.models.base.SymbolStack`.  A
restart stack is the equal-length case: ``R`` rows of the same sequence.
The streaming layer's fused drains stack the warm E-steps of many
monitor windows — different paths, different window lengths — into one
mega-batch (:func:`run_hedged_fits`).  Padded steps are carried, not
computed: the forward pass repeats the row's last valid ``alpha`` and
forces the padded scale to 1 (``log(1) = 0``), the backward pass carries
``beta`` left until the row's last valid step sees exactly the solo
boundary value 1, and every gamma/xi/log-likelihood accumulation is
sliced per length group, so contraction lengths (and therefore BLAS
reduction orders) match a solo fit of each row exactly.

Parity
------
``np.matmul`` computes every batch row independently of the others, so
each row's results are *bit-identical* to running that row alone, for
any batch composition.  That keeps the determinism contracts intact: a
fit sharded over ``n_jobs`` pool workers produces bit-identical
per-restart results for every worker count, restarts that converge are
*masked out* of the active batch without perturbing the survivors, and
fused, pool and solo drains publish byte-identical verdict streams.
Relative to the sequential engine the final log-likelihoods agree to
floating-point round-off and the winning restart is identical — both
are asserted by the benchmark and the property tests.

Kernels
-------
The batch runs one of two forward-backward kernels:

* ``loop`` (:func:`_loop_forward_backward`): one batched matmul per time
  step.
* ``blocked`` (:func:`_blocked_forward_backward`): time is processed in
  blocks of :data:`BLOCK_SIZE` steps.  Each block's per-row step
  operators (``transition * diag(likes[t])``) are built with one
  vectorised multiply, the within-block operator prefix (suffix, for
  the backward pass) products are computed by a scan across all blocks
  at once, and only the ``T / B`` block boundaries chain sequentially.
  Power-of-two rescaling (exact in floating point) keeps the products in
  range.  Python dispatches per pass drop from ``T`` to about
  ``B + 3 T / B``.  Padded operators are the identity, which applies
  bitwise-exactly, so padded rows keep the carried-padding semantics.

Backend-selection heuristic
---------------------------
``EMConfig.backend="auto"`` resolves per fit via :func:`resolve_backend`:

* **blocked** when the recursion state width (``N`` for the HMM,
  ``N * M`` for the MMHD) is at most :data:`BLOCKED_STATE_LIMIT`.  The
  blocked scan pays ``N^3`` operator-composition FLOPs to save
  dispatches, a trade measured to win up to width 4 (about 3x at
  width 2) and lose from width 6 on a 1-CPU host.
* **batched** (the loop kernel) when the width is at most
  :data:`BATCHED_STATE_LIMIT`.  Small widths mean each sequential step
  is interpreter-bound, so stacking rows multiplies useful work per
  Python step at no extra cost.
* **sequential** beyond the limit: wide-state matvecs are already
  BLAS-bound, and an ``R``-fold batch only grows the working set past
  cache for no interpreter savings.

The MMHD batch runs the dense ``N*M``-wide recursion; the
support-restricted structured E-step lives only in the sequential
engine, where it is measured fastest for single fits.

The engine composes with the process pool: ``n_jobs > 1`` splits the
restarts into contiguous shards (:func:`repro.parallel.shard_items`) and
each worker batches its own shard, so pool parallelism and in-process
batching multiply rather than compete.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.models.base import (
    EMConfig,
    ObservationSequence,
    SymbolStack,
    floor_and_normalize,
)
from repro.models.hmm import _EStepStats as _HMMStats
from repro.models.hmm import FittedHMM, HiddenMarkovModel
from repro.models.initialization import (
    hmm_initial_parameters,
    mmhd_initial_parameters,
)
from repro.models.mmhd import _EStepStats as _MMHDStats
from repro.models.mmhd import FittedMMHD, MarkovModelHiddenDimension
from repro.models.telemetry import record_fit, record_restart
from repro.parallel import parallel_map, resolve_n_jobs, restart_rng, shard_items

__all__ = [
    "BATCH_BACKENDS",
    "BATCHED_STATE_LIMIT",
    "BLOCKED_STATE_LIMIT",
    "BLOCK_SIZE",
    "resolve_backend",
    "batched_restart_fits",
    "run_hedged_fit",
    "run_hedged_fits",
]

#: Largest recursion state width (N for HMM, N*M for MMHD) the "auto"
#: backend still batches.  Below it the sequential per-step matvec is
#: interpreter-bound and batching is close to free; above it the matvec
#: is BLAS-bound and a restart stack mostly grows the working set.
BATCHED_STATE_LIMIT = 64

#: Largest state width the "auto" backend routes through the blocked
#: scan kernel.  The scan composes ``(N, N)`` operators, an ``N``-fold
#: FLOP inflation over the loop kernel's matvecs, so it only pays while
#: the loop is dispatch-bound: measured on the 1-CPU bench workload the
#: blocked kernel is ~3x faster at width 2, ~1.7x at width 4, breaks
#: even near width 6 and is ~2x *slower* at width 10 (the MMHD dense
#: width for M=5), which fixes the cutoff at 4.
BLOCKED_STATE_LIMIT = 4

#: Backends served by the batched engine (as opposed to the per-restart
#: sequential loop).  Streaming layers use membership here to decide
#: whether the hedged/fused drain machinery applies.
BATCH_BACKENDS = frozenset({"batched", "blocked"})

#: Time-block length of the blocked scan kernel.  It is fixed so a row's
#: operator-composition order never depends on which other rows share
#: its batch (the fused-equals-solo bit-identity contract).  Measured at
#: T=3000 on a 2-CPU host, it was as fast as a block length tuned to
#: ``sqrt(3 T)``.
BLOCK_SIZE = 64

#: Scan steps between power-of-two rescales of the composed operators.
#: Rescaling is exact (and provably cannot change the reconstructed
#: values outside under/overflow), so the cadence is purely a range
#: safety knob: float64 survives 16 steps of even likelihood ~1e-18.
_RESCALE_EVERY = 16

#: Elements per (steps, K, N, N) operator buffer above which the blocked
#: kernel processes time in chunks of whole blocks, bounding peak memory
#: (~32 MB per buffer) at paper-scale T for wide states.
_CHUNK_ELEMENTS = 1 << 22


def resolve_backend(
    config: EMConfig, kind: str, n_hidden: int, n_symbols: int
) -> str:
    """Concrete E-step engine for one fit.

    An explicit ``config.backend`` wins; ``"auto"`` applies the
    state-width heuristic documented in the module docstring.
    """
    if config.backend != "auto":
        return config.backend
    width = int(n_hidden) if kind == "hmm" else int(n_hidden) * int(n_symbols)
    if width <= BLOCKED_STATE_LIMIT:
        return "blocked"
    return "batched" if width <= BATCHED_STATE_LIMIT else "sequential"


class _BatchZeroLikelihood(Exception):
    """A forward pass hit zero total likelihood on some batch rows.

    ``rows`` holds *batch-local* row indices; the driver maps them back
    to restart rows and decides between a hard
    :class:`FloatingPointError` (normal restarts) and a soft retirement
    (the hedged warm row).
    """

    def __init__(self, t: int, rows: np.ndarray, first_bad_t=None):
        detail = ""
        if first_bad_t:
            listed = sorted(first_bad_t.items())[:8]
            detail = " (" + ", ".join(
                f"row {r}: t={tt}" for r, tt in listed
            ) + (", ..." if len(first_bad_t) > 8 else "") + ")"
        super().__init__(f"zero likelihood at t={t}{detail}")
        self.t = int(t)
        self.rows = np.asarray(rows)
        #: Per batch-local row, the row's own first poisoned time step —
        #: the actual collapse point of that restart (the shared ``t``
        #: is only the earliest across rows).
        self.first_bad_t = dict(first_bad_t or {})


# ----------------------------------------------------------------------
# Recursions
# ----------------------------------------------------------------------
def _row_loglik(scales: np.ndarray) -> np.ndarray:
    """Per-row ``sum(log(scales))`` over a time-major ``(T, K)`` array.

    Each row is summed over contiguous memory so numpy's pairwise
    reduction applies with blocking that depends only on ``T`` — making
    the result independent of the batch width ``K`` and bit-identical
    to the sequential engine's 1-D ``np.log(scales).sum()``.  (A plain
    ``sum(axis=0)`` over the strided time axis falls back to naive
    left-to-right accumulation and diverges in the last ulps.)
    """
    return np.log(np.ascontiguousarray(scales.T)).sum(axis=1)


def _check_scales(scales: np.ndarray) -> None:
    """Deferred zero-likelihood detection over a ``(T, K)`` scale array.

    The forward loops run with divide/invalid errors suppressed: a row
    that hits zero total likelihood poisons only its own lane with NaN
    (row independence), so one vectorised check after the pass replaces
    a per-step ``min()`` — about a third of the old loop cost.  NaN
    scales fail ``> 0`` and are reported alongside exact zeros.  Padded
    scales are exactly 1.0, so only genuine zeros (always at a valid
    step of some row) are reported.
    """
    bad = ~(scales > 0)
    if bad.any():
        rows = np.flatnonzero(bad.any(axis=0))
        # argmax over the time axis gives each poisoned row its own
        # first bad step — the row's actual collapse point.  (NaN
        # poisons everything downstream of the first zero, so the first
        # step is the informative one.)
        first_bad = bad[:, rows].argmax(axis=0)
        first_bad_t = {int(r): int(t) for r, t in zip(rows, first_bad)}
        raise _BatchZeroLikelihood(int(first_bad.min()), rows, first_bad_t)


class _Workspace:
    """Per-fit scratch-array cache shared across EM iterations.

    Every E-pass of one fit needs the same ``alpha``/``beta``/``buf``/
    ``scales`` (and, blocked, operator/prefix) arrays; reallocating them
    each iteration costs an allocator round-trip and a page-fault sweep
    per buffer per pass.  :meth:`get` hands out views of flat float64
    buffers that are only (re)allocated when a request grows past the
    cached capacity — the first iteration sizes everything for the full
    batch, and later iterations (whose active row count only shrinks
    under convergence masking) slice the same memory.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: dict = {}

    def get(self, name: str, shape) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = np.empty(size)
            self._buffers[name] = buf
        return buf[:size].reshape(shape)


def _length_groups(lengths):
    """``(length, row positions)`` per distinct row length, ascending.

    The accumulation loops slice their time axis per group so every GEMM
    and reduction contracts over exactly the row's own ``T_r`` steps —
    the property that keeps per-row statistics bit-identical to a solo
    fit (zero-padding the contraction would change the BLAS blocking).
    """
    return [
        (int(t), np.flatnonzero(lengths == t)) for t in np.unique(lengths)
    ]


def _loop_forward_backward(pi, transition, likes, lengths, workspace=None):
    """Scaled forward-backward, one batched matmul per time step.

    ``likes`` is time-major ``(T, K, n)`` so each step's slice is
    contiguous; ``pi`` is ``(K, n)`` and ``transition`` ``(K, n, n)``.
    Row ``k`` is only meaningful for its first ``lengths[k]`` steps
    (zero beyond).  Returns ``(alpha, beta, scales)`` with ``alpha``
    normalised per step so ``gamma = alpha * beta`` directly.

    Padded steps are *carried*: the forward pass repeats the last valid
    ``alpha`` and forces the padded scale to 1, so the per-row
    log-likelihood (``sum(log(scales[:T_r]))``, taken by the caller per
    length group) never sees a padded factor; the backward pass carries
    ``beta`` leftward so the row's last valid step holds exactly the
    solo boundary value 1.  Every valid slot is bit-identical to a solo
    run of that row.

    The hot loops write through preallocated ``out=`` targets, and the
    backward pass folds the ``1/scales`` factor into the likelihoods
    once, vectorised.  ``workspace`` reuses one fit's buffers across
    iterations; the returned arrays are views into it, valid until the
    next pass.
    """
    n_steps, n_rows, n = likes.shape
    ws = workspace if workspace is not None else _Workspace()
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    min_len = int(sorted_lengths[0])

    def padded_rows(t):
        """Rows already past their end at step ``t`` (length <= t)."""
        return order[: np.searchsorted(sorted_lengths, t, side="right")]

    alpha = ws.get("alpha", likes.shape)
    scales = ws.get("scales", (n_steps, n_rows))
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        state = pi * likes[0]
        total = np.add.reduce(state, axis=1)
        scales[0] = total
        np.divide(state, total[:, None], out=alpha[0])
        for t in range(1, n_steps):
            state = alpha[t]
            np.matmul(alpha[t - 1][:, None, :], transition,
                      out=state.reshape(n_rows, 1, n))
            state *= likes[t]
            total = np.add.reduce(state, axis=1)
            scales[t] = total
            state /= total[:, None]
            if t >= min_len:
                pad = padded_rows(t)
                state[pad] = alpha[t - 1][pad]
                scales[t, pad] = 1.0
        _check_scales(scales)
        beta = ws.get("beta", likes.shape)
        beta[n_steps - 1] = 1.0
        scaled = ws.get("scaled", (n_steps - 1, n_rows, n))
        np.divide(likes[1:], scales[1:, :, None], out=scaled)
        buf = ws.get("buf", (n_rows, n, 1))
        for t in range(n_steps - 2, -1, -1):
            np.multiply(scaled[t], beta[t + 1], out=buf[:, :, 0])
            np.matmul(transition, buf, out=beta[t].reshape(n_rows, n, 1))
            if t + 1 >= min_len:
                pad = padded_rows(t + 1)
                beta[t][pad] = beta[t + 1][pad]
    return alpha, beta, scales


def _pad_ops_identity(ops_flat, o0, n_slots, groups, eye, n_steps):
    """Overwrite padded rows' step operators with the identity.

    ``ops_flat`` holds this chunk's operators for global op indices
    ``o0 + j``; op ``j`` maps step ``j`` to step ``j + 1``, so a row of
    length ``L`` owns ops ``0 .. L-2`` and everything from ``L-1`` on is
    padding.  Applying the identity is bitwise exact (``x * 1 = x``,
    ``x + 0 = x`` for the non-negative values here), which is what keeps
    a row's valid-region arithmetic independent of how far the batch is
    padded.
    """
    for t_g, idx in groups:
        if t_g >= n_steps:
            continue
        start = max(t_g - 1 - o0, 0)
        if start < n_slots:
            ops_flat[start:n_slots, idx] = eye


def _blocked_forward_backward(pi, transition, likes, lengths,
                              workspace=None, block_size=BLOCK_SIZE):
    """Blocked-scan forward-backward: the dispatch-floor killer.

    Same contract as :func:`_loop_forward_backward`, but the per-step
    Python loop is replaced by operator composition:

    1. Build every step operator ``transition * diag(likes[t])`` of a
       chunk with one vectorised multiply.
    2. Scan: ``B - 1`` batched matmuls compute the within-block operator
       prefix products of *all* blocks simultaneously, with exact
       power-of-two rescaling every :data:`_RESCALE_EVERY` steps to keep
       the products in range (the rescale provably cannot change the
       reconstructed values — only their intermediate exponents).
    3. Chain the ``T / B`` block boundaries sequentially (the only
       genuinely serial part), renormalising at each boundary exactly as
       the scaled recursion does.
    4. Reconstruct every in-block ``alpha[t]`` with one batched matmul
       of the boundary values against the prefix products; per-step
       ``scales`` fall out of the ratios of unnormalised totals.

    The backward pass mirrors this with suffix products, tracking the
    cumulative rescale in (exact) log2 space.  Padded rows use identity
    operators (bitwise-exact application) and their carried
    ``alpha``/``scales``/``beta`` slots are overwritten with the exact
    carry semantics of the loop kernel afterwards, so valid-region
    results never depend on the batch's ``t_max``.  Chunking bounds the
    operator buffers at :data:`_CHUNK_ELEMENTS` elements without
    changing any arithmetic (blocks only interact through the boundary
    chain, which is chunk-oblivious).  ``block_size`` exists for the
    kernel's property tests; the engine always runs :data:`BLOCK_SIZE`.
    """
    n_steps, n_rows, n = likes.shape
    ws = workspace if workspace is not None else _Workspace()
    alpha = ws.get("alpha", likes.shape)
    beta = ws.get("beta", likes.shape)
    scales = ws.get("scales", (n_steps, n_rows))
    n_ops = n_steps - 1
    groups = _length_groups(np.asarray(lengths))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        state = pi * likes[0]
        total = np.add.reduce(state, axis=1)
        scales[0] = total
        np.divide(state, total[:, None], out=alpha[0])
        if n_ops == 0:
            beta[0] = 1.0
            _check_scales(scales)
            return alpha, beta, scales

        block = max(1, int(block_size))
        tiny = np.finfo(np.float64).tiny
        eye = np.eye(n)
        n_blocks = -(-n_ops // block)
        per_block = block * n_rows * n * n
        chunk_blocks = max(1, _CHUNK_ELEMENTS // per_block)

        # ---- forward: prefix scan + boundary chain + reconstruction
        cur = alpha[0]
        for c0 in range(0, n_blocks, chunk_blocks):
            nb = min(chunk_blocks, n_blocks - c0)
            o0 = c0 * block
            o1 = min(o0 + nb * block, n_ops)
            n_c = o1 - o0
            n_slots = nb * block
            ops = ws.get("ops", (nb, block, n_rows, n, n))
            ops_flat = ops.reshape(n_slots, n_rows, n, n)
            np.multiply(transition, likes[1 + o0: 1 + o1, :, None, :],
                        out=ops_flat[:n_c])
            if n_slots > n_c:
                ops_flat[n_c:] = eye
            _pad_ops_identity(ops_flat, o0, n_slots, groups, eye, n_steps)
            prefix = ws.get("prefix", (nb, block, n_rows, n, n))
            d = ws.get("rescale", (nb, block, n_rows))
            d[:] = 1.0
            prefix[:, 0] = ops[:, 0]
            for i in range(1, block):
                np.matmul(prefix[:, i - 1], ops[:, i], out=prefix[:, i])
                if i % _RESCALE_EVERY == 0:
                    mx = np.amax(prefix[:, i], axis=(-2, -1))
                    np.exp2(np.floor(np.log2(np.maximum(mx, tiny))),
                            out=d[:, i])
                    prefix[:, i] /= d[:, i, :, None, None]
            entry = ws.get("entry", (nb, n_rows, n))
            for b in range(nb):
                entry[b] = cur
                end = (cur[:, None, :] @ prefix[b, block - 1])[:, 0, :]
                cur = end / np.add.reduce(end, axis=1)[:, None]
            rec = ws.get("recon", (nb, block, n_rows, 1, n))
            np.matmul(entry[:, None, :, None, :], prefix, out=rec)
            a_hat = rec[:, :, :, 0, :]
            that = ws.get("totals", (nb, block, n_rows))
            np.add.reduce(a_hat, axis=3, out=that)
            np.divide(a_hat, that[..., None], out=a_hat)
            alpha[1 + o0: 1 + o1] = a_hat.reshape(-1, n_rows, n)[:n_c]
            ratio = ws.get("ratio", (nb, block, n_rows))
            ratio[:, 0] = that[:, 0]
            np.divide(that[:, 1:], that[:, :-1], out=ratio[:, 1:])
            ratio *= d
            scales[1 + o0: 1 + o1] = ratio.reshape(-1, n_rows)[:n_c]
        # Exact carried-padding semantics of the loop kernel.
        for t_g, idx in groups:
            if t_g < n_steps:
                alpha[t_g:, idx] = alpha[t_g - 1, idx]
                scales[t_g:, idx] = 1.0
        _check_scales(scales)

        # ---- backward: suffix scan with log2-tracked rescale
        beta[n_steps - 1] = 1.0
        cur = np.ones((n_rows, n))
        for c0 in range(n_blocks - chunk_blocks + (-n_blocks) % chunk_blocks,
                        -1, -chunk_blocks):
            c_lo = max(c0, 0)
            nb = min(chunk_blocks, n_blocks - c_lo)
            o0 = c_lo * block
            o1 = min(o0 + nb * block, n_ops)
            n_c = o1 - o0
            n_slots = nb * block
            ops = ws.get("ops", (nb, block, n_rows, n, n))
            ops_flat = ops.reshape(n_slots, n_rows, n, n)
            sc = ws.get("scaled", (n_c, n_rows, n))
            np.divide(likes[1 + o0: 1 + o1],
                      scales[1 + o0: 1 + o1, :, None], out=sc)
            np.multiply(transition, sc[:, :, None, :], out=ops_flat[:n_c])
            if n_slots > n_c:
                ops_flat[n_c:] = eye
            _pad_ops_identity(ops_flat, o0, n_slots, groups, eye, n_steps)
            suffix = ws.get("prefix", (nb, block, n_rows, n, n))
            ld = ws.get("logd", (nb, block, n_rows))
            suffix[:, block - 1] = ops[:, block - 1]
            ld[:, block - 1] = 0.0
            for i in range(block - 2, -1, -1):
                np.matmul(ops[:, i], suffix[:, i + 1], out=suffix[:, i])
                if i and i % _RESCALE_EVERY == 0:
                    mx = np.amax(suffix[:, i], axis=(-2, -1))
                    di = np.exp2(np.floor(np.log2(np.maximum(mx, tiny))))
                    suffix[:, i] /= di[:, :, None, None]
                    np.add(ld[:, i + 1], np.log2(di), out=ld[:, i])
                else:
                    ld[:, i] = ld[:, i + 1]
            bend = ws.get("bend", (nb, n_rows, n))
            for b in range(nb - 1, -1, -1):
                bend[b] = cur
                nxt = (suffix[b, 0] @ cur[:, :, None])[:, :, 0]
                cur = nxt * np.exp2(ld[b, 0])[:, None]
            rec = ws.get("recon", (nb, block, n_rows, n, 1))
            np.matmul(suffix, bend[:, None, :, :, None], out=rec)
            b_hat = rec[:, :, :, :, 0]
            undo = ws.get("totals", (nb, block, n_rows))
            np.exp2(ld, out=undo)
            b_hat *= undo[..., None]
            beta[o0:o1] = b_hat.reshape(-1, n_rows, n)[:n_c]
        # The loop kernel carries beta leftward so every slot from the
        # row's last valid step on holds exactly 1.
        for t_g, idx in groups:
            if t_g < n_steps:
                beta[t_g - 1:, idx] = 1.0
    return alpha, beta, scales


class _EStepAux:
    """Per-batch constants shared by every E-pass of one batch.

    Everything derivable from the stacked symbols alone (the likelihood
    codes, the HMM's observed-symbol one-hot tensor, the MMHD
    state-to-symbol map) is computed once per batch.  Row subsets (the driver's active-row
    masking) slice into these arrays through each sub-batch's
    ``stack_rows``.  The aux also owns the batch's kernel choice and the
    :class:`_Workspace` its recursions reuse.
    """

    def __init__(self, kind: str, stack: SymbolStack, n_hidden: int,
                 backend: str = "batched"):
        self.stack = stack
        self.n_hidden = int(n_hidden)
        self.n_symbols = stack.n_symbols
        self.kernel = "blocked" if backend == "blocked" else "loop"
        self.workspace = _Workspace()
        #: Per stack slot, the row of an E-pass's likelihood table to
        #: read: the observed symbol, ``M`` for a loss, ``M + 1`` (an
        #: all-zero row) past the row's end.
        self.codes = np.where(
            stack.observed, stack.symbols0,
            np.where(stack.lost, self.n_symbols, self.n_symbols + 1),
        )
        if kind == "hmm":
            # Row-major one-hot observed symbols for the joint_obs GEMM.
            onehot = np.zeros((stack.n_rows, stack.t_max, stack.n_symbols))
            k, t = np.nonzero(stack.observed)
            onehot[k, t, stack.symbols0[k, t]] = 1.0
            self.onehot = onehot
        else:
            self.n_states = self.n_hidden * self.n_symbols
            self.state_symbol = np.tile(
                np.arange(self.n_symbols), self.n_hidden
            )

    def forward_backward(self, pi, transition, likes, lengths):
        """One forward-backward through the batch's kernel."""
        kernel = (_blocked_forward_backward if self.kernel == "blocked"
                  else _loop_forward_backward)
        return kernel(pi, transition, likes, lengths,
                      workspace=self.workspace)


# ----------------------------------------------------------------------
# Parameter stacks
# ----------------------------------------------------------------------
class _HMMBatch:
    """A stack of K HMM parameter sets; row k fits stack row
    ``stack_rows[k]``."""

    kind = "hmm"
    __slots__ = ("pi", "transition", "emission", "loss_c", "stack_rows")

    def __init__(self, pi, transition, emission, loss_c, stack_rows):
        self.pi = pi
        self.transition = transition
        self.emission = emission
        self.loss_c = loss_c
        self.stack_rows = np.asarray(stack_rows)

    @classmethod
    def from_models(cls, models: Sequence[HiddenMarkovModel]) -> "_HMMBatch":
        return cls(
            np.stack([m.pi for m in models]),
            np.stack([m.transition for m in models]),
            np.stack([m.emission for m in models]),
            np.stack([m.loss_given_symbol for m in models]),
            np.arange(len(models)),
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi)

    def param_arrays(self):
        return (self.pi, self.transition, self.emission, self.loss_c)

    def rows(self, idx) -> "_HMMBatch":
        return _HMMBatch(
            self.pi[idx], self.transition[idx],
            self.emission[idx], self.loss_c[idx], self.stack_rows[idx],
        )

    def set_rows(self, idx, sub: "_HMMBatch") -> None:
        self.pi[idx] = sub.pi
        self.transition[idx] = sub.transition
        self.emission[idx] = sub.emission
        self.loss_c[idx] = sub.loss_c

    def extract(self, row: int) -> HiddenMarkovModel:
        return HiddenMarkovModel(
            self.pi[row], self.transition[row],
            self.emission[row], self.loss_c[row],
        )

    def estep(self, aux: _EStepAux) -> _HMMStats:
        stack = aux.stack
        rows = self.stack_rows
        lengths = stack.lengths[rows]
        t_act = int(lengths.max())
        n_rows, n_hidden = self.pi.shape
        n_symbols = aux.n_symbols
        survive = 1.0 - self.loss_c                       # (K, M)
        loss_like = np.matmul(self.emission, self.loss_c[:, :, None])[:, :, 0]
        # Per-row likelihood of each code (symbol, loss, padding),
        # gathered time-major.
        table = np.zeros((n_rows, n_symbols + 2, n_hidden))
        np.multiply(self.emission, survive[:, None, :],
                    out=table[:, :n_symbols].transpose(0, 2, 1))
        table[:, n_symbols] = loss_like
        likes = table[np.arange(n_rows), aux.codes[rows, :t_act].T]
        lost = stack.lost[rows, :t_act]                   # (K, t_act)
        alpha, beta, scales = aux.forward_backward(
            self.pi, self.transition, likes, lengths
        )
        gamma = alpha * beta
        weighted_b = likes[1:] * beta[1:] / scales[1:, :, None]
        onehot = aux.onehot[rows, :t_act]                 # (K, t_act, M)
        xi_sum = np.empty_like(self.transition)
        joint_obs = np.empty_like(self.emission)
        gamma_loss_total = np.empty_like(self.pi)
        loglik = np.empty(n_rows)
        for t_g, idx in _length_groups(lengths):
            g = gamma[:t_g, idx]                          # (t_g, K_g, N)
            # Expected (state, symbol) counts over observed instants:
            # one batched GEMM against the one-hot symbol tensor.
            joint_obs[idx] = np.matmul(
                g.transpose(1, 2, 0), onehot[idx, :t_g]
            )
            xi_sum[idx] = self.transition[idx] * np.matmul(
                alpha[: t_g - 1, idx].transpose(1, 2, 0),
                weighted_b[: t_g - 1, idx].transpose(1, 0, 2),
            )
            # Masked time sum == a gathered loss-step sum: axis-0
            # reductions accumulate strictly left to right, so
            # interleaved zeros cannot move a single bit.
            gamma_loss_total[idx] = np.add.reduce(
                g * lost[idx, :t_g].T[:, :, None], axis=0
            )
            loglik[idx] = _row_loglik(scales[:t_g, idx])
        joint_loss = (
            (gamma_loss_total / loss_like)[:, :, None]
            * self.emission
            * self.loss_c[:, None, :]
        )
        return _HMMStats(gamma[0], xi_sum, joint_obs, joint_loss, loglik)

    def maximize(self, stats: _HMMStats, min_prob, prior) -> "_HMMBatch":
        pi = floor_and_normalize(stats.gamma0, min_prob)
        transition = floor_and_normalize(stats.xi_sum, min_prob)
        joint_total = stats.joint_obs + stats.joint_loss
        emission = floor_and_normalize(joint_total, min_prob)
        symbol_mass = joint_total.sum(axis=1)
        loss_mass = stats.joint_loss.sum(axis=1)
        prior_losses, prior_observations = prior
        loss_c = (loss_mass + prior_losses) / np.maximum(
            symbol_mass + prior_losses + prior_observations, 1e-300
        )
        loss_c = np.clip(loss_c, min_prob, 1.0 - min_prob)
        return _HMMBatch(pi, transition, emission, loss_c, self.stack_rows)

    @staticmethod
    def loss_symbol_mass(stats: _HMMStats):
        return stats.joint_loss.sum(axis=1)


class _MMHDBatch:
    """A stack of K MMHD parameter sets; row k fits stack row
    ``stack_rows[k]``.

    Uses the dense ``(T, K, N*M)`` state layout: rows' symbol sequences
    differ, so the sequential engine's support-restricted block
    structure, keyed off one symbol sequence, cannot batch them.
    """

    kind = "mmhd"
    __slots__ = ("pi", "transition", "loss_c", "n_symbols", "stack_rows")

    def __init__(self, pi, transition, loss_c, n_symbols, stack_rows):
        self.pi = pi
        self.transition = transition
        self.loss_c = loss_c
        self.n_symbols = int(n_symbols)
        self.stack_rows = np.asarray(stack_rows)

    @classmethod
    def from_models(
        cls, models: Sequence[MarkovModelHiddenDimension]
    ) -> "_MMHDBatch":
        return cls(
            np.stack([m.pi for m in models]),
            np.stack([m.transition for m in models]),
            np.stack([m.loss_given_symbol for m in models]),
            models[0].n_symbols,
            np.arange(len(models)),
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi)

    def param_arrays(self):
        return (self.pi, self.transition, self.loss_c)

    def rows(self, idx) -> "_MMHDBatch":
        return _MMHDBatch(
            self.pi[idx], self.transition[idx], self.loss_c[idx],
            self.n_symbols, self.stack_rows[idx],
        )

    def set_rows(self, idx, sub: "_MMHDBatch") -> None:
        self.pi[idx] = sub.pi
        self.transition[idx] = sub.transition
        self.loss_c[idx] = sub.loss_c

    def extract(self, row: int) -> MarkovModelHiddenDimension:
        return MarkovModelHiddenDimension(
            self.pi[row], self.transition[row], self.loss_c[row],
            self.n_symbols,
        )

    def estep(self, aux: _EStepAux) -> _MMHDStats:
        stack = aux.stack
        rows = self.stack_rows
        lengths = stack.lengths[rows]
        t_act = int(lengths.max())
        n_rows = self.n_rows
        n_hidden, n_symbols = aux.n_hidden, aux.n_symbols
        c_state = self.loss_c[:, aux.state_symbol]        # (K, S)
        survive = 1.0 - self.loss_c                       # (K, M)
        # Per-row likelihood of each code: an observed symbol m puts
        # 1 - c_m on the states of column d = m, a loss puts c_d on every
        # state, padding puts zero everywhere.
        table = np.zeros((n_rows, n_symbols + 2, aux.n_states))
        symbols = np.arange(n_symbols)
        for h in range(n_hidden):
            table[:, symbols, h * n_symbols + symbols] = survive
        table[:, n_symbols] = c_state
        likes = table[np.arange(n_rows), aux.codes[rows, :t_act].T]
        lost = stack.lost[rows, :t_act]
        alpha, beta, scales = aux.forward_backward(
            self.pi, self.transition, likes, lengths
        )
        gamma = alpha * beta
        weighted_b = likes[1:] * beta[1:] / scales[1:, :, None]
        symbol_occ = gamma.reshape(
            t_act, n_rows, n_hidden, n_symbols
        ).sum(axis=2)
        xi_sum = np.empty_like(self.transition)
        loss_mass = np.empty_like(self.loss_c)
        total_mass = np.empty_like(self.loss_c)
        loglik = np.empty(n_rows)
        for t_g, idx in _length_groups(lengths):
            xi_sum[idx] = self.transition[idx] * np.matmul(
                alpha[: t_g - 1, idx].transpose(1, 2, 0),
                weighted_b[: t_g - 1, idx].transpose(1, 0, 2),
            )
            occ = symbol_occ[:t_g, idx]                   # (t_g, K_g, M)
            loss_mass[idx] = np.add.reduce(
                occ * lost[idx, :t_g].T[:, :, None], axis=0
            )
            total_mass[idx] = np.add.reduce(occ, axis=0)
            loglik[idx] = _row_loglik(scales[:t_g, idx])
        return _MMHDStats(gamma[0], xi_sum, loss_mass, total_mass, loglik)

    def maximize(self, stats: _MMHDStats, min_prob, prior) -> "_MMHDBatch":
        pi = floor_and_normalize(stats.gamma0, min_prob)
        transition = floor_and_normalize(stats.xi_sum, min_prob)
        prior_losses, prior_observations = prior
        loss_c = (stats.loss_mass + prior_losses) / np.maximum(
            stats.total_mass + prior_losses + prior_observations, 1e-300
        )
        loss_c = np.clip(loss_c, min_prob, 1.0 - min_prob)
        return _MMHDBatch(pi, transition, loss_c, self.n_symbols,
                          self.stack_rows)

    @staticmethod
    def loss_symbol_mass(stats: _MMHDStats):
        return stats.loss_mass


_BATCH_TYPES = {"hmm": _HMMBatch, "mmhd": _MMHDBatch}
_FITTED_TYPES = {"hmm": FittedHMM, "mmhd": FittedMMHD}


def _row_param_change(old, new) -> np.ndarray:
    """Per-row max absolute parameter change between two batches."""
    change = np.zeros(old.n_rows)
    for a, b in zip(old.param_arrays(), new.param_arrays()):
        np.maximum(
            change,
            np.abs(a - b).reshape(old.n_rows, -1).max(axis=1),
            out=change,
        )
    return change


def _initial_model(kind, seq, n_hidden, config, restart):
    """One restart's initial model, on the same RNG stream the
    sequential engine uses (so both backends start identically)."""
    rng = restart_rng(config.seed, restart)
    if kind == "hmm":
        pi, transition, emission, c = hmm_initial_parameters(seq, n_hidden, rng)
        return HiddenMarkovModel(pi, transition, emission, c)
    pi, transition, c = mmhd_initial_parameters(
        seq, n_hidden, rng, data_driven=config.data_driven_init
    )
    return MarkovModelHiddenDimension(pi, transition, c, seq.n_symbols)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class _BatchedEM:
    """EM over a parameter stack with convergence masking.

    Each :meth:`step` runs one batched E+M iteration over the *active*
    rows only: rows whose parameters have converged are frozen in the
    stack and never recomputed (row independence of the batched ops
    means removing them cannot perturb the survivors).  Per-row freeze
    periods reproduce the sequential warm start, and ``soft_rows`` (the
    hedged warm row) survive a zero-likelihood forward pass as a
    retirement instead of a :class:`FloatingPointError`.
    """

    def __init__(self, batch, aux: _EStepAux, config: EMConfig,
                 freeze_iters: Sequence[int], soft_rows=()):
        self.batch = batch
        self.aux = aux
        self.config = config
        self.freeze_iters = np.asarray(freeze_iters, dtype=int)
        self.soft_rows = frozenset(int(r) for r in soft_rows)
        n_rows = batch.n_rows
        self.active = np.arange(n_rows)
        self.trails: List[List[float]] = [[] for _ in range(n_rows)]
        self.converged = np.zeros(n_rows, dtype=bool)
        self.failed: set = set()
        self.iteration = 0
        self.frozen_c = batch.loss_c.copy()
        self.batch_iterations = 0
        self.active_row_iterations = 0
        self.prior = (config.loss_prior_losses, config.loss_prior_observations)

    def step(self) -> bool:
        """One batched EM iteration; ``False`` once there is no work."""
        if self.iteration >= self.config.max_iter or not len(self.active):
            return False
        while True:
            if not len(self.active):
                return False
            sub = self.batch.rows(self.active)
            try:
                stats = sub.estep(self.aux)
            except _BatchZeroLikelihood as exc:
                self._retire_failed(exc)
                continue
            break
        new_sub = sub.maximize(stats, self.config.min_prob, self.prior)
        for k, row in enumerate(self.active):
            self.trails[row].append(float(stats.loglik[k]))
        # Warm start: rows still inside their freeze period keep the
        # initial loss channel and skip the convergence check, exactly
        # like the sequential loop's freeze branch.
        frozen = self.iteration < self.freeze_iters[self.active]
        if np.any(frozen):
            new_sub.loss_c[frozen] = self.frozen_c[self.active[frozen]]
        newly_converged = ~frozen & (
            _row_param_change(sub, new_sub) < self.config.tol
        )
        self.batch.set_rows(self.active, new_sub)
        self.converged[self.active[newly_converged]] = True
        self.batch_iterations += 1
        self.active_row_iterations += len(self.active)
        self.active = self.active[~newly_converged]
        self.iteration += 1
        return True

    def _retire_failed(self, exc: _BatchZeroLikelihood) -> None:
        rows = self.active[exc.rows]
        if any(int(r) not in self.soft_rows for r in rows):
            raise FloatingPointError(f"zero likelihood at t={exc.t}")
        for r in rows:
            self.failed.add(int(r))
        self.active = self.active[~np.isin(self.active, rows)]

    def retire(self, row: int) -> None:
        """Drop a row from the batch without marking it converged."""
        self.active = self.active[self.active != row]

    def run(self) -> None:
        while self.step():
            pass


def _finalize(kind, batch, aux, trails, converged, rows=None):
    """One trailing batched E-pass -> fitted models for ``rows``.

    Like the sequential engines, the final pass yields both the trailing
    log-likelihood and the eq. (5) posterior in a single sweep.
    """
    idx = np.arange(batch.n_rows) if rows is None else np.asarray(rows)
    sub = batch.rows(idx)
    stats = sub.estep(aux)
    mass = sub.loss_symbol_mass(stats)
    fitted_cls = _FITTED_TYPES[kind]
    fits = []
    for k, row in enumerate(idx):
        row_mass = mass[k]
        fits.append(fitted_cls(
            model=sub.extract(k),
            virtual_delay_pmf=row_mass / row_mass.sum(),
            log_likelihoods=trails[row] + [float(stats.loglik[k])],
            converged=bool(converged[row]),
            n_iter=len(trails[row]),
        ))
    return fits


def _kernel_info(aux: _EStepAux) -> dict:
    """Kernel accounting keys of one aux for the ``em.backend`` event."""
    return {
        "kernel": aux.kernel,
        "block_size": BLOCK_SIZE if aux.kernel == "blocked" else 0,
    }


def _run_shard(kind, seq, n_hidden, config, restarts, backend="batched"):
    """Drive one batch of restarts to completion.

    The restarts are equal-length rows of one :class:`SymbolStack`.
    Returns ``(fits, info)`` with ``fits`` in restart order and ``info``
    carrying the occupancy and kernel accounting for the ``em.backend``
    event.
    """
    aux = _EStepAux(kind, SymbolStack([seq] * len(restarts)), n_hidden,
                    backend=backend)
    models = [
        _initial_model(kind, seq, n_hidden, config, r) for r in restarts
    ]
    batch = _BATCH_TYPES[kind].from_models(models)
    driver = _BatchedEM(
        batch, aux, config, [config.freeze_loss_iters] * len(restarts)
    )
    try:
        driver.run()
        fits = _finalize(kind, batch, aux, driver.trails, driver.converged)
    except _BatchZeroLikelihood as exc:
        raise FloatingPointError(f"zero likelihood at t={exc.t}") from None
    for restart, fitted in zip(restarts, fits):
        record_restart(kind, restart, fitted)
    info = {
        "rows": len(restarts),
        "batch_iterations": driver.batch_iterations,
        "active_row_iterations": driver.active_row_iterations,
    }
    info.update(_kernel_info(aux))
    return fits, info


def _shard_worker(task):
    """Batch one restart shard (parallel-map worker)."""
    return _run_shard(*task)


def batched_restart_fits(kind, seq: ObservationSequence, n_hidden: int,
                         config: EMConfig, backend: str = "batched"):
    """All restarts of one fit through the batched engine.

    With ``config.n_jobs > 1`` the restarts split into contiguous shards
    and each pool worker batches its own shard — pool parallelism and
    batching compose.  Returns the fitted models in restart order; the
    caller performs the best-of reduction.
    """
    n_restarts = config.n_restarts
    n_shards = min(resolve_n_jobs(config.n_jobs), n_restarts)
    restarts = list(range(n_restarts))
    if n_shards <= 1:
        fits, info = _run_shard(kind, seq, n_hidden, config, restarts,
                                backend)
        infos = [info]
    else:
        shards = shard_items(restarts, n_shards)
        tasks = [(kind, seq, n_hidden, config, shard, backend)
                 for shard in shards]
        mapped = parallel_map(_shard_worker, tasks, n_jobs=n_shards,
                              chunksize=1)
        fits = [f for shard_fits, _ in mapped for f in shard_fits]
        infos = [info for _, info in mapped]
    record_backend(kind, backend, n_shards=len(infos), infos=infos)
    return fits


def record_backend(kind: str, backend: str, n_shards: int,
                   infos: Sequence[dict]) -> None:
    """Per-backend telemetry for one fit: counter + ``em.backend`` event.

    ``occupancy`` is the fraction of batch-row slots that did useful
    work; ``masked_savings`` is the complement — E-step work skipped
    because converged restarts were masked out of their batch.  The
    sequential engine reports occupancy 1.0 by construction.

    ``kernel`` / ``block_size`` ride in optional info keys (absent for
    the sequential engine, whose per-restart loop is the ``loop`` kernel
    by definition).
    """
    if not obs.is_enabled():
        return
    rows = sum(i["rows"] for i in infos)
    batch_iterations = sum(i["batch_iterations"] for i in infos)
    active = sum(i["active_row_iterations"] for i in infos)
    slots = sum(i["rows"] * i["batch_iterations"] for i in infos)
    occupancy = active / slots if slots else 1.0
    kernels = {i.get("kernel", "loop") for i in infos}
    obs.inc("repro_em_backend_fits_total", 1.0, model=kind, backend=backend)
    obs.observe("repro_em_batch_occupancy_ratio", occupancy, model=kind)
    obs.inc("repro_em_masked_iterations_total", float(slots - active),
            model=kind)
    obs.emit(
        "em.backend",
        model=kind,
        backend=backend,
        n_restarts=rows,
        n_shards=int(n_shards),
        batch_iterations=batch_iterations,
        occupancy=round(occupancy, 6),
        masked_savings=round(1.0 - occupancy, 6),
        kernel=kernels.pop() if len(kernels) == 1 else "mixed",
        block_size=max(int(i.get("block_size", 0)) for i in infos),
    )


# ----------------------------------------------------------------------
# Hedged streaming fit
# ----------------------------------------------------------------------
def _shared_config_key(config: EMConfig):
    """Fields every window of one mega-batch must agree on (seed and
    n_jobs may differ per window; everything that shapes the shared
    driver may not)."""
    return (
        config.tol, config.max_iter, config.min_prob, config.n_restarts,
        config.freeze_loss_iters, config.data_driven_init,
        config.loss_prior_losses, config.loss_prior_observations,
        config.fast_path, config.backend,
    )


def run_hedged_fits(kind, seqs: Sequence[ObservationSequence],
                    n_hidden: int, configs: Sequence[EMConfig],
                    warm_models: Sequence,
                    trail_problem: Callable[[List[float]], Optional[str]],
                    backend: str = "batched"):
    """Hedged warm-vs-cold fits for many windows in ONE ragged batch.

    Phase one stacks every window's warm row (no loss-channel freeze,
    soft zero-likelihood handling) into one ragged batch and drives them
    together; a window whose warm row survives to convergence finalizes
    and is done.  Cold hedging is *lazy*: only windows whose warm
    trajectory fails (zero likelihood, trail collapse, or a failing
    trailing E-pass) enter a second ragged batch of ``n_restarts`` cold
    rows each, seeded from ``configs[w].seed``, run to convergence for
    the best-of fallback.  Cold EM trajectories are deterministic and
    independent of the warm rows, so deferring them returns exactly the
    fits eager hedging would — while the common all-warm round pays for
    one row per window instead of ``1 + n_restarts``.

    Because batch rows are computed independently and all accumulations
    are sliced per row length, every window's result is bit-identical to
    running :func:`run_hedged_fit` on that window alone — the parity
    contract behind the scheduler's fused drain mode.

    ``configs`` may differ only in ``seed`` / ``n_jobs``.  Returns
    ``(results, info)``: ``results[w]`` is the solo-compatible
    ``(fitted, warm_used, fallback_reason)`` triple, ``info`` the
    occupancy/padding accounting of the shared batch.

    Raises :class:`FloatingPointError` when any cold row hits zero
    likelihood (matching the solo engine; the affected drain aborts the
    same way in either drain mode).
    """
    n_windows = len(seqs)
    if not n_windows:
        return [], {"windows": 0, "rows": 0, "batch_iterations": 0,
                    "active_row_iterations": 0, "pad_fraction": 0.0,
                    "t_max": 0}
    config = configs[0]
    shared = _shared_config_key(config)
    for cfg in configs[1:]:
        if _shared_config_key(cfg) != shared:
            raise ValueError(
                "run_hedged_fits windows must share every EMConfig field "
                "except seed/n_jobs"
            )
    n_restarts = config.n_restarts

    # Phase one: every window's warm row, one ragged batch (row w is
    # window w).
    stack = SymbolStack(list(seqs))
    aux = _EStepAux(kind, stack, n_hidden, backend=backend)
    batch = _BATCH_TYPES[kind].from_models(list(warm_models))
    driver = _BatchedEM(batch, aux, config, [0] * n_windows,
                        soft_rows=set(range(n_windows)))

    reasons: List[Optional[str]] = [None] * n_windows
    results: List = [None] * n_windows
    unresolved = set(range(n_windows))

    def finalize_warm_rows(windows):
        """Batched trailing E-pass over these windows' warm rows.

        Returns ``{window: fitted}``; a window whose warm pass hits zero
        likelihood gets ``reasons[w]`` set instead (the solo
        ``finalize_warm`` failure path) and the pass retries without it.
        """
        out = {}
        pending = list(windows)
        while pending:
            try:
                fits = _finalize(kind, batch, aux, driver.trails,
                                 driver.converged, rows=pending)
            except _BatchZeroLikelihood as exc:
                failed_local = {int(i) for i in exc.rows}
                survivors = []
                for i, w in enumerate(pending):
                    if i in failed_local:
                        reasons[w] = "zero-likelihood"
                    else:
                        survivors.append(w)
                pending = survivors
                continue
            out.update(zip(pending, fits))
            break
        return out

    def accept_or_fallback(windows):
        """Finalize warm rows; accept healthy ones, flag the rest."""
        for w, fitted in finalize_warm_rows(windows).items():
            problem = trail_problem(fitted.log_likelihoods)
            if problem is not None:
                reasons[w] = problem
            else:
                results[w] = (fitted, True, None)
                unresolved.discard(w)

    while True:
        progressed = driver.step()
        to_finalize = []
        for w in sorted(unresolved):
            if reasons[w] is not None:
                continue
            if w in driver.failed:
                reasons[w] = "zero-likelihood"
            elif driver.trails[w]:
                problem = trail_problem(driver.trails[w])
                if problem is not None:
                    reasons[w] = problem
                    driver.retire(w)
                elif driver.converged[w]:
                    to_finalize.append(w)
        if to_finalize:
            accept_or_fallback(to_finalize)
        if not progressed:
            break

    # max_iter exhausted with the warm trajectory intact: the sequential
    # policy still prefers the healthy warm fit.
    leftovers = [w for w in sorted(unresolved) if reasons[w] is None]
    if leftovers:
        accept_or_fallback(leftovers)

    # Phase two: lazy cold hedge — a second ragged batch of n_restarts
    # rows per fallback window, run to convergence.  Cold trajectories
    # never depend on the warm rows, so these fits are bit-identical to
    # cold rows that had iterated alongside phase one.
    info = {
        "windows": n_windows,
        "rows": batch.n_rows,
        "batch_iterations": driver.batch_iterations,
        "active_row_iterations": driver.active_row_iterations,
        "lengths_sum": int(stack.lengths.sum()),
        "slots": stack.n_rows * stack.t_max,
        "iter_slots": batch.n_rows * driver.batch_iterations,
        "t_max": stack.t_max,
    }
    info.update(_kernel_info(aux))
    fallback = sorted(unresolved)
    if fallback:
        cold_seqs: List[ObservationSequence] = []
        cold_models: List = []
        for w in fallback:
            for r in range(n_restarts):
                cold_seqs.append(seqs[w])
                cold_models.append(
                    _initial_model(kind, seqs[w], n_hidden, configs[w], r)
                )
        cold_stack = SymbolStack(cold_seqs)
        cold_aux = _EStepAux(kind, cold_stack, n_hidden, backend=backend)
        cold_batch = _BATCH_TYPES[kind].from_models(cold_models)
        cold_driver = _BatchedEM(
            cold_batch, cold_aux, config,
            [config.freeze_loss_iters] * len(cold_models),
        )
        cold_driver.run()
        try:
            fits = _finalize(kind, cold_batch, cold_aux, cold_driver.trails,
                             cold_driver.converged)
        except _BatchZeroLikelihood as exc:
            raise FloatingPointError(
                f"zero likelihood at t={exc.t}"
            ) from None
        for i, w in enumerate(fallback):
            wfits = fits[i * n_restarts: (i + 1) * n_restarts]
            for restart, fitted in enumerate(wfits):
                record_restart(kind, restart, fitted)
            best_restart = 0
            for restart, fitted in enumerate(wfits[1:], start=1):
                if fitted.log_likelihood > wfits[best_restart].log_likelihood:
                    best_restart = restart
            record_fit(kind, wfits, best_restart)
            results[w] = (wfits[best_restart], False, reasons[w])
        info["rows"] += cold_batch.n_rows
        info["batch_iterations"] += cold_driver.batch_iterations
        info["active_row_iterations"] += cold_driver.active_row_iterations
        info["lengths_sum"] += int(cold_stack.lengths.sum())
        info["slots"] += cold_stack.n_rows * cold_stack.t_max
        info["iter_slots"] += cold_batch.n_rows * cold_driver.batch_iterations

    slots = info.pop("slots")
    lengths_sum = info.pop("lengths_sum")
    iter_slots = info.pop("iter_slots")
    info["occupancy"] = (
        info["active_row_iterations"] / iter_slots if iter_slots else 1.0
    )
    info["pad_fraction"] = float(1.0 - lengths_sum / slots) if slots else 0.0
    return results, info


def run_hedged_fit(kind, seq: ObservationSequence, n_hidden: int,
                   config: EMConfig, warm_model,
                   trail_problem: Callable[[List[float]], Optional[str]],
                   backend: str = "batched"):
    """Warm-started fit with a lazy cold-restart hedge.

    One batched EM drives the warm row (no loss-channel freeze, like the
    sequential warm path).  If the warm trajectory survives — no zero
    likelihood, no trail collapse per ``trail_problem`` — the fit
    returns as soon as that row converges, having paid for nothing else.
    If it collapses, ``config.n_restarts`` cold rows run to convergence
    in one batch for the best-of fallback.

    Implemented as the one-window case of :func:`run_hedged_fits`, so a
    per-window (pool) drain and a fused drain run the exact same kernel
    — that shared kernel is what makes their verdict streams
    byte-identical.

    Returns ``(fitted, warm_used, fallback_reason)`` matching the
    sequential policy in :func:`repro.streaming.online_em.streaming_fit`.
    """
    results, _ = run_hedged_fits(
        kind, [seq], n_hidden, [config], [warm_model], trail_problem,
        backend=backend,
    )
    return results[0]
