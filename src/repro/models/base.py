"""Shared model infrastructure: observation encoding and EM bookkeeping.

Observation sequences are integer arrays: delay symbols ``1..M`` for probes
that arrived, :data:`LOSS` (``-1``) for probes that were lost.  Internally
models index symbols ``0..M-1``; the public surface keeps the paper's
1-based convention.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "LOSS",
    "PAD",
    "InsufficientLossError",
    "ObservationSequence",
    "SymbolIndex",
    "SymbolStack",
    "EMConfig",
    "FittedModel",
    "forward_backward",
    "require_losses",
]


class InsufficientLossError(ValueError):
    """An estimator needed loss observations but the sequence has none.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; the streaming layer catches this type
    specifically so a loss-free window skips cleanly instead of aborting
    a long-running monitor.
    """

#: Marker for a lost probe (a delay observation with a missing value).
LOSS = -1

#: Marker for a padded (past-end) slot in a :class:`SymbolStack` row.
PAD = -2


class ObservationSequence:
    """A validated (symbols, n_symbols) pair.

    Parameters
    ----------
    symbols:
        Integer sequence with values in ``{1..n_symbols}`` or :data:`LOSS`.
    n_symbols:
        The paper's ``M``.
    """

    def __init__(self, symbols: Sequence[int], n_symbols: int):
        symbols = np.asarray(symbols, dtype=int)
        if symbols.ndim != 1:
            raise ValueError("symbols must be a 1-D sequence")
        if len(symbols) == 0:
            raise ValueError("empty observation sequence")
        if n_symbols < 1:
            raise ValueError(f"need at least one symbol, got {n_symbols}")
        valid = (symbols == LOSS) | ((symbols >= 1) & (symbols <= n_symbols))
        if not np.all(valid):
            bad = symbols[~valid]
            raise ValueError(
                f"symbols out of range 1..{n_symbols} (or LOSS): {bad[:5]}"
            )
        if np.all(symbols == LOSS):
            raise ValueError("all observations are losses; nothing to fit")
        self.symbols = symbols
        self.n_symbols = int(n_symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def losses(self) -> np.ndarray:
        """Boolean mask of loss observations."""
        return self.symbols == LOSS

    @property
    def n_losses(self) -> int:
        """Number of loss observations."""
        return int(np.sum(self.losses))

    @property
    def loss_rate(self) -> float:
        """Fraction of observations that are losses."""
        return self.n_losses / len(self.symbols)

    def zero_based(self) -> np.ndarray:
        """Symbols shifted to ``0..M-1`` with losses still ``LOSS``."""
        out = self.symbols.copy()
        observed = out != LOSS
        out[observed] -= 1
        return out

    def empirical_symbol_pmf(self) -> np.ndarray:
        """Frequencies of observed (non-loss) symbols; smoothed, sums to 1."""
        observed = self.symbols[self.symbols != LOSS]
        counts = np.bincount(observed - 1, minlength=self.n_symbols).astype(float)
        counts += 1.0  # Laplace smoothing so no symbol starts impossible
        return counts / counts.sum()


class SymbolIndex:
    """Precomputed index structure of an observation sequence.

    The symbols never change between EM iterations — only model
    parameters do — so every quantity derivable from the symbols alone
    (zero-based codes, loss mask, per-symbol position lists, the
    consecutive-pair groups the MMHD fast path batches over) is computed
    once per fit and shared by all iterations and both E-pass consumers
    (``em_step`` and ``virtual_delay_pmf``).
    """

    def __init__(self, seq: "ObservationSequence"):
        self.seq = seq
        self.n_symbols = seq.n_symbols
        self.symbols0 = seq.zero_based()
        #: plain-python copy for fast scalar access in recursion loops
        self.symbol_list = self.symbols0.tolist()
        self.lost = self.symbols0 == LOSS
        self.loss_idx = np.flatnonzero(self.lost)
        self.observed_idx = np.flatnonzero(~self.lost)
        self.observed_symbols = self.symbols0[self.observed_idx]
        #: positions of each observed symbol ``m`` (index masks of the
        #: old per-E-step ``for m in range(n_symbols)`` scan)
        self.symbol_positions = [
            np.flatnonzero(self.symbols0 == m) for m in range(seq.n_symbols)
        ]
        self.n_losses = int(len(self.loss_idx))
        #: map absolute step -> rank among loss steps (-1 if observed)
        self.loss_rank = np.full(len(self.symbols0), -1)
        self.loss_rank[self.loss_idx] = np.arange(self.n_losses)
        self._pair_groups = None

    def __len__(self) -> int:
        return len(self.symbols0)

    def pair_groups(self):
        """Consecutive-step pairs grouped by (symbol_prev, symbol_cur).

        Returns ``(oo, ol, lo, ll)``: ``oo[(mp, m)]``, ``ol[mp]`` and
        ``lo[m]`` map to arrays of the *later* step index ``t`` of each
        pair; ``ll`` is a plain array.  Grouping is sort-based (one
        ``argsort`` per fit), not one boolean scan per symbol pair.
        """
        if self._pair_groups is not None:
            return self._pair_groups
        prev = self.symbols0[:-1]
        cur = self.symbols0[1:]
        n = self.n_symbols
        # Encode pairs on a (n+1)^2 grid with LOSS mapped to slot n.
        prev_code = np.where(prev == LOSS, n, prev)
        cur_code = np.where(cur == LOSS, n, cur)
        codes = prev_code * (n + 1) + cur_code
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        uniques, starts = np.unique(sorted_codes, return_index=True)
        bounds = np.append(starts, len(sorted_codes))
        oo, ol, lo = {}, {}, {}
        ll = np.empty(0, dtype=int)
        for code, lo_bound, hi_bound in zip(uniques, bounds[:-1], bounds[1:]):
            ts = order[lo_bound:hi_bound] + 1  # later index of the pair
            ts.sort()
            mp, m = divmod(int(code), n + 1)
            if mp < n and m < n:
                oo[(mp, m)] = ts
            elif mp < n:
                ol[mp] = ts
            elif m < n:
                lo[m] = ts
            else:
                ll = ts
        self._pair_groups = (oo, ol, lo, ll)
        return self._pair_groups


class SymbolStack:
    """Padded stack of observation sequences — :class:`SymbolIndex`'s
    ragged sibling.

    Rows carry sequences of *unequal* length ``T_r``, right-padded to
    ``t_max`` with :data:`PAD` so a batched recursion can run one
    time-major loop over the whole stack.  The masks expose which
    ``(row, step)`` slots are real: the batched E-step engine carries
    padded lanes through its recursions unchanged (padded scale factors
    are forced to 1, contributing ``log(1) = 0``) so every per-row
    statistic stays bit-identical to a solo fit of that row.

    All rows must share ``n_symbols``; mixed alphabets cannot share one
    parameter stack.
    """

    def __init__(self, seqs: Sequence["ObservationSequence"]):
        if not len(seqs):
            raise ValueError("SymbolStack needs at least one sequence")
        n_symbols = seqs[0].n_symbols
        for seq in seqs:
            if seq.n_symbols != n_symbols:
                raise ValueError(
                    f"all stacked sequences must share n_symbols; got "
                    f"{seq.n_symbols} alongside {n_symbols}"
                )
        self.seqs = list(seqs)
        self.n_symbols = int(n_symbols)
        self.n_rows = len(self.seqs)
        self.lengths = np.array([len(s) for s in self.seqs], dtype=int)
        self.t_max = int(self.lengths.max())
        symbols0 = np.full((self.n_rows, self.t_max), PAD, dtype=int)
        for k, seq in enumerate(self.seqs):
            symbols0[k, : len(seq)] = seq.zero_based()
        #: zero-based symbols, ``LOSS`` at losses, :data:`PAD` past row end
        self.symbols0 = symbols0
        #: boolean ``(n_rows, t_max)`` masks of real / lost / observed slots
        self.valid = symbols0 != PAD
        self.lost = symbols0 == LOSS
        self.observed = symbols0 >= 0

    def __len__(self) -> int:
        return self.n_rows

    def row_index(self, row: int) -> "SymbolIndex":
        """The solo :class:`SymbolIndex` of one stacked row."""
        return SymbolIndex(self.seqs[row])


class EMConfig:
    """EM iteration control.

    Parameters
    ----------
    tol:
        Convergence threshold on the maximum absolute change of any model
        parameter between iterations (the paper uses 1e-4 / 1e-5 and
        reports both behave the same).
    max_iter:
        Hard iteration cap.
    min_prob:
        Probability floor applied after each M-step so EM never paints
        itself into a zero-probability corner (then rows are renormalised).
    n_restarts:
        Number of independent random initialisations; the fit with the
        best final log-likelihood wins.  Restart 0 draws from
        ``default_rng(seed)`` (bit-compatible with single-restart fits
        from earlier releases); restarts >= 1 use collision-free spawned
        streams keyed by ``(seed, restart)`` — see
        :func:`repro.parallel.restart_rng`.
    seed:
        Base seed for random initialisation.
    freeze_loss_iters:
        Hold ``P(loss | symbol)`` at its (flat) initial value for this many
        EM iterations so the transition structure is learned before the
        loss channel can differentiate.  This keeps EM in the physically
        meaningful basin (see :mod:`repro.models.initialization`); 0
        disables the warm start.
    data_driven_init:
        Seed the MMHD transition matrix from observed symbol bigrams
        (default) instead of the paper's plain random rows.
    loss_prior_losses, loss_prior_observations:
        Beta(a, b) prior pseudo-counts for the per-symbol loss probability
        ``c_m``; the M-step becomes the MAP estimate
        ``(loss_mass + a) / (total_mass + a + b)``.  This keeps nearly
        unobserved delay bins from acquiring large loss probabilities —
        with fine discretizations (M = 40 for the bounds) EM could
        otherwise park the loss mass in an empty bin at no cost to the
        observed-data likelihood.  Symbols with real traffic wash the
        prior out.  Set both to 0 for the plain MLE update.
    n_jobs:
        Worker processes for embarrassingly-parallel fit work (random
        restarts; layers above reuse the same knob for replicates and
        sweeps).  ``1`` (default) runs serially in-process; ``-1`` uses
        every CPU.  Parallel and serial fits are numerically identical:
        each restart's RNG stream depends only on ``(seed, restart)``
        and the best-fit reduction happens in restart order.
    fast_path:
        Use the MMHD's structured E-step (support-restricted
        forward-backward recursions) in the sequential engine.  The
        dense reference E-step (``False``) computes the same quantities
        the textbook way and agrees with the fast path to floating-point
        round-off.  The batched engine always runs the dense recursion.
    backend:
        E-step execution engine for multi-restart fits.  ``"sequential"``
        runs one forward-backward per restart (the classic per-restart
        loop); ``"batched"`` stacks all restarts of a fit into ``(R, ...)``
        parameter tensors and runs ONE forward-backward over the batch,
        so the Python time loop executes ``T`` batched matmul steps
        instead of ``R x T`` scalar matvecs (restarts that converge are
        masked out of the batch, frozen, until all finish).
        ``"blocked"`` is the batched engine with the blocked scan
        kernel: per-step operators for a whole block of 64 time steps
        are composed with batched matmuls, cutting the Python-level
        dispatch count from ``T`` to roughly ``64 + 3 T / 64`` per
        E-pass.  ``"auto"`` (default) picks by the documented heuristic
        in :mod:`repro.models.batched`: blocked for narrow state widths,
        batched for moderate ones, sequential for wide ones.  ``None``
        reads the ``REPRO_EM_BACKEND`` environment variable (falling
        back to ``"auto"``).  All engines produce the same winning
        restart and agree on every statistic to floating-point
        round-off; with ``n_jobs > 1`` they compose — each pool worker
        runs its restart shard through the selected engine.

    The recursions always run in float64 with a fixed block length: a
    float32 recursion measured slower than float64 on the 8-restart HMM
    fit (4.27 s vs 3.63 s) and less exact, and a block length tuned to
    the sequence length measured no faster than the fixed 64.
    """

    BACKENDS = ("auto", "batched", "blocked", "sequential")

    def __init__(
        self,
        tol: float = 1e-4,
        max_iter: int = 200,
        min_prob: float = 1e-10,
        n_restarts: int = 1,
        seed: int = 0,
        freeze_loss_iters: int = 5,
        data_driven_init: bool = True,
        loss_prior_losses: float = 1.0,
        loss_prior_observations: float = 50.0,
        n_jobs: int = 1,
        fast_path: bool = True,
        backend: Optional[str] = None,
    ):
        if tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
        if freeze_loss_iters < 0:
            raise ValueError(f"freeze_loss_iters must be >= 0, got {freeze_loss_iters}")
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.min_prob = float(min_prob)
        self.n_restarts = int(n_restarts)
        self.seed = int(seed)
        if loss_prior_losses < 0 or loss_prior_observations < 0:
            raise ValueError("loss prior pseudo-counts must be >= 0")
        self.freeze_loss_iters = int(freeze_loss_iters)
        self.data_driven_init = bool(data_driven_init)
        self.loss_prior_losses = float(loss_prior_losses)
        self.loss_prior_observations = float(loss_prior_observations)
        if n_jobs is not None and int(n_jobs) < -1:
            raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
        self.n_jobs = 1 if n_jobs is None else int(n_jobs)
        self.fast_path = bool(fast_path)
        if backend is None:
            backend = os.environ.get("REPRO_EM_BACKEND") or "auto"
        if backend not in self.BACKENDS:
            raise ValueError(
                f"backend must be one of {self.BACKENDS}, got {backend!r}"
            )
        self.backend = backend

    def replace(self, **overrides) -> "EMConfig":
        """A copy of this config with the given fields overridden.

        Used by layers that fan fits out to worker processes and need a
        per-task variant (e.g. a different ``seed``, or ``n_jobs=1`` so
        pool workers never nest pools of their own).
        """
        fields = dict(
            tol=self.tol,
            max_iter=self.max_iter,
            min_prob=self.min_prob,
            n_restarts=self.n_restarts,
            seed=self.seed,
            freeze_loss_iters=self.freeze_loss_iters,
            data_driven_init=self.data_driven_init,
            loss_prior_losses=self.loss_prior_losses,
            loss_prior_observations=self.loss_prior_observations,
            n_jobs=self.n_jobs,
            fast_path=self.fast_path,
            backend=self.backend,
        )
        unknown = set(overrides) - set(fields)
        if unknown:
            raise TypeError(f"unknown EMConfig fields: {sorted(unknown)}")
        fields.update(overrides)
        return EMConfig(**fields)


class FittedModel:
    """Common result surface for fitted HMM/MMHD models.

    Attributes
    ----------
    virtual_delay_pmf:
        ``Ĝ``'s PMF over symbols ``1..M`` — eq. (5): the model's posterior
        distribution of the delay symbol at loss instants.
    log_likelihoods:
        Per-iteration log-likelihood trail (monotone non-decreasing up to
        floating-point noise; property-tested).
    converged:
        Whether the parameter-change threshold was reached before
        ``max_iter``.
    """

    def __init__(
        self,
        virtual_delay_pmf: np.ndarray,
        log_likelihoods: List[float],
        converged: bool,
        n_iter: int,
    ):
        self.virtual_delay_pmf = np.asarray(virtual_delay_pmf, dtype=float)
        self.log_likelihoods = list(log_likelihoods)
        self.converged = bool(converged)
        self.n_iter = int(n_iter)

    @property
    def log_likelihood(self) -> float:
        """Final log-likelihood."""
        return self.log_likelihoods[-1]

    @property
    def n_symbols(self) -> int:
        """Number of delay symbols M."""
        return len(self.virtual_delay_pmf)

    def virtual_delay_cdf(self) -> np.ndarray:
        """``Ĝ`` as a CDF over symbols ``1..M``."""
        return np.cumsum(self.virtual_delay_pmf)


def require_losses(seq: ObservationSequence, what: str) -> None:
    """Fail fast when a computation needs loss observations.

    The loss-channel M-step and the eq. (5) posterior both divide by the
    expected loss mass; without this guard a loss-free sequence fails
    deep inside that division with an opaque numerical error.
    """
    if seq.n_losses == 0:
        raise InsufficientLossError(
            f"{what} requires lost probes, but the observation sequence has "
            f"0 losses in {len(seq)} observations; the paper's estimators "
            "are posteriors at loss instants and are undefined without them"
        )


def forward_backward(pi: np.ndarray, transition: np.ndarray,
                     likes: np.ndarray):
    """Scaled forward-backward over one sequence (Rabiner Section V).

    The dense reference recursion both models share: ``likes`` is the
    ``(T, S)`` per-step state likelihood, ``pi`` the ``(S,)`` initial
    distribution and ``transition`` the ``(S, S)`` transition matrix.
    Returns ``(alpha, beta, scales, log_likelihood)`` with ``alpha``
    normalised per step so ``gamma = alpha * beta`` directly.  Raises
    :class:`FloatingPointError` at the first step of zero likelihood.
    """
    n_steps = likes.shape[0]
    alpha = np.empty_like(likes)
    scales = np.empty(n_steps)
    state = pi * likes[0]
    scales[0] = state.sum()
    if scales[0] <= 0:
        raise FloatingPointError("zero likelihood at t=0")
    alpha[0] = state / scales[0]
    for t in range(1, n_steps):
        state = (alpha[t - 1] @ transition) * likes[t]
        total = state.sum()
        if total <= 0:
            raise FloatingPointError(f"zero likelihood at t={t}")
        scales[t] = total
        alpha[t] = state / total

    beta = np.empty_like(likes)
    beta[n_steps - 1] = 1.0
    for t in range(n_steps - 2, -1, -1):
        beta[t] = transition @ (likes[t + 1] * beta[t + 1]) / scales[t + 1]
    return alpha, beta, scales, float(np.log(scales).sum())


def floor_and_normalize(matrix: np.ndarray, min_prob: float) -> np.ndarray:
    """Clamp probabilities to at least ``min_prob`` and renormalise rows.

    Works for 1-D (distributions), 2-D (stochastic matrices, row-wise)
    and batched stacks thereof (normalisation is over the last axis), so
    the batched E-step engine applies the identical M-step flooring to a
    whole restart stack at once.
    """
    floored = np.maximum(matrix, min_prob)
    if floored.ndim == 1:
        return floored / floored.sum()
    return floored / floored.sum(axis=-1, keepdims=True)


def max_param_change(old: Sequence[np.ndarray], new: Sequence[np.ndarray]) -> float:
    """Largest absolute elementwise change across parameter arrays."""
    return max(
        float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) for a, b in zip(old, new)
    )
