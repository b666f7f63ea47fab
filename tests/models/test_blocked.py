"""Property tests for the blocked-scan forward-backward kernel.

The blocked kernel replaces the per-time-step Python loop with composed
operator blocks; these tests pin its contracts:

- numerical parity with the loop kernel for every block-size shape
  (``B = 1``, ``B`` not dividing ``T``, ``B >= T``, single-step rows),
  equal-length and ragged;
- the *exact* padded-region carry semantics of the loop kernel, and
  bitwise independence of a row's results from its batch composition
  (the fused-equals-solo contract, guaranteed by the fixed block size);
- both kernels against the readable row-by-row reference oracle;
- workspace reuse (no per-iteration reallocation of the big buffers);
- telemetry that reports what actually ran.
"""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.models.base import EMConfig, SymbolStack
from repro.models.batched import (
    BATCH_BACKENDS,
    BLOCK_SIZE,
    _BatchZeroLikelihood,
    _blocked_forward_backward,
    _check_scales,
    _EStepAux,
    _kernel_info,
    _loop_forward_backward,
    _Workspace,
    batched_restart_fits,
    resolve_backend,
    run_hedged_fit,
    run_hedged_fits,
)
from repro.models.hmm import fit_hmm
from repro.obs.provenance import config_to_dict, em_config_from_dict
from tests.conftest import make_markov_sequence
from tests.models.reference import reference_forward_backward

RTOL = 1e-9


def random_problem(rng, n_steps, n_rows, n):
    pi = rng.dirichlet(np.ones(n), size=n_rows)
    transition = rng.dirichlet(np.ones(n), size=(n_rows, n))
    likes = rng.uniform(0.01, 1.0, size=(n_steps, n_rows, n))
    return pi, transition, likes


def full(likes):
    """Every row's length for an equal-length batch."""
    return np.full(likes.shape[1], likes.shape[0])


def assert_parity(ref, out, rtol=RTOL):
    for name, a, b in zip(("alpha", "beta", "scales"), ref, out):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0,
                                   err_msg=name)


class TestUniformParity:
    @pytest.mark.parametrize("n_steps,n", [(2, 2), (5, 3), (97, 2),
                                           (256, 2), (513, 4)])
    def test_matches_loop_kernel_across_block_sizes(self, n_steps, n):
        rng = np.random.default_rng(n_steps * 10 + n)
        pi, transition, likes = random_problem(rng, n_steps, 6, n)
        ref = tuple(x.copy() for x in _loop_forward_backward(
            pi, transition, likes, full(likes)))
        ll = np.log(ref[2].T).sum(axis=1)
        # B = 1, B not dividing T, B = T, B > T, and the engine's B.
        for block in (1, 3, 16, n_steps, 2 * n_steps, BLOCK_SIZE):
            out = _blocked_forward_backward(pi, transition, likes,
                                            full(likes), block_size=block)
            assert_parity(ref, out)
            np.testing.assert_allclose(
                np.log(out[2].T).sum(axis=1), ll, rtol=RTOL
            )

    def test_single_step_sequence(self):
        rng = np.random.default_rng(0)
        pi, transition, likes = random_problem(rng, 1, 4, 2)
        ref = _loop_forward_backward(pi, transition, likes, full(likes))
        ref = tuple(x.copy() for x in ref)
        out = _blocked_forward_backward(pi, transition, likes, full(likes),
                                        block_size=8)
        assert_parity(ref, out)
        assert (out[1] == 1.0).all()

    def test_zero_likelihood_raises_like_loop(self):
        rng = np.random.default_rng(1)
        pi, transition, likes = random_problem(rng, 40, 3, 2)
        likes[25, 1] = 0.0
        with pytest.raises(_BatchZeroLikelihood) as exc:
            _blocked_forward_backward(pi, transition, likes, full(likes),
                                      block_size=8)
        assert 1 in exc.value.first_bad_t
        assert exc.value.first_bad_t[1] == 25


class TestRaggedParity:
    def lengths_case(self, rng, lengths, n=2, block=7):
        lengths = np.asarray(lengths)
        n_rows, t_max = len(lengths), int(lengths.max())
        pi = rng.dirichlet(np.ones(n), size=n_rows)
        transition = rng.dirichlet(np.ones(n), size=(n_rows, n))
        likes = np.zeros((t_max, n_rows, n))
        for k, t_r in enumerate(lengths):
            likes[:t_r, k] = rng.uniform(0.01, 1.0, size=(t_r, n))
        ref = _loop_forward_backward(pi, transition, likes, lengths)
        ref = tuple(x.copy() for x in ref)
        out = _blocked_forward_backward(pi, transition, likes, lengths,
                                        block_size=block)
        return lengths, ref, out

    @pytest.mark.parametrize("lengths", [
        [40, 23, 7, 40], [64, 1, 33], [5, 5, 5], [129, 64, 2, 100]
    ])
    def test_matches_ragged_loop_kernel(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        lengths, ref, out = self.lengths_case(rng, lengths)
        t_max = int(lengths.max())
        for k, t_r in enumerate(lengths):
            for a, b in zip(ref, out):
                np.testing.assert_allclose(a[:t_r, k], b[:t_r, k],
                                           rtol=RTOL, atol=0.0)
            # The padded region is *exact*: carried alpha, unit scales
            # and betas, bit for bit what the loop kernel produces.
            alpha, beta, scales = out
            assert np.array_equal(
                alpha[t_r:, k],
                np.broadcast_to(alpha[t_r - 1, k], (t_max - t_r, 2)),
            )
            assert (scales[t_r:, k] == 1.0).all()
            assert (beta[t_r - 1:, k] == 1.0).all()

    def test_solo_row_bit_identical_to_fused_stack(self):
        """A row's results must not depend on its batch's t_max — the
        contract that keeps fused drains byte-identical to solo fits."""
        rng = np.random.default_rng(7)
        lengths = np.array([200, 73, 200, 9, 128])
        n = 2
        pi = rng.dirichlet(np.ones(n), size=len(lengths))
        transition = rng.dirichlet(np.ones(n), size=(len(lengths), n))
        likes = np.zeros((200, len(lengths), n))
        for k, t_r in enumerate(lengths):
            likes[:t_r, k] = rng.uniform(0.01, 1.0, size=(t_r, n))
        fused = _blocked_forward_backward(pi, transition, likes, lengths)
        fused = tuple(x.copy() for x in fused)
        for k, t_r in enumerate(lengths):
            solo = _blocked_forward_backward(
                pi[k:k + 1], transition[k:k + 1],
                np.ascontiguousarray(likes[:t_r, k:k + 1]), np.array([t_r]),
            )
            for a, b in zip(fused, solo):
                assert np.array_equal(a[:t_r, k], b[:, 0]), k


class TestWorkspace:
    def test_reuses_buffers_across_calls(self):
        ws = _Workspace()
        a = ws.get("x", (100, 3))
        b = ws.get("x", (50, 2))
        assert np.shares_memory(a, b)
        wide = ws.get("x", (200, 3))  # grows: reallocates
        assert not np.shares_memory(a, wide)

    @pytest.mark.parametrize("kernel_call", ["loop", "blocked"])
    def test_no_large_allocations_after_warmup(self, monkeypatch,
                                               kernel_call):
        """Second pass with a shared workspace must not allocate any
        full-size buffer — the per-iteration allocation regression."""
        rng = np.random.default_rng(11)
        pi, transition, likes = random_problem(rng, 500, 4, 2)
        ws = _Workspace()

        def run():
            if kernel_call == "loop":
                return _loop_forward_backward(pi, transition, likes,
                                              full(likes), workspace=ws)
            return _blocked_forward_backward(pi, transition, likes,
                                             full(likes), workspace=ws,
                                             block_size=16)

        run()  # warm the workspace
        big = []
        real_empty = np.empty

        def counting_empty(*args, **kwargs):
            arr = real_empty(*args, **kwargs)
            if arr.size >= 1024:
                big.append(arr.size)
            return arr

        monkeypatch.setattr(np, "empty", counting_empty)
        run()
        assert big == []


class TestResolution:
    def test_resolve_kernel_fallbacks(self):
        """Each batch backend maps to exactly one kernel; there is no
        fallback path, so an unknown kernel request fails up front."""
        stack = SymbolStack([make_markov_sequence(n_steps=50, seed=1)[0]])
        assert _EStepAux("hmm", stack, 2, backend="blocked").kernel \
            == "blocked"
        assert _EStepAux("hmm", stack, 2, backend="batched").kernel == "loop"
        with pytest.raises(ValueError, match="backend"):
            EMConfig(backend="compiled")

    def test_backends_frozen(self):
        assert {"batched", "blocked"} == set(BATCH_BACKENDS)
        assert resolve_backend(EMConfig(backend="blocked"), "mmhd", 4, 5) \
            == "blocked"

    def test_config_validation_and_env(self, monkeypatch):
        """The retired precision and block-size knobs are gone: neither
        keyword nor environment variable reaches the config."""
        for retired in ({"dtype": "float32"}, {"block_size": 48}):
            with pytest.raises(TypeError):
                EMConfig(**retired)
            with pytest.raises(TypeError, match="unknown"):
                EMConfig().replace(**retired)
        monkeypatch.setenv("REPRO_EM_DTYPE", "float32")
        monkeypatch.setenv("REPRO_EM_BLOCK_SIZE", "48")
        assert vars(EMConfig()) == vars(EMConfig().replace())
        assert not hasattr(EMConfig(), "dtype")
        assert not hasattr(EMConfig(), "block_size")

    def test_provenance_round_trip(self):
        config = EMConfig(backend="blocked", seed=4)
        restored = em_config_from_dict(config_to_dict(config))
        assert vars(restored) == vars(config)

    def test_check_scales_reports_every_poisoned_row(self):
        scales = np.ones((6, 4))
        scales[3, 1] = 0.0
        scales[1, 3] = np.nan
        scales[4:, 3] = 0.0
        with pytest.raises(_BatchZeroLikelihood) as exc:
            _check_scales(scales)
        assert exc.value.t == 1
        assert exc.value.first_bad_t == {1: 3, 3: 1}
        assert sorted(exc.value.rows.tolist()) == [1, 3]


class TestFitParity:
    @pytest.mark.parametrize("backend", ["blocked"])
    def test_blocked_fit_matches_batched_fit(self, backend):
        """Same winner, same trajectory length, loglik within parity
        tolerance — the fit-level acceptance contract."""
        seq, _ = make_markov_sequence(n_steps=1500, seed=29)
        config = EMConfig(tol=1e-3, max_iter=20, n_restarts=3, seed=3,
                          freeze_loss_iters=2)
        ref = fit_hmm(seq, 2, config=config.replace(backend="batched"))
        out = fit_hmm(seq, 2, config=config.replace(backend=backend))
        assert out.n_iter == ref.n_iter
        assert np.isclose(out.log_likelihood, ref.log_likelihood,
                          rtol=RTOL)
        np.testing.assert_allclose(out.virtual_delay_pmf,
                                   ref.virtual_delay_pmf, rtol=1e-6)

    def test_hedged_fit_matches_across_kernels(self):
        seq, _ = make_markov_sequence(n_steps=900, seed=31)
        config = EMConfig(tol=1e-3, max_iter=15, n_restarts=2, seed=5)
        cold = fit_hmm(seq, 2, config=config.replace(backend="batched"))
        results = {}
        for backend in ("batched", "blocked"):
            fitted, warm_used, reason = run_hedged_fit(
                "hmm", seq, 2, config, cold.model, lambda trail: None,
                backend=backend,
            )
            assert warm_used and reason is None
            results[backend] = fitted
        assert np.isclose(results["blocked"].log_likelihood,
                          results["batched"].log_likelihood, rtol=RTOL)

    def test_ragged_kernel_is_pinned_regardless_of_config(self):
        """Every blocked batch runs the one fixed block size, whatever
        its sequence lengths; no config field can move it."""
        for n_steps in (300, 3000):
            seq, _ = make_markov_sequence(n_steps=n_steps, seed=2)
            aux = _EStepAux("hmm", SymbolStack([seq, seq]), 2,
                            backend="blocked")
            assert _kernel_info(aux) == {"kernel": "blocked",
                                         "block_size": BLOCK_SIZE}
        assert BLOCK_SIZE == 64


class TestTelemetry:
    def events(self, sink):
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    def test_backend_event_reports_kernel_dtype_block(self):
        seq, _ = make_markov_sequence(n_steps=800, seed=41)
        sink = io.StringIO()
        obs.enable(events=sink, clear=True)
        try:
            config = EMConfig(tol=1e-3, max_iter=5, n_restarts=2, seed=1,
                              backend="blocked")
            batched_restart_fits("hmm", seq, 2, config, backend="blocked")
        finally:
            obs.disable()
        (event,) = [e for e in self.events(sink)
                    if e["kind"] == "em.backend"]
        assert event["backend"] == "blocked"
        assert event["kernel"] == "blocked"
        assert event["block_size"] == BLOCK_SIZE
        assert "dtype" not in event and "dtype_fallbacks" not in event

class TestReferenceOracle:
    """Both kernels against the row-by-row oracle of
    :mod:`tests.models.reference`."""

    KERNELS = (_loop_forward_backward, _blocked_forward_backward)

    def test_python_reference_matches_loop_kernels(self):
        rng = np.random.default_rng(13)
        pi, transition, likes = random_problem(rng, 60, 3, 2)
        ref = reference_forward_backward(pi, transition, likes, full(likes))
        for kernel in self.KERNELS:
            out = kernel(pi, transition, likes, full(likes))
            assert_parity(ref, out, rtol=1e-12)

    def test_python_reference_ragged_carry(self):
        rng = np.random.default_rng(14)
        lengths = np.array([50, 20, 1])
        pi, transition, likes = random_problem(rng, 50, 3, 2)
        for k, t_r in enumerate(lengths):
            likes[t_r:, k] = 0.0
        ref = reference_forward_backward(pi, transition, likes, lengths)
        for kernel in self.KERNELS:
            # The padded region is exact in both kernels, so the whole
            # array — valid and carried slots — matches the oracle.
            out = kernel(pi, transition, likes, lengths)
            assert_parity(ref, out, rtol=1e-12)


class TestFusedDrainAcrossKernels:
    def test_hedged_windows_agree_across_kernels(self):
        """The fused drain's verdict-bearing outputs agree whichever
        kernel runs the mega-batch (float64)."""
        seqs = []
        for i, n_steps in enumerate((700, 450, 700)):
            seq, _ = make_markov_sequence(n_steps=n_steps, seed=50 + i)
            seqs.append(seq)
        config = EMConfig(tol=1e-3, max_iter=12, n_restarts=2, seed=8)
        warm = [
            fit_hmm(s, 2, config=config.replace(backend="batched")).model
            for s in seqs
        ]
        outputs = {}
        for backend in ("batched", "blocked"):
            results, info = run_hedged_fits(
                "hmm", seqs, 2, [config] * len(seqs), list(warm),
                lambda trail: None, backend=backend,
            )
            assert info["kernel"] == ("loop" if backend == "batched"
                                      else "blocked")
            outputs[backend] = results
        for (fa, wa, ra), (fb, wb, rb) in zip(outputs["batched"],
                                              outputs["blocked"]):
            assert (wa, ra) == (wb, rb)
            assert fa.n_iter == fb.n_iter
            assert np.isclose(fa.log_likelihood, fb.log_likelihood,
                              rtol=RTOL)
            np.testing.assert_allclose(fa.virtual_delay_pmf,
                                       fb.virtual_delay_pmf, rtol=1e-6)
