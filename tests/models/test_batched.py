"""Property tests for the batched restart-stacked E-step engine.

The batched backend promises *parity*, not approximation: same seeds in,
same trajectories out.  These tests pin that promise against the
sequential engine for both model families — per-restart log-likelihood
trails, gamma/xi sufficient statistics, and the winning restart — plus
the edge cases the masking logic has to get right (all restarts
converging early, a single-restart batch) and the backend-resolution
knob itself.
"""

import numpy as np
import pytest

from repro.models import batched
from repro.models.base import EMConfig, SymbolIndex, SymbolStack
from repro.models.batched import (
    BATCHED_STATE_LIMIT,
    _BATCH_TYPES,
    _EStepAux,
    batched_restart_fits,
    resolve_backend,
)
from repro.models.hmm import _fit_hmm_restart, fit_hmm
from repro.models.mmhd import _fit_mmhd_restart, fit_mmhd
from tests.conftest import make_markov_sequence

KINDS = [
    ("hmm", fit_hmm, _fit_hmm_restart),
    ("mmhd", fit_mmhd, _fit_mmhd_restart),
]


@pytest.fixture(scope="module")
def seq():
    sequence, _ = make_markov_sequence(n_steps=2500, seed=17)
    return sequence


def sequential_fits(seq, kind, restart_worker, config):
    index = SymbolIndex(seq)
    return [
        restart_worker((seq, 2, config, restart, index))
        for restart in range(config.n_restarts)
    ]


class TestBackendParity:
    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_identical_trajectories_and_winner(self, seq, kind, fit,
                                               restart_worker):
        config = EMConfig(tol=1e-3, max_iter=30, n_restarts=3, seed=11,
                          freeze_loss_iters=2)
        batched_fits = batched_restart_fits(kind, seq, 2, config)
        seq_fits = sequential_fits(seq, kind, restart_worker, config)
        assert len(batched_fits) == config.n_restarts
        for b, s in zip(batched_fits, seq_fits):
            assert b.n_iter == s.n_iter
            assert b.converged == s.converged
            np.testing.assert_allclose(
                b.log_likelihoods, s.log_likelihoods, rtol=1e-9
            )
            np.testing.assert_allclose(
                b.virtual_delay_pmf, s.virtual_delay_pmf, rtol=1e-9
            )
            for pb, ps in zip(b.model.parameters(), s.model.parameters()):
                np.testing.assert_allclose(pb, ps, rtol=1e-9)
        # Identical winning restart — tolerance 0 on the argmax.
        batched_winner = int(np.argmax(
            [f.log_likelihood for f in batched_fits]
        ))
        seq_winner = int(np.argmax([f.log_likelihood for f in seq_fits]))
        assert batched_winner == seq_winner

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_gamma_xi_statistics_match(self, seq, kind, fit, restart_worker):
        """A restart stack's sufficient statistics row-match the
        sequential E-step run model-by-model (for the MMHD: the dense
        batched recursion against the structured sequential one)."""
        config = EMConfig(n_restarts=3, seed=23)
        index = SymbolIndex(seq)
        aux = _EStepAux(kind, SymbolStack([seq] * 3), 2)
        models = [
            batched._initial_model(kind, seq, 2, config, r)
            for r in range(3)
        ]
        batch = _BATCH_TYPES[kind].from_models(models)
        stats = batch.estep(aux)
        for row, model in enumerate(models):
            if kind == "mmhd":
                ref = model._estep(index, fast=config.fast_path)
                np.testing.assert_allclose(stats.loss_mass[row],
                                           ref.loss_mass, rtol=1e-9)
                np.testing.assert_allclose(stats.total_mass[row],
                                           ref.total_mass, rtol=1e-9)
            else:
                ref = model._estep(index)
                np.testing.assert_allclose(stats.joint_obs[row],
                                           ref.joint_obs, rtol=1e-9)
                np.testing.assert_allclose(stats.joint_loss[row],
                                           ref.joint_loss, rtol=1e-9)
            np.testing.assert_allclose(stats.gamma0[row], ref.gamma0,
                                       rtol=1e-9)
            np.testing.assert_allclose(stats.xi_sum[row], ref.xi_sum,
                                       rtol=1e-9)
            np.testing.assert_allclose(stats.loglik[row], ref.loglik,
                                       rtol=1e-12)

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_fit_level_parity(self, seq, kind, fit, restart_worker):
        """End to end through fit_hmm/fit_mmhd with the backend knob."""
        base = EMConfig(tol=1e-3, max_iter=30, n_restarts=3, seed=5,
                        freeze_loss_iters=2)
        b = fit(seq, 2, config=base.replace(backend="batched"))
        s = fit(seq, 2, config=base.replace(backend="sequential"))
        assert abs(b.log_likelihood - s.log_likelihood) <= (
            1e-9 * abs(s.log_likelihood)
        )
        assert b.n_iter == s.n_iter
        np.testing.assert_allclose(b.virtual_delay_pmf,
                                   s.virtual_delay_pmf, rtol=1e-9)

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_all_restarts_converge_early(self, seq, kind, fit,
                                         restart_worker):
        """A huge tolerance converges every row on its first unfrozen
        iteration; the masking bookkeeping must still finalize all."""
        config = EMConfig(tol=1e6, max_iter=30, n_restarts=3, seed=3,
                          freeze_loss_iters=1)
        batched_fits = batched_restart_fits(kind, seq, 2, config)
        seq_fits = sequential_fits(seq, kind, restart_worker, config)
        for b, s in zip(batched_fits, seq_fits):
            assert b.converged and s.converged
            assert b.n_iter == s.n_iter == 2
            np.testing.assert_allclose(
                b.log_likelihoods, s.log_likelihoods, rtol=1e-9
            )

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_single_restart(self, seq, kind, fit, restart_worker):
        config = EMConfig(tol=1e-3, max_iter=25, n_restarts=1, seed=9,
                          freeze_loss_iters=2)
        (b,) = batched_restart_fits(kind, seq, 2, config)
        (s,) = sequential_fits(seq, kind, restart_worker, config)
        assert b.n_iter == s.n_iter
        np.testing.assert_allclose(b.log_likelihoods, s.log_likelihoods,
                                   rtol=1e-9)
        np.testing.assert_allclose(b.virtual_delay_pmf,
                                   s.virtual_delay_pmf, rtol=1e-9)

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_sharded_batches_are_bit_identical(self, seq, kind, fit,
                                               restart_worker):
        """Batch rows are computed independently, so sharding the batch
        over workers changes nothing — not even the last ulp."""
        config = EMConfig(tol=1e-3, max_iter=25, n_restarts=3, seed=13,
                          freeze_loss_iters=2, backend="batched")
        f1 = fit(seq, 2, config=config)
        f4 = fit(seq, 2, config=config.replace(n_jobs=3))
        assert f1.log_likelihoods == f4.log_likelihoods
        assert np.array_equal(f1.virtual_delay_pmf, f4.virtual_delay_pmf)
        for a, b in zip(f1.model.parameters(), f4.model.parameters()):
            assert np.array_equal(a, b)


class TestBackendResolution:
    def test_auto_uses_state_width(self):
        config = EMConfig()
        assert config.backend == "auto"
        # Narrow states take the blocked scan kernel.
        assert resolve_backend(config, "hmm", 2, 5) == "blocked"
        assert resolve_backend(config, "hmm", 4, 5) == "blocked"
        assert resolve_backend(config, "hmm", 5, 5) == "batched"
        assert resolve_backend(config, "hmm",
                               BATCHED_STATE_LIMIT + 1, 5) == "sequential"
        # MMHD width is N*M.
        assert resolve_backend(config, "mmhd", 4, 5) == "batched"
        assert resolve_backend(config, "mmhd", 16, 5) == "sequential"

    def test_explicit_backend_wins(self):
        assert resolve_backend(
            EMConfig(backend="sequential"), "hmm", 2, 5
        ) == "sequential"
        assert resolve_backend(
            EMConfig(backend="batched"), "mmhd", 16, 5
        ) == "batched"

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EM_BACKEND", "sequential")
        assert EMConfig().backend == "sequential"
        monkeypatch.setenv("REPRO_EM_BACKEND", "batched")
        assert EMConfig().backend == "batched"

    def test_invalid_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="backend"):
            EMConfig(backend="gpu")
        monkeypatch.setenv("REPRO_EM_BACKEND", "gpu")
        with pytest.raises(ValueError, match="backend"):
            EMConfig()

    def test_replace_keeps_backend(self):
        config = EMConfig(backend="sequential")
        assert config.replace(n_jobs=2).backend == "sequential"


# ----------------------------------------------------------------------
# Ragged multi-sequence batches
# ----------------------------------------------------------------------

from repro.models.base import PAD, ObservationSequence  # noqa: E402
from repro.models.batched import run_hedged_fit, run_hedged_fits  # noqa: E402
from repro.streaming.online_em import _trail_collapsed  # noqa: E402


def ragged_sequences(lengths, seed0=40):
    return [make_markov_sequence(n_steps=n, seed=seed0 + i)[0]
            for i, n in enumerate(lengths)]


class TestSymbolStack:
    def test_padding_and_masks(self):
        seqs = ragged_sequences([50, 30]) + [ObservationSequence([2], 5)]
        stack = SymbolStack(seqs)
        assert stack.n_rows == 3
        assert stack.t_max == 50
        assert stack.lengths.tolist() == [50, 30, 1]
        assert stack.symbols0[1, 30:].tolist() == [PAD] * 20
        assert stack.valid[1, :30].all() and not stack.valid[1, 30:].any()
        assert int(stack.valid.sum()) == 81
        # observed and lost partition exactly the valid region
        assert np.array_equal(stack.valid, stack.observed | stack.lost)
        assert not (stack.observed & stack.lost).any()

    def test_row_index_matches_solo(self):
        seqs = ragged_sequences([60, 25])
        stack = SymbolStack(seqs)
        for row, seq in enumerate(seqs):
            solo = SymbolIndex(seq)
            np.testing.assert_array_equal(stack.row_index(row).symbols0,
                                          solo.symbols0)
            np.testing.assert_array_equal(
                stack.symbols0[row, : len(seq)], solo.symbols0
            )

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="at least one"):
            SymbolStack([])
        with pytest.raises(ValueError, match="n_symbols"):
            SymbolStack([ObservationSequence([1], 5),
                         ObservationSequence([1], 4)])


class TestRaggedEStep:
    # Unequal lengths, a duplicate length (group of 2), a length-1 edge
    # row, and a row whose padded tail dominates the stack.
    LENGTHS = [900, 400, 900, 150]

    def _batch(self, kind, seqs, config, n_hidden=2):
        aux = _EStepAux(kind, SymbolStack(seqs), n_hidden)
        models = [batched._initial_model(kind, seq, n_hidden, config, r)
                  for r, seq in enumerate(seqs)]
        batch = _BATCH_TYPES[kind].from_models(models)
        return batch, aux, models

    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_mixed_lengths_match_solo_estep(self, kind):
        """Each row's statistics equal a solo E-step on that row alone,
        padding notwithstanding."""
        config = EMConfig(seed=31)
        seqs = ragged_sequences(self.LENGTHS)
        seqs.append(ObservationSequence([2], 5))  # length-1 edge row
        batch, aux, models = self._batch(kind, seqs, config)
        stats = batch.estep(aux)
        for row, (model, seq) in enumerate(zip(models, seqs)):
            index = SymbolIndex(seq)
            if kind == "mmhd":
                ref = model._estep(index, fast=config.fast_path)
                np.testing.assert_allclose(stats.loss_mass[row],
                                           ref.loss_mass, rtol=1e-9,
                                           atol=1e-300)
                np.testing.assert_allclose(stats.total_mass[row],
                                           ref.total_mass, rtol=1e-9)
            else:
                ref = model._estep(index)
                np.testing.assert_allclose(stats.joint_obs[row],
                                           ref.joint_obs, rtol=1e-9)
                np.testing.assert_allclose(stats.joint_loss[row],
                                           ref.joint_loss, rtol=1e-9,
                                           atol=1e-300)
            np.testing.assert_allclose(stats.gamma0[row], ref.gamma0,
                                       rtol=1e-9)
            np.testing.assert_allclose(stats.xi_sum[row], ref.xi_sum,
                                       rtol=1e-9, atol=1e-300)
            np.testing.assert_allclose(stats.loglik[row], ref.loglik,
                                       rtol=1e-12)

    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_mixed_batch_is_bitwise_equal_to_singletons(self, kind):
        """Stacking rows of unequal length changes nothing — not even
        the last ulp — versus a one-row batch per sequence."""
        config = EMConfig(seed=37)
        seqs = ragged_sequences(self.LENGTHS, seed0=50)
        batch, aux, models = self._batch(kind, seqs, config)
        stats = batch.estep(aux)
        for row, seq in enumerate(seqs):
            solo_batch, solo_aux, _ = self._batch(kind, [seq], config)
            solo_batch.pi[0] = batch.pi[row]
            solo_batch.transition[0] = batch.transition[row]
            solo_batch.loss_c[0] = batch.loss_c[row]
            if kind == "hmm":
                solo_batch.emission[0] = batch.emission[row]
            solo = solo_batch.estep(solo_aux)
            assert stats.loglik[row] == solo.loglik[0]
            assert np.array_equal(stats.gamma0[row], solo.gamma0[0])
            assert np.array_equal(stats.xi_sum[row], solo.xi_sum[0])
            if kind == "mmhd":
                assert np.array_equal(stats.loss_mass[row],
                                      solo.loss_mass[0])
                assert np.array_equal(stats.total_mass[row],
                                      solo.total_mass[0])
            else:
                assert np.array_equal(stats.joint_obs[row],
                                      solo.joint_obs[0])
                assert np.array_equal(stats.joint_loss[row],
                                      solo.joint_loss[0])


class TestRaggedHedged:
    CONFIG = EMConfig(tol=1e-3, max_iter=30, n_restarts=2, seed=11,
                      freeze_loss_iters=2)

    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_multi_window_matches_solo(self, kind):
        """run_hedged_fits over windows of unequal length returns, per
        window, byte-identical results to solo run_hedged_fit calls."""
        lengths = [1200, 700, 1200, 300]
        seqs = ragged_sequences(lengths, seed0=60)
        configs = [self.CONFIG.replace(seed=100 + i)
                   for i in range(len(seqs))]
        warms = [batched._initial_model(kind, seq, 2, cfg, 7)
                 for seq, cfg in zip(seqs, configs)]
        fused, info = run_hedged_fits(kind, seqs, 2, configs, warms,
                                      _trail_collapsed)
        assert info["windows"] == len(seqs)
        # One warm row per window, plus n_restarts lazy cold rows for
        # each window that fell back.
        fallbacks = sum(1 for _, warm_used, _ in fused if not warm_used)
        assert info["rows"] == (len(seqs)
                                + fallbacks * self.CONFIG.n_restarts)
        assert info["t_max"] == max(lengths)
        assert 0.0 < info["pad_fraction"] < 1.0
        for (fitted, warm_used, reason), seq, cfg in zip(fused, seqs,
                                                         configs):
            warm = batched._initial_model(kind, seq, 2, cfg, 7)
            solo, solo_warm, solo_reason = run_hedged_fit(
                kind, seq, 2, cfg, warm, _trail_collapsed
            )
            assert warm_used == solo_warm
            assert reason == solo_reason
            assert fitted.n_iter == solo.n_iter
            assert fitted.converged == solo.converged
            assert fitted.log_likelihoods == solo.log_likelihoods
            assert np.array_equal(fitted.virtual_delay_pmf,
                                  solo.virtual_delay_pmf)
            for a, b in zip(fitted.model.parameters(),
                            solo.model.parameters()):
                assert np.array_equal(a, b)

    def test_fallback_window_matches_solo(self):
        """A degenerate warm state in one window falls back to its cold
        restarts without disturbing the healthy windows."""
        from repro.models.mmhd import MarkovModelHiddenDimension

        seqs = ragged_sequences([800, 500], seed0=70)
        configs = [self.CONFIG.replace(seed=200 + i) for i in range(2)]
        # pi pinned to one symbol + absorbing identity transition: the
        # first observed symbol change has zero probability.
        degenerate = MarkovModelHiddenDimension(
            np.eye(5)[0], np.eye(5), np.full(5, 0.01), 5
        )
        healthy = batched._initial_model("mmhd", seqs[0], 1, configs[0], 3)
        fused, _ = run_hedged_fits(
            "mmhd", seqs, 1, configs, [healthy, degenerate],
            _trail_collapsed,
        )
        assert fused[0][1] is True and fused[0][2] is None
        assert fused[1][1] is False
        assert fused[1][2] == "zero-likelihood"
        for (fitted, warm_used, reason), seq, cfg, warm in zip(
            fused, seqs, configs,
            [batched._initial_model("mmhd", seqs[0], 1, configs[0], 3),
             MarkovModelHiddenDimension(np.eye(5)[0], np.eye(5),
                                        np.full(5, 0.01), 5)],
        ):
            solo, solo_warm, solo_reason = run_hedged_fit(
                "mmhd", seq, 1, cfg, warm, _trail_collapsed
            )
            assert (warm_used, reason) == (solo_warm, solo_reason)
            assert fitted.log_likelihoods == solo.log_likelihoods
            assert np.array_equal(fitted.virtual_delay_pmf,
                                  solo.virtual_delay_pmf)

    def test_rejects_mismatched_configs(self):
        seqs = ragged_sequences([300, 300], seed0=80)
        warms = [batched._initial_model("mmhd", seq, 1, self.CONFIG, 0)
                 for seq in seqs]
        with pytest.raises(ValueError, match="seed"):
            run_hedged_fits(
                "mmhd", seqs, 1,
                [self.CONFIG, self.CONFIG.replace(tol=1e-5)],
                warms, _trail_collapsed,
            )

    def test_empty_batch(self):
        results, info = run_hedged_fits("mmhd", [], 1, [], [],
                                        _trail_collapsed)
        assert results == []
        assert info["windows"] == 0
