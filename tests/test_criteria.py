import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftsearch import criteria as C
from peftsearch import supernet as S
from peftsearch import tasks as TK
from peftsearch import tensor as T


def stats_from(weights, grads=None, act_sum=0.0, act_n=0, batches=1):
    w = np.asarray(weights, dtype=float)
    g = np.asarray(grads, dtype=float) if grads is not None else np.zeros_like(w)
    return C.ModuleStats(
        weights=w,
        grad_abs=np.abs(g),
        weight_grad_abs=np.abs(w * g),
        activation_abs_sum=act_sum,
        activation_count=act_n,
        num_batches=batches,
    )


class TestRawScores:
    def test_weight_is_mean_square(self):
        s = stats_from([1.0, -1.0, 2.0])
        assert C.raw_score(C.Criterion("weight"), s) == pytest.approx(2.0)

    def test_zeros_is_nonzero_fraction(self):
        s = stats_from([0.0, 1.0, 0.0, 2.0])
        assert C.raw_score(C.Criterion("zeros"), s) == pytest.approx(0.5)

    def test_threshold_is_small_weight_fraction(self):
        s = stats_from([0.05, 0.2])
        assert C.raw_score(C.Criterion("threshold", 0.1), s) == pytest.approx(0.5)

    def test_threshold_without_t_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            C.raw_score(C.Criterion("threshold"), stats_from([1.0]))

    def test_sensitivity_is_mean_abs_weight_times_grad(self):
        s = stats_from([2.0, -1.0], grads=[0.5, 2.0])
        assert C.raw_score(C.Criterion("sensitivity"), s) == pytest.approx(1.5)

    def test_gradient_is_mean_abs_grad(self):
        s = stats_from([0.0, 0.0], grads=[1.0, -3.0])
        assert C.raw_score(C.Criterion("gradient"), s) == pytest.approx(2.0)

    def test_activation_is_mean_abs_output(self):
        s = stats_from([1.0], act_sum=abs(1) + abs(-1) + 3 + 3, act_n=4)
        assert C.raw_score(C.Criterion("activation"), s) == pytest.approx(2.0)

    def test_activation_without_observations_scores_zero(self):
        assert C.raw_score(C.Criterion("activation"), stats_from([1.0])) == 0.0

    def test_multi_step_scores_average_over_steps(self):
        w = np.array([2.0, -1.0])
        s = C.ModuleStats(weights=w, grad_abs=np.array([3.0, 1.0]),
                          weight_grad_abs=np.array([6.0, 1.0]),
                          activation_abs_sum=0.0, activation_count=0,
                          num_batches=2)
        assert C.raw_score(C.Criterion("gradient"), s) == pytest.approx(1.0)
        assert C.raw_score(C.Criterion("sensitivity"), s) == pytest.approx(1.75)


class TestOrientationAndRanks:
    def test_only_threshold_is_positively_oriented(self):
        for tag in C.CRITERIA_ORDER:
            crit = C.Criterion(tag, 0.1 if tag == "threshold" else None)
            u = C.unimportance(crit, 3.0)
            assert u == (3.0 if tag == "threshold" else -3.0)

    def test_rank_example(self):
        ids = [S.PeftModuleId(i, "SA") for i in range(3)]
        sv = C.rank_modules(zip(ids, [0.3, 0.9, 0.1]))
        assert list(sv.ranks) == [2, 3, 1]

    def test_ties_break_by_layer_then_kind(self):
        ids = [S.PeftModuleId(1, "PA"), S.PeftModuleId(0, "SA"),
               S.PeftModuleId(0, "PA")]
        sv = C.rank_modules(zip(ids, [0.5, 0.5, 0.5]))
        # all equal: earlier (layer, kind) gets the lower rank
        by_id = dict(zip(ids, sv.ranks))
        assert by_id[S.PeftModuleId(0, "SA")] == 1
        assert by_id[S.PeftModuleId(0, "PA")] == 2
        assert by_id[S.PeftModuleId(1, "PA")] == 3

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            C.rank_modules([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
    def test_ranks_are_a_permutation(self, scores):
        ids = [S.PeftModuleId(i, "SA") for i in range(len(scores))]
        sv = C.rank_modules(zip(ids, scores))
        assert sorted(sv.ranks) == list(range(1, len(scores) + 1))

    def test_hypothetical_top_k_picks_most_prunable(self):
        ids = [S.PeftModuleId(i, "SA") for i in range(4)]
        # weight criterion: larger mean square = more important (kept)
        stats = {mid: stats_from([float(i + 1)]) for i, mid in enumerate(ids)}
        top = C.hypothetical_top_k(C.Criterion("weight"), stats, ids, 2)
        assert top == [ids[0], ids[1]]


class TestThresholdResolution:
    def test_relative_t_is_percent_of_median(self):
        group = [stats_from([1.0, 2.0, 3.0]), stats_from([4.0, 5.0, 6.0])]
        crit = C.resolve_threshold(C.Criterion("threshold"), group)
        assert crit.threshold == pytest.approx(0.01 * 3.5)

    def test_explicit_t_is_kept(self):
        crit = C.resolve_threshold(C.Criterion("threshold", 0.25), [stats_from([9.0])])
        assert crit.threshold == 0.25

    def test_other_criteria_untouched(self):
        crit = C.Criterion("weight")
        assert C.resolve_threshold(crit, []) is crit

    def test_all_zero_weights_get_floor(self):
        crit = C.resolve_threshold(C.Criterion("threshold"), [stats_from([0.0, 0.0])])
        assert crit.threshold > 0


class TestOracleAgreement:
    """Spot checks against a literal elementwise summation; the acceptance
    suite repeats this at volume."""

    def test_all_six_match_direct_summation(self, rng):
        n = 16
        w = rng.normal(size=n)
        w[rng.integers(0, n, 3)] = 0.0
        g = rng.normal(size=n)
        steps = 3
        s = C.ModuleStats(weights=w, grad_abs=steps * np.abs(g),
                          weight_grad_abs=steps * np.abs(w * g),
                          activation_abs_sum=12.5, activation_count=10,
                          num_batches=steps)
        t = 0.01 * float(np.median(np.abs(w)))
        direct = {
            "weight": sum(x * x for x in w) / n,
            "zeros": sum(1 for x in w if x != 0) / n,
            "threshold": sum(1 for x in w if abs(x) < t) / n,
            "activation": 12.5 / 10,
            "sensitivity": sum(abs(x * y) for x, y in zip(w, g)) / n,
            "gradient": sum(abs(y) for y in g) / n,
        }
        for tag, want in direct.items():
            crit = C.Criterion(tag, t if tag == "threshold" else None)
            assert C.raw_score(crit, s) == pytest.approx(want, abs=1e-12)


class TestCollectStats:
    def _setup(self):
        cfg = S.SupernetConfig(4, 16, 2, 16, 4, 2, 12, 2, 8)
        net = S.build_supernet(cfg, seed=1)
        task = TK.SyntheticTaskSpec("t", 12, 8, 2, "token-majority", 20, 4, 4, 3)
        train, _, _ = TK.generate_task(task)
        batches = TK.Batcher(train, 10, np.random.default_rng(0))
        return net, batches

    def test_covers_active_modules_and_counts_steps(self):
        net, batches = self._setup()
        opt = T.Adam(net.trainable_params(), lr=1e-3)
        stats, losses = C.collect_stats(net, batches, steps=3, optimizer=opt)
        assert set(stats) == set(net.mask.active_ids())
        assert len(losses) == 3
        for s in stats.values():
            assert s.num_batches == 3
            assert s.activation_count > 0
            assert np.any(s.grad_abs > 0)

    def test_activation_statistic_is_each_terms_abs_sum(self, rng):
        """One step on a 3-layer net: each module's activation sum and count
        match its term recomputed from its own weights, PA from the layer
        input and SA from the layer's base (its two adapters masked)."""
        cfg = S.SupernetConfig(3, 16, 2, 16, 4, 2, 12, 2, 8)
        net = S.build_supernet(cfg, seed=4)
        tokens = rng.integers(0, 12, size=(5, 8))
        labels = rng.integers(0, 2, size=5)
        weights = {mid: (m.w_down.data.copy(), m.w_up.data.copy())
                   for mid, m in net.modules.items()}

        def act(x):
            return T.activation(T.Tensor(x), cfg.activation).data

        want = {}
        full = net.mask.copy()
        h = net.embedding.data[tokens] + net.pos.data[:tokens.shape[1]]
        for i in range(cfg.num_layers):
            masked = full.copy()
            sa, pa = S.PeftModuleId(i, "SA"), S.PeftModuleId(i, "PA")
            masked.deactivate(sa)
            masked.deactivate(pa)
            net.apply_mask(masked)
            base = net.layer_forward(T.Tensor(h), i)[0].data
            net.apply_mask(full)
            wd, wu = weights[sa]
            want[sa] = act(base.reshape(-1, cfg.d_model) @ wd) @ wu
            wd, wu = weights[pa]
            want[pa] = act((h.reshape(-1, cfg.d_model) @ wd) @ wu)
            h = net.layer_forward(T.Tensor(h), i)[0].data

        opt = T.Adam(net.trainable_params(), lr=1e-3)
        stats, _ = C.collect_stats(net, iter([(tokens, labels)]), steps=1, optimizer=opt)
        assert set(stats) == set(want)
        for mid, term in want.items():
            assert stats[mid].activation_count == term.size
            assert stats[mid].activation_abs_sum == pytest.approx(
                float(np.abs(term).sum()), rel=1e-12, abs=0)

    def test_masked_modules_are_skipped(self):
        net, batches = self._setup()
        net.mask.deactivate(S.PeftModuleId(0, "SA"))
        opt = T.Adam(net.trainable_params(), lr=1e-3)
        stats, _ = C.collect_stats(net, batches, steps=1, optimizer=opt)
        assert S.PeftModuleId(0, "SA") not in stats

    def test_zero_steps_rejected(self):
        net, batches = self._setup()
        opt = T.Adam(net.trainable_params(), lr=1e-3)
        with pytest.raises(ValueError):
            C.collect_stats(net, batches, steps=0, optimizer=opt)
