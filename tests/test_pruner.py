import numpy as np
import pytest

from peftsearch import criteria as C
from peftsearch import pruner as P
from peftsearch import strategy as ST
from peftsearch import supernet as S
from peftsearch import tasks as TK


def build_net(num_layers=4, seed=2, sa=4, pa=2):
    cfg = S.SupernetConfig(num_layers, 16, 2, 16, sa, pa, 12, 2, 8)
    return S.build_supernet(cfg, seed)


def build_data(train=40, seed=7):
    task = TK.SyntheticTaskSpec("t", 12, 8, 2, "token-majority", train, 8, 16, seed)
    return TK.generate_task(task)


def hybrid_scorer_for(net):
    parts = ST.partition_layers(net.config.num_layers)
    return ST.hybrid_scorer([(p, C.Criterion("weight")) for p in parts])


def count_batches(monkeypatch):
    """A list that grows by one for every batch any Batcher serves."""
    drawn = []
    next_batch = TK.Batcher.__next__

    def counting_next(self):
        drawn.append(1)
        return next_batch(self)

    monkeypatch.setattr(TK.Batcher, "__next__", counting_next)
    return drawn


def search(net, budget, k, seed=0, data=None):
    train = data if data is not None else build_data()[0]
    return P.run_search(net, train, hybrid_scorer_for(net), budget, k, steps=1,
                        reinit_survivors=True, lr=1e-3, batch_size=20, seed=seed)


class TestScheduleDerivation:
    """The rounds run_search derives from its budget and k."""

    def test_round_count_for_uniform_modules(self):
        # 24 layers, equal-size adapters: keep 12 of 48 modules, 4 per round
        net = build_net(num_layers=24, sa=4, pa=4)
        size = net.module_size(S.PeftModuleId(0, "SA"))
        budget = S.trainable_param_count(net) - 36 * size
        records, _ = search(net, budget, k=4)
        assert [len(r["pruned"]) for r in records] == [4] * 9
        assert records[-1]["param_count_after"] == budget

    def test_budget_at_or_above_current_count_means_no_rounds(self):
        net = build_net()
        train, _, _ = build_data()
        for budget in (S.trainable_param_count(net), S.trainable_param_count(net) + 1):
            records, served = search(net, budget, k=1, data=train)
            assert records == []
            assert served == []

    def test_budget_below_head_size_rejected(self, monkeypatch):
        self._assert_rejected_before_any_batch(monkeypatch, 1, 2, "head")

    @pytest.mark.parametrize("k", [0, -1], ids=["k-0", "k-minus-1"])
    def test_k_below_one_rejected_before_any_batch(self, monkeypatch, k):
        self._assert_rejected_before_any_batch(monkeypatch, 0, k, "k must be positive")

    def _assert_rejected_before_any_batch(self, monkeypatch, below_head, k, match):
        net = build_net()
        train, _, _ = build_data()
        drawn = count_batches(monkeypatch)
        with pytest.raises(ValueError, match=match):
            search(net, net.config.head_param_count() - below_head, k, data=train)
        assert drawn == []
        assert net.mask.num_active() == len(net.mask)

    def test_head_only_budget_schedules_full_removal(self):
        # 8 modules at 2 per round
        self._assert_head_only_rounds(2, [2, 2, 2, 2])

    def test_head_only_budget_at_k_3_ends_with_a_short_round(self):
        # 8 modules: at k 3 the last round takes the 2 that are left
        self._assert_head_only_rounds(3, [3, 3, 2])

    def _assert_head_only_rounds(self, k, sizes):
        net = build_net()
        head = net.config.head_param_count()
        records, _ = search(net, head, k)
        assert [len(r["pruned"]) for r in records] == sizes
        assert net.mask.num_active() == 0
        assert S.trainable_param_count(net) == head

    def test_default_k_is_a_twelfth_rounded_up(self):
        net = build_net(num_layers=24)  # 48 active modules
        assert P.default_k(net) == 4
        net.mask.deactivate(S.PeftModuleId(0, "SA"))
        assert P.default_k(net) == 4  # ceil(47 / 12)

    def test_default_budget_removes_num_layers_smallest(self):
        net = build_net(num_layers=4, sa=4, pa=2)
        pa_size = net.module_size(S.PeftModuleId(0, "PA"))
        want = S.trainable_param_count(net) - 4 * pa_size
        assert P.default_budget(net) == want


class TestSelection:
    def test_top_one_is_argmax(self):
        ids = [S.PeftModuleId(i, "SA") for i in range(3)]
        assert C.top_k(ids, np.array([0.1, 0.5, 0.4]), 1) == [ids[1]]

    def test_ties_break_by_module_order(self):
        ids = [S.PeftModuleId(2, "SA"), S.PeftModuleId(0, "PA"),
               S.PeftModuleId(0, "SA")]
        assert C.top_k(ids, np.array([0.4, 0.4, 0.2]), 1) == [S.PeftModuleId(0, "PA")]

    def test_k_larger_than_population_is_clamped(self):
        ids = [S.PeftModuleId(0, "SA")]
        assert C.top_k(ids, np.array([1.0]), 5) == ids


class TestSearch:
    def test_rounds_shrink_params_and_respect_budget(self):
        net = build_net()
        train, _, _ = build_data()
        budget = P.default_budget(net)
        records, served = P.run_search(net, train, hybrid_scorer_for(net), budget, 1, 2,
                                       True, lr=1e-3, batch_size=20, seed=0)
        counts = [r["param_count_after"] for r in records]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] <= budget
        assert net.mask.num_active() < len(net.mask)
        assert len(served) == len(records) and min(served) > 0

    def test_each_round_removes_argmax_k(self):
        net = build_net()
        train, _, _ = build_data()
        records, _ = P.run_search(net, train, hybrid_scorer_for(net), P.default_budget(net),
                                  2, 2, True, lr=1e-3, batch_size=20, seed=0)
        for rec in records:
            ids = [S.PeftModuleId(e["layer"], e["kind"]) for e in rec["probabilities"]]
            p = [e["p"] for e in rec["probabilities"]]
            pruned = [S.PeftModuleId(m["layer"], m["kind"]) for m in rec["pruned"]]
            assert pruned == C.top_k(ids, p, len(pruned))

    def test_search_is_deterministic(self):
        masks = []
        for _ in range(2):
            net = build_net()
            train, _, _ = build_data()
            P.run_search(net, train, hybrid_scorer_for(net), P.default_budget(net),
                         2, 2, True, lr=1e-3, batch_size=20, seed=3)
            masks.append(net.mask)
        assert masks[0] == masks[1]

    def test_non_finite_score_names_the_round_and_the_seed(self, monkeypatch):
        collect_stats = C.collect_stats
        rounds = []

        def nan_weight_in_round_two(*args):
            stats, losses = collect_stats(*args)
            rounds.append(stats)
            if len(rounds) == 2:
                stats[min(stats, key=S.PeftModuleId.sort_key)].weights[0] = np.nan
            return stats, losses

        monkeypatch.setattr(C, "collect_stats", nan_weight_in_round_two)
        net = build_net()
        train, _, _ = build_data()
        with pytest.raises(FloatingPointError,
                           match="prune round 2, seed 4: non-finite unimportance for L"):
            search(net, P.default_budget(net), k=1, seed=4, data=train)

    def test_zero_round_schedule_prunes_nothing(self, monkeypatch):
        net = build_net()
        train, _, _ = build_data()
        drawn = count_batches(monkeypatch)
        assert search(net, S.trainable_param_count(net), k=1, data=train) == ([], [])
        assert net.mask.num_active() == len(net.mask)
        assert drawn == []


class TestRetrainAndEvaluate:
    def test_evaluate_returns_percent(self):
        net = build_net()
        _, _, test = build_data()
        acc = P.evaluate(net, test)
        assert 0.0 <= acc <= 100.0
        assert acc == pytest.approx(
            100.0 * (net.predict(test.tokens) == test.labels).mean())

    def test_retrain_reports_curve_and_accuracies(self):
        net = build_net()
        train, _, test = build_data()
        metrics = P.retrain(net, train, epochs=2, lr=1e-3, batch_size=20, seed=0,
                            eval_data=test)
        assert len(metrics["loss_curve"]) == 2
        assert 0 <= metrics["train_accuracy"] <= 100
        assert 0 <= metrics["accuracy"] <= 100

    def test_retrain_respects_the_mask(self):
        # retrain leaves the mask as it is and never touches an inactive module
        net = build_net()
        train, _, _ = build_data()
        off = S.PeftModuleId(1, "SA")
        net.mask.deactivate(off)
        mask = net.mask.copy()
        before = net.modules[off].flat_weights()
        P.retrain(net, train, epochs=1, lr=1e-3, batch_size=20, seed=0)
        assert net.mask == mask
        assert net.modules[off].flat_weights().tobytes() == before.tobytes()

    def test_retrain_is_deterministic(self):
        curves = []
        for _ in range(2):
            net = build_net()
            train, _, _ = build_data()
            m = P.retrain(net, train, 2, 1e-3, 20, seed=5)
            curves.append(m["loss_curve"])
        assert curves[0] == curves[1]


class TestCostBound:
    def test_worst_case_epochs_for_one_adapter_pair(self):
        assert P.search_cost_bound(1, 1, 24, 4, 1.0) == pytest.approx(6.0)

    def test_scales_with_epoch_time_and_k(self):
        assert P.search_cost_bound(1, 1, 24, 8, 2.0) == pytest.approx(6.0)
        assert P.search_cost_bound(2, 3, 10, 5, 1.0) == pytest.approx(12.0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            P.search_cost_bound(0, 1, 24, 4, 1.0)
        with pytest.raises(ValueError):
            P.search_cost_bound(1, 1, 24, 4, 0.0)
