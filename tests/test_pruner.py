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


class TestScheduleDerivation:
    def test_round_count_for_uniform_modules(self):
        # 24 layers, equal-size adapters: keep 12 of 48 modules, 4 per round
        net = build_net(num_layers=24, sa=4, pa=4)
        size = net.module_size(S.PeftModuleId(0, "SA"))
        budget = S.trainable_param_count(net) - 36 * size
        schedule = P.derive_schedule(budget, net, k=4, steps_per_round=1)
        assert schedule.rounds == 9

    def test_budget_at_or_above_current_count_means_no_rounds(self):
        net = build_net()
        schedule = P.derive_schedule(S.trainable_param_count(net), net, 2, 1)
        assert schedule.rounds == 0

    def test_budget_below_head_size_rejected(self):
        net = build_net()
        with pytest.raises(ValueError, match="head"):
            P.derive_schedule(net.config.head_param_count() - 1, net, 2, 1)

    def test_head_only_budget_schedules_full_removal(self):
        net = build_net()
        schedule = P.derive_schedule(net.config.head_param_count(), net, 2, 1)
        # 8 modules at 2 per round
        assert schedule.rounds == 4

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
        pv = ST.ProbabilityVector(ids=ids, p=np.array([0.1, 0.5, 0.4]))
        assert P.select_top_k(pv, 1) == [ids[1]]

    def test_ties_break_by_module_order(self):
        ids = [S.PeftModuleId(2, "SA"), S.PeftModuleId(0, "PA"),
               S.PeftModuleId(0, "SA")]
        pv = ST.ProbabilityVector(ids=ids, p=np.array([0.4, 0.4, 0.2]))
        assert P.select_top_k(pv, 1) == [S.PeftModuleId(0, "PA")]

    def test_k_larger_than_population_is_clamped(self):
        ids = [S.PeftModuleId(0, "SA")]
        pv = ST.ProbabilityVector(ids=ids, p=np.array([1.0]))
        assert P.select_top_k(pv, 5) == ids


def hybrid_scorer_for(net):
    parts = ST.partition_layers(net.config.num_layers)
    return ST.hybrid_scorer([(p, C.Criterion("weight")) for p in parts])


class TestSearch:
    def test_rounds_shrink_params_and_respect_budget(self):
        net = build_net()
        train, _, _ = build_data()
        budget = P.default_budget(net)
        schedule = P.derive_schedule(budget, net, k=1, steps_per_round=2)
        records, served = P.run_search(net, train, hybrid_scorer_for(net),
                                       schedule, lr=1e-3, batch_size=20, seed=0)
        counts = [r.param_count_after for r in records]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] <= budget
        assert net.mask.num_active() < len(net.mask)
        assert len(served) == len(records) and min(served) > 0

    def test_each_round_removes_argmax_k(self):
        net = build_net()
        train, _, _ = build_data()
        schedule = P.derive_schedule(P.default_budget(net), net, 2, 2)
        records, _ = P.run_search(net, train, hybrid_scorer_for(net),
                                  schedule, lr=1e-3, batch_size=20, seed=0)
        for rec in records:
            assert rec.pruned == P.select_top_k(rec.probabilities, len(rec.pruned))

    def test_search_is_deterministic(self):
        masks = []
        for _ in range(2):
            net = build_net()
            train, _, _ = build_data()
            schedule = P.derive_schedule(P.default_budget(net), net, 2, 2)
            P.run_search(net, train, hybrid_scorer_for(net),
                         schedule, lr=1e-3, batch_size=20, seed=3)
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
        schedule = P.derive_schedule(P.default_budget(net), net, 1, 1)
        with pytest.raises(FloatingPointError,
                           match="prune round 2, seed 4: non-finite unimportance for L"):
            P.run_search(net, train, hybrid_scorer_for(net), schedule,
                         lr=1e-3, batch_size=20, seed=4)

    def test_zero_round_schedule_prunes_nothing(self):
        net = build_net()
        train, _, _ = build_data()
        schedule = P.PruneSchedule(budget=S.trainable_param_count(net), rounds=0,
                                   k=1, steps_per_round=1)
        records, served = P.run_search(net, train, hybrid_scorer_for(net),
                                       schedule, lr=1e-3, batch_size=20, seed=0)
        assert records == []
        assert net.mask.num_active() == len(net.mask)
        assert served == []


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
