import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftsearch import criteria as C
from peftsearch import strategy as ST
from peftsearch import supernet as S
from peftsearch import tasks as TK


class TestPartitions:
    def test_even_split(self):
        parts = ST.partition_layers(24)
        assert [(p.lo, p.hi) for p in parts] == [(0, 6), (6, 12), (12, 18), (18, 24)]

    def test_remainder_goes_to_earlier_blocks(self):
        parts = ST.partition_layers(10)
        assert [p.hi - p.lo for p in parts] == [3, 3, 2, 2]

    def test_indices_are_one_based_and_ordered(self):
        assert [p.index for p in ST.partition_layers(8)] == [1, 2, 3, 4]

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            ST.partition_layers(3)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(4, 64))
    def test_blocks_cover_every_layer_once(self, n):
        parts = ST.partition_layers(n)
        owners = [sum(p.contains(layer) for p in parts) for layer in range(n)]
        assert owners == [1] * n

    def test_partition_of_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            ST.partition_of(ST.partition_layers(8), 8)


def tally(*votes):
    """Warm-up counts from (criterion tag, partition index, kind, n) votes."""
    counts = np.zeros((len(C.CRITERIA_ORDER), 4, len(S.KINDS)), dtype=int)
    for tag, partition, kind, n in votes:
        counts[C.CRITERIA_ORDER.index(tag), partition - 1, S.KINDS.index(kind)] += n
    return counts


class TestTendencyTable:
    def test_add_and_total(self):
        counts = tally(("weight", 1, "SA", 1), ("weight", 1, "SA", 1),
                       ("gradient", 4, "PA", 3))
        assert counts.sum() == 5
        doc = ST.tendency_to_doc(counts)
        assert doc["weight"]["1"]["SA"] == 2
        assert doc["gradient"]["4"]["PA"] == 3
        assert doc["zeros"]["2"]["SA"] == 0

    def test_assign_picks_highest_concentration_per_partition(self):
        # weight concentrates on partition 1, gradient on partition 3
        counts = tally(("weight", 1, "SA", 9), ("weight", 2, "SA", 1),
                       ("gradient", 3, "PA", 8), ("gradient", 2, "PA", 2))
        strategy = ST.assign_strategies(counts, ST.partition_layers(8))
        assert [p.index for p, _ in strategy] == [1, 2, 3, 4]
        assert strategy[0][1].tag == "weight"
        assert strategy[2][1].tag == "gradient"

    def test_assignment_ties_break_by_fixed_criterion_order(self):
        counts = tally(("zeros", 2, "SA", 5), ("sensitivity", 2, "PA", 5))
        strategy = ST.assign_strategies(counts, ST.partition_layers(8))
        # both fully concentrated on partition 2; "zeros" comes first
        assert strategy[1][1].tag == "zeros"

    def test_empty_table_rejected(self):
        counts = tally()
        with pytest.raises(ValueError, match="empty"):
            ST.assign_strategies(counts, ST.partition_layers(8))
        with pytest.raises(ValueError, match="empty"):
            ST.global_best_criterion(counts)

    def test_global_best_uses_peak_concentration(self):
        counts = tally(("weight", 1, "SA", 5), ("weight", 2, "SA", 5),
                       ("activation", 3, "PA", 9), ("activation", 4, "PA", 1))
        assert ST.global_best_criterion(counts).tag == "activation"


class TestStrategyDocs:
    def test_round_trip(self):
        criteria = [C.Criterion("weight"), C.Criterion("threshold", 0.05),
                    C.Criterion("gradient"), C.Criterion("zeros")]
        strategy = list(zip(ST.partition_layers(8), criteria))
        doc = ST.strategy_to_doc(strategy)
        assert ST.strategy_from_doc(doc) == strategy

    @pytest.mark.parametrize("entry", [
        {"criterion": "karma"},
        {"criterion": "threshold", "threshold": float("nan")},
        {"criterion": "threshold", "threshold": float("inf")},
    ], ids=["karma", "nan-threshold", "inf-threshold"])
    def test_doc_rejects_unknown_criterion(self, entry):
        doc = {"partitions": [dict({"partition": 1, "lo": 0, "hi": 4}, **entry)]}
        with pytest.raises(ValueError):
            ST.strategy_from_doc(doc)


class TestPruneProbabilities:
    def _entries(self, theta_hat, ranks):
        ids = [S.PeftModuleId(i, "SA") for i in range(len(theta_hat))]
        return list(zip(ids, theta_hat, ranks))

    def test_probabilities_form_a_distribution(self, rng):
        n = 10
        theta = rng.uniform(size=n)
        p = ST.prune_probabilities(self._entries(theta, rng.permutation(n) + 1))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p > 0)

    def test_dominant_entry_gets_highest_probability(self):
        p = ST.prune_probabilities(self._entries([0.1, 0.2, 1.0], [1, 2, 3]))
        assert p.argmax() == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ST.prune_probabilities([])

    def test_minmax_flattens_constant_scores(self):
        assert np.all(ST._minmax_normalize(np.array([2.0, 2.0, 2.0])) == 0.5)
        np.testing.assert_allclose(
            ST._minmax_normalize(np.array([1.0, 3.0, 5.0])), [0.0, 0.5, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 10_000))
    def test_distribution_contract_holds_for_random_scores(self, n, seed):
        rng = np.random.default_rng(seed)
        p = ST.prune_probabilities(
            self._entries(rng.uniform(size=n), rng.permutation(n) + 1))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p > 0)


class TestScorers:
    def _stats_map(self, num_layers, rng):
        out = {}
        for layer in range(num_layers):
            for kind in S.KINDS:
                w = rng.normal(size=6)
                out[S.PeftModuleId(layer, kind)] = C.ModuleStats(
                    weights=w, grad_abs=np.abs(rng.normal(size=6)),
                    weight_grad_abs=np.abs(w), activation_abs_sum=1.0,
                    activation_count=4, num_batches=1)
        return out

    def test_hybrid_scorer_normalizes_within_partitions(self, rng):
        parts = ST.partition_layers(8)
        strategy = [(p, C.Criterion("weight")) for p in parts]
        stats = self._stats_map(8, rng)
        entries, crit_map = ST.hybrid_score_entries(stats, strategy)
        assert len(entries) == 16
        assert all(0.0 <= e[1] <= 1.0 for e in entries)
        assert set(crit_map.values()) == {"weight"}
        for part in parts:
            ranks = sorted(e[2] for e in entries if part.contains(e[0].layer))
            assert ranks == [1, 2, 3, 4]

    def test_hybrid_scorer_probability_vector_covers_all_modules(self, rng):
        strategy = [(p, C.Criterion("gradient")) for p in ST.partition_layers(8)]
        stats = self._stats_map(8, rng)
        ids, p, _ = ST.hybrid_scorer(strategy)(stats, rng)
        assert sorted(ids, key=S.PeftModuleId.sort_key) == sorted(
            stats, key=S.PeftModuleId.sort_key)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nan_weight_fails_loudly_naming_the_module(self, rng):
        strategy = [(p, C.Criterion("weight")) for p in ST.partition_layers(8)]
        stats = self._stats_map(8, rng)
        stats[S.PeftModuleId(5, "PA")].weights[2] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite unimportance for L5/PA$"):
            ST.hybrid_scorer(strategy)(stats, rng)

    def test_random_scorer_is_seeded_and_valid(self, rng):
        stats = self._stats_map(4, rng)
        _, p1, crit = ST.random_scorer()(stats, np.random.default_rng(5))
        _, p2, _ = ST.random_scorer()(stats, np.random.default_rng(5))
        assert np.array_equal(p1, p2)
        assert p1.sum() == pytest.approx(1.0, abs=1e-9)
        assert set(crit.values()) == {"random"}


class TestWarmup:
    def _build(self):
        cfg = S.SupernetConfig(4, 16, 2, 16, 4, 2, 12, 2, 8)
        net = S.build_supernet(cfg, seed=2)
        task = TK.SyntheticTaskSpec("t", 12, 8, 2, "token-majority", 20, 4, 4, 7)
        train, _, _ = TK.generate_task(task)
        return net, train

    def test_counts_rounds_times_k_per_criterion(self):
        net, train = self._build()
        parts = ST.partition_layers(4)
        counts = ST.warmup(net, train, rounds=1, k=2, partitions=parts, lr=1e-3,
                           batch_size=10, seed=0)
        assert counts.shape == (6, 4, len(S.KINDS))
        assert counts.sum() == 1 * 2 * 6

    @pytest.mark.parametrize("rounds, k", [(1, 1), (2, 3), (3, 8), (2, 20)],
                             ids=["k-1", "k-3", "k-all", "k-above-module-count"])
    def test_each_criterion_votes_rounds_times_min_k_active(self, rounds, k):
        net, train = self._build()
        counts = ST.warmup(net, train, rounds, k, ST.partition_layers(4), 1e-3, 10, 0)
        active = net.mask.num_active()
        assert active == 8
        assert counts.sum(axis=(1, 2)).tolist() == [rounds * min(k, active)] * 6
        if k >= active:
            # every criterion votes every module once a round
            assert (counts == rounds).all()

    def test_weights_restored_bit_identically(self):
        net, train = self._build()
        before = net.snapshot_trainable()
        ST.warmup(net, train, rounds=2, k=1, partitions=ST.partition_layers(4), lr=1e-3,
                  batch_size=10, seed=0)
        after = net.snapshot_trainable()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_warmup_is_deterministic(self):
        net, train = self._build()
        args = (net, train, 1, 2, ST.partition_layers(4), 1e-3, 10, 0)
        assert np.array_equal(ST.warmup(*args), ST.warmup(*args))

    def test_zero_rounds_rejected(self):
        net, train = self._build()
        with pytest.raises(ValueError):
            ST.warmup(net, train, 0, 2, ST.partition_layers(4), 1e-3, 10, 0)
