"""Iterative pruning loop: train, score, remove top-k, reinitialize.

Rounds repeat until the trainable-parameter budget is met, then the
surviving configuration is retrained from fresh adapter initialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import criteria as C
from . import supernet as S
from .supernet import Supernet, trainable_param_count
from .strategy import ProbabilityVector
from .tasks import Batcher, Dataset
from .tensor import Adam, backward, softmax_cross_entropy


@dataclass
class PruneRecord:
    round_index: int
    pruned: list
    probabilities: ProbabilityVector
    param_count_after: int
    criterion_by_module: dict = field(default_factory=dict)


def default_k(supernet: Supernet) -> int:
    return -(-supernet.mask.num_active() // 12)


def default_budget(supernet: Supernet) -> int:
    """Budget reached by removing the num_layers smallest modules.

    Keeps the worst-case round count at num_layers / k, matching the
    search-cost bound.
    """
    sizes = sorted(supernet.module_size(m) for m in supernet.mask.active_ids())
    return trainable_param_count(supernet) - sum(sizes[: supernet.config.num_layers])


def select_top_k(pv: ProbabilityVector, k: int):
    """The k highest-probability modules, ties broken by (layer, kind)."""
    return C.top_k(pv.ids, pv.p, k)


def prune_round(supernet: Supernet, scorer, batches, k: int, steps: int,
                optimizer: Adam, rng, round_index: int) -> PruneRecord:
    """Train, score, deactivate the top-k. Reinitialization is the caller's
    job because terminality is only known after the round."""
    stats, _ = C.collect_stats(supernet, batches, steps, optimizer)
    pv, crit_map = scorer(stats, rng)
    pruned = select_top_k(pv, k)
    for mid in pruned:
        supernet.mask.deactivate(mid)
    return PruneRecord(
        round_index=round_index,
        pruned=pruned,
        probabilities=pv,
        param_count_after=trainable_param_count(supernet),
        criterion_by_module={mid: crit_map.get(mid, "") for mid in pruned},
    )


def run_search(supernet: Supernet, data: Dataset, scorer, budget: int, k: int,
               steps: int | None, reinit_survivors: bool, lr: float, batch_size: int,
               seed: int):
    """Prune up to ``k`` modules a round until at most ``budget`` parameters
    stay trainable, training ``steps`` batches of ``data`` every round
    (None: one pass over ``data``).

    With every module removed only the classifier head trains, so any
    budget of at least the head size is reached. Leaves the final
    configuration in ``supernet.mask``. Returns (PruneRecords, the number
    of examples each round drew).
    """
    head = supernet.config.head_param_count()
    if budget < head:
        raise ValueError(
            f"budget {budget} below classifier head size {head}; minimum achievable"
            f" trainable count is {head}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ss = np.random.SeedSequence([int(seed), 0x5EA2])
    shuffle_rng, score_rng, reinit_rng = [np.random.default_rng(c) for c in ss.spawn(3)]
    batcher = Batcher(data, batch_size, shuffle_rng)
    if steps is None:
        steps = batcher.steps_per_epoch()
    records = []
    served = []
    while trainable_param_count(supernet) > budget:
        if records and reinit_survivors:
            for mid in supernet.mask.active_ids():
                S.reinitialize(supernet.modules[mid], reinit_rng)
        # every round starts Adam afresh on the surviving parameter set
        optimizer = Adam(supernet.trainable_params(), lr=lr)
        i = len(records) + 1
        before = batcher.served
        try:
            record = prune_round(supernet, scorer, batcher, k, steps, optimizer,
                                 score_rng, i)
        except FloatingPointError as exc:
            raise FloatingPointError(f"prune round {i}, seed {seed}: {exc}") from None
        records.append(record)
        served.append(batcher.served - before)
    return records, served


def evaluate(supernet: Supernet, dataset: Dataset, batch_size: int = 64) -> float:
    """Accuracy in percent."""
    correct = 0
    for lo in range(0, len(dataset), batch_size):
        tokens = dataset.tokens[lo: lo + batch_size]
        labels = dataset.labels[lo: lo + batch_size]
        correct += int((supernet.predict(tokens) == labels).sum())
    return 100.0 * correct / len(dataset)


def retrain(supernet: Supernet, train_data: Dataset, epochs: int, lr: float,
            batch_size: int, seed: int, eval_data: Dataset | None = None):
    """Fresh-start training of the configuration in ``supernet.mask``."""
    ss = np.random.SeedSequence([int(seed), 0x2E7A])
    reinit_rng, head_rng, shuffle_rng = [np.random.default_rng(c) for c in ss.spawn(3)]
    for mid in supernet.mask.active_ids():
        S.reinitialize(supernet.modules[mid], reinit_rng)
    S.init_head(supernet, head_rng)
    params = supernet.trainable_params()
    optimizer = Adam(params, lr=lr)
    batcher = Batcher(train_data, batch_size, shuffle_rng)
    steps = batcher.steps_per_epoch()
    loss_curve = []
    for epoch in range(1, epochs + 1):
        epoch_loss = 0.0
        for _ in range(steps):
            tokens, labels = next(batcher)
            loss = softmax_cross_entropy(supernet.forward(tokens)[0], labels)
            if not math.isfinite(loss.data):
                raise FloatingPointError(f"retrain, seed {seed}: non-finite loss"
                                         f" {float(loss.data)} in epoch {epoch}")
            backward(loss, params=params)
            optimizer.step()
            epoch_loss += float(loss.data)
        loss_curve.append(epoch_loss / steps)
    metrics = {
        "loss_curve": loss_curve,
        "train_accuracy": evaluate(supernet, train_data),
    }
    if eval_data is not None:
        metrics["accuracy"] = evaluate(supernet, eval_data)
    return metrics


def search_cost_bound(n_pa: int, n_sa: int, num_layers: int, k: int,
                      t_epoch: float) -> float:
    """Worst-case search overhead: (N_PA * N_SA) * (|H| / k) * t."""
    if min(n_pa, n_sa, num_layers, k) < 1 or t_epoch <= 0:
        raise ValueError("all cost-bound arguments must be positive")
    return (n_pa * n_sa) * (num_layers / k) * t_epoch
