"""Module scoring: six pruning criteria over weights, activations, gradients.

Each criterion produces a raw metric per adapter module, which is then
oriented into an unimportance score (larger = more prunable) and ranked
within its scoring group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .supernet import PeftModuleId, Supernet
from .tensor import Adam, backward, softmax_cross_entropy

WEIGHT = "weight"
ZEROS = "zeros"
THRESHOLD = "threshold"
ACTIVATION = "activation"
SENSITIVITY = "sensitivity"
GRADIENT = "gradient"

# Fixed tie-break order for criteria.
CRITERIA_ORDER = (WEIGHT, ZEROS, THRESHOLD, ACTIVATION, SENSITIVITY, GRADIENT)

_THRESHOLD_SCALE = 0.01  # t = 0.01 * median |w| over the scoring group
_THRESHOLD_FLOOR = 1e-12


@dataclass(frozen=True)
class Criterion:
    tag: str
    threshold: float | None = None  # only meaningful for the threshold criterion

    def __post_init__(self):
        if self.tag not in CRITERIA_ORDER:
            raise ValueError(f"unknown criterion tag {self.tag!r}")
        if self.threshold is not None and not 0 < self.threshold < math.inf:
            raise ValueError("threshold parameter must be positive and finite")


@dataclass
class ModuleStats:
    """Accumulated statistics for one adapter over a scoring window."""

    weights: np.ndarray          # snapshot after the final step
    grad_abs: np.ndarray         # sum over steps of |dL/dw|
    weight_grad_abs: np.ndarray  # sum over steps of |w * dL/dw|
    activation_abs_sum: float    # sum of |output element| over all batches
    activation_count: int
    num_batches: int

    def __post_init__(self):
        if self.grad_abs.shape != self.weights.shape:
            raise ValueError("gradient accumulator misaligned with weights")
        if self.weight_grad_abs.shape != self.weights.shape:
            raise ValueError("sensitivity accumulator misaligned with weights")
        if self.num_batches < 1:
            raise ValueError("stats require at least one observed batch")


@dataclass
class ScoreVector:
    ids: list
    unimportance: np.ndarray
    ranks: np.ndarray  # 1-based, ascending unimportance; ties by (layer, kind)


def collect_stats(supernet: Supernet, batches, steps: int, optimizer: Adam):
    """Train ``steps`` optimizer steps, accumulating per-module statistics.

    ``batches`` yields (tokens, labels). Returns (stats map, loss list).
    Raises FloatingPointError at the first non-finite loss.
    """
    if steps <= 0:
        raise ValueError("stats collection needs at least one step")
    active = supernet.mask.active_ids()
    acc_g = {mid: np.zeros(supernet.module_size(mid)) for mid in active}
    acc_wg = {mid: np.zeros(supernet.module_size(mid)) for mid in active}
    act_sum = {mid: 0.0 for mid in active}
    act_n = {mid: 0 for mid in active}
    losses = []
    params = optimizer.params
    for step in range(1, steps + 1):
        tokens, labels = next(batches)
        logits, terms = supernet.forward(tokens)
        loss = softmax_cross_entropy(logits, labels)
        if not math.isfinite(loss.data):
            raise FloatingPointError(f"non-finite loss {float(loss.data)} at step {step}")
        backward(loss, params=params)
        for mid in active:
            mod = supernet.modules[mid]
            w = mod.flat_weights()
            g = mod.flat_grads()
            acc_g[mid] += np.abs(g)
            acc_wg[mid] += np.abs(w * g)
            act_sum[mid] += float(np.abs(terms[mid]).sum())
            act_n[mid] += terms[mid].size
        optimizer.step()
        losses.append(float(loss.data))
    stats = {}
    for mid in active:
        stats[mid] = ModuleStats(
            weights=supernet.modules[mid].flat_weights(),
            grad_abs=acc_g[mid],
            weight_grad_abs=acc_wg[mid],
            activation_abs_sum=act_sum[mid],
            activation_count=act_n[mid],
            num_batches=steps,
        )
    return stats, losses


def resolve_threshold(criterion: Criterion, stats_group) -> Criterion:
    """Fill in the relative threshold t from the group's weight scale."""
    if criterion.tag != THRESHOLD or criterion.threshold is not None:
        return criterion
    allw = np.concatenate([s.weights for s in stats_group]) if stats_group else np.zeros(1)
    t = _THRESHOLD_SCALE * float(np.median(np.abs(allw)))
    return replace(criterion, threshold=max(t, _THRESHOLD_FLOOR))


def raw_score(criterion: Criterion, stats: ModuleStats) -> float:
    w = stats.weights
    tag = criterion.tag
    if tag == WEIGHT:
        return float(np.mean(w**2))
    if tag == ZEROS:
        return float(np.mean(w != 0))
    if tag == THRESHOLD:
        if criterion.threshold is None:
            raise ValueError("threshold criterion needs a resolved t")
        return float(np.mean(np.abs(w) < criterion.threshold))
    if tag == ACTIVATION:
        if stats.activation_count == 0:
            return 0.0
        return stats.activation_abs_sum / stats.activation_count
    if tag == SENSITIVITY:
        return float(np.mean(stats.weight_grad_abs / stats.num_batches))
    if tag == GRADIENT:
        return float(np.mean(stats.grad_abs / stats.num_batches))
    raise ValueError(f"unknown criterion tag {tag!r}")


def unimportance(criterion: Criterion, theta: float) -> float:
    """Orient the raw metric so that larger always means more prunable."""
    if criterion.tag == THRESHOLD:
        return theta
    return -theta


def rank_modules(group) -> ScoreVector:
    """Rank (id, unimportance) pairs: rank 1 least prunable, rank n most.

    Ties break by (layer, kind) so ranking is a deterministic permutation
    of 1..n.
    """
    group = list(group)
    if not group:
        raise ValueError("cannot rank an empty module group")
    ids = [entry[0] for entry in group]
    u = np.array([float(entry[1]) for entry in group])
    order = sorted(range(len(ids)), key=lambda i: (u[i], ids[i].sort_key()))
    ranks = np.empty(len(ids), dtype=int)
    for pos, i in enumerate(order):
        ranks[i] = pos + 1
    return ScoreVector(ids=ids, unimportance=u, ranks=ranks)


def score_group(criterion: Criterion, stats_map, ids) -> ScoreVector:
    """Raw scores, unimportance and ranks for one scoring group."""
    ids = sorted(ids, key=PeftModuleId.sort_key)
    crit = resolve_threshold(criterion, [stats_map[m] for m in ids])
    return rank_modules((mid, unimportance(crit, raw_score(crit, stats_map[mid])))
                        for mid in ids)


def top_k(ids, scores, k: int):
    """The k ids with the highest scores, ties broken by (layer, kind)."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i].sort_key()))
    return [ids[i] for i in order[:k]]


def hypothetical_top_k(criterion: Criterion, stats_map, ids, k: int):
    """The k most prunable modules under one criterion; no pruning applied."""
    sv = score_group(criterion, stats_map, ids)
    return top_k(sv.ids, sv.unimportance, k)
