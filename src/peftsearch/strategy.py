"""Warm-up phase and hybrid scoring.

The model's layers are split into four contiguous blocks. A few rounds of
heuristic training on a trimmed dataset count, for every candidate
criterion, where its hypothetical top-k prunings would land. Each block is
then assigned the criterion whose pruning mass concentrates most on it,
and the per-block assignments drive the pruning-probability softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import criteria as C
from .supernet import KINDS, PeftModuleId, Supernet
from .tasks import Batcher, Dataset
from .tensor import Adam


@dataclass(frozen=True)
class Partition:
    index: int  # 1-based
    lo: int
    hi: int  # half-open [lo, hi)

    def contains(self, layer: int) -> bool:
        return self.lo <= layer < self.hi


@dataclass
class TendencyTable:
    """counts[criterion][partition][kind]: warm-up pruning frequencies."""

    criteria: tuple
    num_partitions: int
    counts: np.ndarray  # (n_criteria, n_partitions, n_kinds) ints

    @classmethod
    def empty(cls, criteria, num_partitions):
        tags = tuple(c.tag for c in criteria)
        return cls(tags, num_partitions,
                   np.zeros((len(tags), num_partitions, len(KINDS)), dtype=int))

    def add(self, tag: str, partition_index: int, kind: str, n: int = 1):
        ci = self.criteria.index(tag)
        self.counts[ci, partition_index - 1, KINDS.index(kind)] += n

    def total(self) -> int:
        return int(self.counts.sum())

    def to_dict(self) -> dict:
        return {
            tag: {
                str(p + 1): {kind: int(self.counts[ci, p, ki])
                             for ki, kind in enumerate(KINDS)}
                for p in range(self.num_partitions)
            }
            for ci, tag in enumerate(self.criteria)
        }


def strategy_to_doc(strategy) -> dict:
    """The document of a strategy: (Partition, Criterion) pairs in partition
    order."""
    entries = []
    for p, crit in strategy:
        entry = {"partition": p.index, "lo": p.lo, "hi": p.hi, "criterion": crit.tag}
        if crit.threshold is not None:
            entry["threshold"] = crit.threshold
        entries.append(entry)
    return {"partitions": entries}


def strategy_from_doc(doc: dict):
    """The (Partition, Criterion) pairs of a strategy document, sorted by
    partition index."""
    strategy = []
    for entry in doc["partitions"]:
        crit = C.Criterion(entry["criterion"], entry.get("threshold"))
        strategy.append((Partition(int(entry["partition"]), int(entry["lo"]),
                                   int(entry["hi"])), crit))
    return sorted(strategy, key=lambda pair: pair[0].index)


@dataclass
class ProbabilityVector:
    ids: list
    p: np.ndarray


def partition_layers(num_layers: int, num_partitions: int = 4):
    """Contiguous blocks covering [0, num_layers); earlier blocks take the
    remainder layer."""
    if num_layers < num_partitions:
        raise ValueError(
            f"need at least {num_partitions} layers to form {num_partitions} partitions,"
            f" got {num_layers}")
    base, rem = divmod(num_layers, num_partitions)
    parts = []
    lo = 0
    for i in range(num_partitions):
        size = base + (1 if i < rem else 0)
        parts.append(Partition(i + 1, lo, lo + size))
        lo += size
    return parts


def partition_of(partitions, layer: int) -> Partition:
    for p in partitions:
        if p.contains(layer):
            return p
    raise ValueError(f"layer {layer} not covered by partitions")


def warmup(supernet: Supernet, data: Dataset, candidates, rounds: int, k: int,
           partitions, lr: float, batch_size: int, seed: int) -> TendencyTable:
    """Heuristic warm-up: train, score, count hypothetical prunings.

    Each round trains one pass over ``data``. No pruning is applied;
    adapter and head weights are restored to their entry state before
    returning.
    """
    if rounds < 1:
        raise ValueError("warm-up needs at least one round")
    table = TendencyTable.empty(candidates, len(partitions))
    snapshot = supernet.snapshot_trainable()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA11]))
    batcher = Batcher(data, batch_size, rng)
    optimizer = Adam(supernet.trainable_params(), lr=lr)
    try:
        for _ in range(rounds):
            try:
                stats, _ = C.collect_stats(supernet, batcher, batcher.steps_per_epoch(),
                                           optimizer)
            except FloatingPointError as exc:
                raise FloatingPointError(f"warm-up, seed {seed}: {exc}") from None
            active = supernet.mask.active_ids()
            for crit in candidates:
                for mid in C.hypothetical_top_k(crit, stats, active, k):
                    table.add(crit.tag, partition_of(partitions, mid.layer).index, mid.kind)
    finally:
        supernet.restore_trainable(snapshot)
    return table


def concentrations(table: TendencyTable) -> np.ndarray:
    """Share of each criterion's pruning mass per partition."""
    if table.total() == 0:
        raise ValueError("tendency table is empty; nothing to assign")
    per_crit = table.counts.sum(axis=2).astype(float)  # (criteria, partitions)
    totals = per_crit.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        conc = np.where(totals > 0, per_crit / totals, 0.0)
    return conc


def _best_criterion(tags, values) -> C.Criterion:
    """The tag with the largest value; ties go to the earlier tag in
    CRITERIA_ORDER."""
    best = max(range(len(tags)),
               key=lambda ci: (values[ci], -C.CRITERIA_ORDER.index(tags[ci])))
    return C.Criterion(tags[best])


def assign_strategies(table: TendencyTable, partitions):
    """Pair each partition with the criterion most concentrated on it."""
    conc = concentrations(table)
    return [(p, _best_criterion(table.criteria, conc[:, p.index - 1])) for p in partitions]


def global_best_criterion(table: TendencyTable) -> C.Criterion:
    """Criterion with the single highest partition concentration anywhere.

    Used by the no-partition ablation: the tendency measurement still uses
    blocks, but one criterion is applied globally.
    """
    return _best_criterion(table.criteria, concentrations(table).max(axis=1))


def _minmax_normalize(u: np.ndarray) -> np.ndarray:
    lo, hi = u.min(), u.max()
    if hi - lo == 0:
        return np.full_like(u, 0.5)
    return (u - lo) / (hi - lo)


def prune_probabilities(entries) -> ProbabilityVector:
    """Softmax of rank-weighted normalized unimportance.

    ``entries``: (module id, normalized unimportance in [0, 1], rank) per
    active module. Rank weights are sigmoid of the z-scored ranks so the
    weighting stays graded for large module counts. Raises
    FloatingPointError, naming the modules, on a non-finite unimportance
    or probability.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("cannot compute pruning probabilities for zero modules")
    ids = [e[0] for e in entries]
    theta_hat = np.array([float(e[1]) for e in entries])
    _require_finite("unimportance", ids, theta_hat)
    ranks = np.array([float(e[2]) for e in entries])
    std = ranks.std()
    z = (ranks - ranks.mean()) / std if std > 0 else np.zeros_like(ranks)
    kw = 1.0 / (1.0 + np.exp(-z))
    logits = kw * theta_hat
    logits = logits - logits.max()
    e = np.exp(logits)
    p = e / e.sum()
    _require_finite("pruning probability", ids, p)
    return ProbabilityVector(ids=ids, p=p)


def _require_finite(what, ids, values):
    bad = [str(mid) for mid, v in zip(ids, values) if not np.isfinite(v)]
    if bad:
        raise FloatingPointError(f"non-finite {what} for {', '.join(bad)}")


def hybrid_score_entries(stats_map, strategy):
    """Per-module (id, normalized unimportance, rank) under the hybrid
    strategy, with normalization and ranking done within each partition."""
    entries = []
    crit_by_module = {}
    for part, crit in strategy:
        ids = [mid for mid in stats_map if part.contains(mid.layer)]
        if not ids:
            continue
        sv = C.score_group(crit, stats_map, ids)
        # checked before normalizing, which spreads one NaN over the partition
        _require_finite("unimportance", sv.ids, sv.unimportance)
        theta_hat = _minmax_normalize(sv.unimportance)
        for i, mid in enumerate(sv.ids):
            entries.append((mid, theta_hat[i], int(sv.ranks[i])))
            crit_by_module[mid] = crit.tag
    entries.sort(key=lambda e: e[0].sort_key())
    return entries, crit_by_module


def hybrid_scorer(strategy):
    """Scorer closure for the pruning loop."""

    def scorer(stats_map, rng):
        entries, crit_by_module = hybrid_score_entries(stats_map, strategy)
        return prune_probabilities(entries), crit_by_module

    return scorer


def random_scorer():
    """Uniformly random pruning: Gumbel-noise scores, so the top-k of the
    recorded probability vector is a uniform random k-subset."""

    def scorer(stats_map, rng):
        ids = sorted(stats_map.keys(), key=PeftModuleId.sort_key)
        noise = rng.gumbel(size=len(ids))
        e = np.exp(noise - noise.max())
        pv = ProbabilityVector(ids=ids, p=e / e.sum())
        return pv, {mid: "random" for mid in ids}

    return scorer
