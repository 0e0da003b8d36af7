"""Deterministic synthetic classification tasks and dataset utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATORS = ("token-majority", "pattern-presence", "position-sensitive-parity")


@dataclass(frozen=True)
class SyntheticTaskSpec:
    name: str
    vocab_size: int
    seq_len: int
    num_classes: int
    generator: str
    train_size: int
    val_size: int
    test_size: int
    seed: int

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.seq_len < 2 or min(self.train_size, self.val_size, self.test_size) < 1:
            raise ValueError("degenerate task sizes")
        if self.generator == "token-majority":
            if self.vocab_size < self.num_classes:
                raise ValueError("token-majority needs vocab_size >= num_classes")
        else:
            if self.num_classes != 2:
                raise ValueError(f"{self.generator} is a binary task")
            minimum = 4 if self.generator == "pattern-presence" else 2
            if self.vocab_size < minimum:
                raise ValueError(f"{self.generator} needs vocab_size >= {minimum}")


@dataclass
class Dataset:
    tokens: np.ndarray  # (n, seq_len) int
    labels: np.ndarray  # (n,) int

    def __len__(self):
        return len(self.labels)

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels disagree in length")


def _balanced_labels(n: int, num_classes: int) -> np.ndarray:
    # class c gets n // C, first n % C classes one extra
    counts = [n // num_classes + (1 if c < n % num_classes else 0)
              for c in range(num_classes)]
    labels = np.concatenate([np.full(cnt, c, dtype=int) for cnt, c in
                             zip(counts, range(num_classes))])
    return labels


def _gen_token_majority(spec, label, rng):
    groups = np.array_split(np.arange(spec.vocab_size), spec.num_classes)
    seq = rng.integers(0, spec.vocab_size, spec.seq_len)
    # force a strict majority of tokens from the target class group
    m = spec.seq_len // 2 + 1
    positions = rng.choice(spec.seq_len, size=m, replace=False)
    seq[positions] = rng.choice(groups[label], size=m)
    return seq


_PATTERN_OFFSET = 2  # bigram (vocab-2, vocab-1) marks the positive class


def _has_pattern(seq, a, b):
    return any(seq[i] == a and seq[i + 1] == b for i in range(len(seq) - 1))


def _gen_pattern_presence(spec, label, rng):
    a, b = spec.vocab_size - _PATTERN_OFFSET, spec.vocab_size - 1
    seq = rng.integers(0, spec.vocab_size, spec.seq_len)
    if label == 1:
        pos = rng.integers(0, spec.seq_len - 1)
        seq[pos], seq[pos + 1] = a, b
    else:
        while _has_pattern(seq, a, b):
            i = next(i for i in range(len(seq) - 1) if seq[i] == a and seq[i + 1] == b)
            seq[i + 1] = rng.integers(0, spec.vocab_size - 1)
    return seq


def _gen_parity(spec, label, rng):
    # label = parity of the count of high tokens at even positions
    high = spec.vocab_size // 2
    seq = rng.integers(0, spec.vocab_size, spec.seq_len)
    even = np.arange(0, spec.seq_len, 2)
    parity = int((seq[even] >= high).sum() % 2)
    if parity != label:
        flip = even[rng.integers(0, len(even))]
        if seq[flip] >= high:
            seq[flip] = rng.integers(0, high)
        else:
            seq[flip] = rng.integers(high, spec.vocab_size)
    return seq


_GEN_FN = {
    "token-majority": _gen_token_majority,
    "pattern-presence": _gen_pattern_presence,
    "position-sensitive-parity": _gen_parity,
}


def generate_task(spec: SyntheticTaskSpec):
    """Train/val/test datasets: deterministic, disjoint, label-balanced."""
    gen = _GEN_FN[spec.generator]
    seen = set()
    out = []
    for si, n in enumerate((spec.train_size, spec.val_size, spec.test_size)):
        rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), si]))
        labels = _balanced_labels(n, spec.num_classes)
        tokens = np.empty((n, spec.seq_len), dtype=int)
        for i, label in enumerate(labels):
            for _ in range(1000):
                seq = gen(spec, int(label), rng)
                key = tuple(seq)
                if key not in seen:
                    seen.add(key)
                    tokens[i] = seq
                    break
            else:
                raise ValueError("could not generate enough distinct sequences")
        out.append(Dataset(tokens=tokens, labels=labels))
    return tuple(out)


def stratified_trim(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Per-label subsample of round(fraction * count) examples, no replacement."""
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7217]))
    keep = []
    for label in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == label)
        m = int(round(fraction * len(idx)))
        if m == 0:
            raise ValueError(
                f"fraction {fraction} leaves class {label} empty ({len(idx)} examples)")
        keep.append(rng.choice(idx, size=m, replace=False))
    keep = np.sort(np.concatenate(keep))
    return Dataset(tokens=dataset.tokens[keep].copy(),
                   labels=dataset.labels[keep].copy())


class Batcher:
    """Cycling minibatch iterator with a fresh shuffle each epoch.

    The last batch of an epoch is short when the batch size does not
    divide the dataset; ``served`` counts the examples handed out so far.
    """

    def __init__(self, dataset: Dataset, batch_size: int, rng):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.rng = rng
        self._order = None
        self._pos = 0
        self.served = 0

    def steps_per_epoch(self) -> int:
        return -(-len(self.dataset) // self.batch_size)

    def __iter__(self):
        return self

    def __next__(self):
        if self._order is None or self._pos >= len(self._order):
            self._order = self.rng.permutation(len(self.dataset))
            self._pos = 0
        idx = self._order[self._pos: self._pos + self.batch_size]
        self._pos += self.batch_size
        self.served += len(idx)
        return self.dataset.tokens[idx], self.dataset.labels[idx]
