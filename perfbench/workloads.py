"""Workload definitions: every config and architecture document the
benchmark feeds to the ``peftsearch`` CLI, generated from a workload seed.

The seed changes what the program sees (task data, backbone and adapter
draws, which modules an imported architecture keeps) but never how much
work a run does: sizes, epochs, round counts and the number of active
modules are fixed per workload, so run-to-run spread measures the program
and the host, not the inputs.
"""

from __future__ import annotations

import random

# The net and task of configs/demo.json, copied here so that an edit to the
# repository's demo config cannot silently change the benchmark.
DEMO_TASK = {
    "name": "demo", "vocab_size": 24, "seq_len": 8, "num_classes": 2,
    "generator": "token-majority",
    "train_size": 240, "val_size": 48, "test_size": 120,
}
DEMO_NET = {
    "num_layers": 24, "d_model": 64, "num_heads": 4, "d_ff": 64,
    "sa_bottleneck": 8, "pa_rank": 4,
    "vocab_size": 24, "num_classes": 2, "max_seq_len": 8,
}

# search-churn keeps the demo net but gives the parallel adapter the serial
# adapter's width, so every module has the same size and a budget of
# "remove CHURN_ROUNDS modules" takes exactly CHURN_ROUNDS rounds at k=1.
CHURN_ROUNDS = 15
CHURN_NET = dict(DEMO_NET, pa_rank=8)

WIDE_NET = {
    "num_layers": 8, "d_model": 128, "num_heads": 4, "d_ff": 512,
    "sa_bottleneck": 16, "pa_rank": 8,
    "vocab_size": 32, "num_classes": 2, "max_seq_len": 16,
}

WORKLOADS = ("demo-multiseed", "search-churn", "arch-wide-eval")


def module_size(net: dict, kind: str) -> int:
    width = net["sa_bottleneck"] if kind == "SA" else net["pa_rank"]
    return 2 * net["d_model"] * width


def head_size(net: dict) -> int:
    return net["d_model"] * net["num_classes"] + net["num_classes"]


def full_count(net: dict) -> int:
    """Trainable parameters with every adapter active."""
    per_layer = module_size(net, "SA") + module_size(net, "PA")
    return head_size(net) + net["num_layers"] * per_layer


def default_budget(net: dict) -> int:
    """The documented default: remove the num_layers smallest modules."""
    smallest = min(module_size(net, "SA"), module_size(net, "PA"))
    return full_count(net) - net["num_layers"] * smallest


def _seeds(rng: random.Random, n: int):
    return sorted(rng.sample(range(1, 1_000_000), n))


def make(name: str, seed: int) -> dict:
    """The workload's inputs for one workload seed.

    Returns {"command": CLI subcommand, "config": config document,
    "arch": architecture document or None, "budget": trainable-parameter
    budget, "k": modules pruned per round or None, "rounds": exact
    prune-round count or None, "search_share": the most search examples
    may be as a share of retrain examples, or None}.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    rng = random.Random(f"{name}/{seed}")
    task_seed = rng.randrange(1, 1_000_000)
    if name == "demo-multiseed":
        net = DEMO_NET
        config = {
            "task": dict(DEMO_TASK, seed=task_seed),
            "supernet": net,
            "mode": "hybrid",
            "seeds": _seeds(rng, 3),
            "schedule": {"steps_per_round": 2},
            "warmup": {"rounds": 3, "trim_fraction": 0.1},
            "training": {"retrain_epochs": 8, "lr": 0.001, "batch_size": 40},
        }
        return {"command": "run", "config": config, "arch": None,
                "budget": default_budget(net),
                "k": -(-2 * net["num_layers"] // 12), "rounds": None,
                "search_share": 0.5}
    if name == "search-churn":
        net = CHURN_NET
        budget = full_count(net) - CHURN_ROUNDS * module_size(net, "SA")
        config = {
            "task": dict(DEMO_TASK, name="churn", train_size=480, test_size=480,
                         seed=task_seed),
            "supernet": net,
            "mode": "hybrid",
            "seeds": _seeds(rng, 1),
            "schedule": {"k": 1, "budget": budget, "steps_per_round": 6},
            "warmup": {"rounds": 3, "trim_fraction": 0.1},
            "training": {"retrain_epochs": 2, "lr": 0.001, "batch_size": 40},
        }
        return {"command": "run", "config": config, "arch": None,
                "budget": budget, "k": 1, "rounds": CHURN_ROUNDS, "search_share": None}
    net = WIDE_NET
    config = {
        "task": {"name": "wide", "vocab_size": 32, "seq_len": 16, "num_classes": 2,
                 "generator": "token-majority", "train_size": 320,
                 "val_size": 64, "test_size": 1920, "seed": task_seed},
        "supernet": net,
        "mode": "hybrid",
        "seeds": _seeds(rng, 1),
        "training": {"retrain_epochs": 6, "lr": 0.001, "batch_size": 80},
    }
    # Exactly half of each kind stays active, so the work is seed-independent.
    layers = range(net["num_layers"])
    keep = {kind: set(rng.sample(layers, net["num_layers"] // 2)) for kind in ("SA", "PA")}
    arch = {
        "config": dict(net, pa_linear=False, activation="gelu"),
        "modules": [{"layer": layer, "kind": kind, "active": layer in keep[kind]}
                    for layer in layers for kind in ("SA", "PA")],
    }
    return {"command": "import-arch", "config": config, "arch": arch,
            "budget": default_budget(net), "k": None, "rounds": 0, "search_share": None}
