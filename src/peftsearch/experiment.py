"""Experiment orchestration: config parsing, modes, transfer, reports.

A run maps (config, seeds) deterministically to a report directory with
figure-ready CSVs and JSON summaries. Ablation modes swap out the
scoring step while consuming the same search-epoch budget as the hybrid
mode.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, replace

from . import criteria as C
from . import pruner as P
from . import strategy as ST
from . import supernet as S
from . import tasks as TK

MODES = ("hybrid", "random-prune", "no-partition", "no-prune")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    task: TK.SyntheticTaskSpec
    net: S.SupernetConfig
    mode: str = "hybrid"
    seeds: tuple = (0,)
    budget: int | None = None
    k: int | None = None
    steps_per_round: int | None = None
    fidelity: str = "full"
    reinit_survivors: bool = True
    warmup_rounds: int = 3
    trim_fraction: float = 0.1
    low_fidelity_fraction: float = 0.01
    retrain_epochs: int = 20
    lr: float = 1e-3
    batch_size: int = 20
    report_dir: str | None = None
    strategy_doc: dict | None = None
    architecture_doc: dict | None = None

    def __post_init__(self):
        if not (self.mode in MODES or self.mode.startswith("single:")):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode.startswith("single:"):
            tag = self.mode.split(":", 1)[1]
            if tag not in C.CRITERIA_ORDER:
                raise ConfigError(f"unknown criterion {tag!r} in mode {self.mode!r}")
        if self.fidelity not in ("full", "low"):
            raise ConfigError(f"fidelity must be 'full' or 'low', got {self.fidelity!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.warmup_rounds < 1:
            raise ConfigError("warmup_rounds must be >= 1")
        if not (0 < self.trim_fraction <= 1) or not (0 < self.low_fidelity_fraction <= 1):
            raise ConfigError("trim fractions must lie in (0, 1]")
        if self.retrain_epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ConfigError("invalid training parameters")
        head = self.net.head_param_count()
        for key, minimum in (("k", 1), ("steps_per_round", 1), ("budget", head)):
            value = getattr(self, key)
            # bool is an int subclass; type() keeps true and 1.0 out
            if value is not None and (type(value) is not int or value < minimum):
                raise ConfigError(f"schedule.{key} must be null or an integer >= {minimum},"
                                  f" got {value!r}")


# ---------------------------------------------------------------------------
# config files


# Where each ExperimentConfig field sits in a config document:
# section ("" is the top level) -> {document key: field}. Defaults live
# only in ExperimentConfig; a document may leave out any key but task and
# supernet.
_LAYOUT = {
    "": {"task": "task", "supernet": "net", "mode": "mode", "seeds": "seeds",
         "low_fidelity_fraction": "low_fidelity_fraction", "report_dir": "report_dir"},
    "schedule": {"budget": "budget", "k": "k", "steps_per_round": "steps_per_round",
                 "fidelity": "fidelity", "reinit_survivors": "reinit_survivors"},
    "warmup": {"rounds": "warmup_rounds", "trim_fraction": "trim_fraction"},
    "training": {"retrain_epochs": "retrain_epochs", "lr": "lr", "batch_size": "batch_size"},
}


def config_to_dict(config: ExperimentConfig) -> dict:
    doc = {}
    for section, keys in _LAYOUT.items():
        values = doc.setdefault(section, {}) if section else doc
        for key, name in keys.items():
            values[key] = getattr(config, name)
    doc["task"] = asdict(config.task)
    doc["supernet"] = asdict(config.net)
    doc["seeds"] = list(config.seeds)
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse a config document; unknown keys and non-integer seeds are errors."""
    fields = {}
    for section, keys in _LAYOUT.items():
        # the top level ("") is checked first, so doc is a mapping below it
        values = doc.get(section, {}) if section else doc
        where = section or "config"
        if not isinstance(values, dict):
            raise ConfigError(f"{where} must be a mapping")
        allowed = set(keys) if section else set(keys) | set(_LAYOUT)
        unknown = sorted(set(values) - allowed)
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown} in {where}")
        fields.update((name, values[key]) for key, name in keys.items() if key in values)
    for name, key, cls in (("task", "task", TK.SyntheticTaskSpec),
                           ("net", "supernet", S.SupernetConfig)):
        if name not in fields:
            raise ConfigError(f"missing key {key!r} in config")
        try:
            fields[name] = cls(**fields[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {key} section: {exc}") from exc
    if "seeds" in fields:
        seeds = fields["seeds"]
        if not isinstance(seeds, list) or any(type(s) is not int for s in seeds):
            raise ConfigError(f"seeds must be a list of integers, got {seeds!r}")
        fields["seeds"] = tuple(seeds)
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# running


def _architecture_mask(doc: dict, net: S.SupernetConfig) -> S.MaskState:
    """The mask an architecture document prescribes for ``net``.

    The document's supernet section must equal ``net`` field by field.
    """
    arch_cfg, flags = S.architecture_from_doc(doc)
    theirs, mine = asdict(arch_cfg), asdict(net)
    diff = [f"{key} {theirs[key]!r} in the document, {mine[key]!r} in the config"
            for key in mine if theirs[key] != mine[key]]
    if diff:
        raise ConfigError("architecture document does not fit the config's supernet: "
                          + "; ".join(diff))
    return S.MaskState(flags.keys(), flags)


def _strategy_partitions(doc: dict, num_layers: int):
    """The strategy of a strategy document. Its partitions must be numbered
    1..n and tile [0, num_layers) in order."""
    strategy = ST.strategy_from_doc(doc)
    partitions = [p for p, _ in strategy]
    # each partition starts where the one before it ends; the last ends at num_layers
    edges = [0] + [p.hi for p in partitions]
    numbered = [p.index for p in partitions] == list(range(1, len(partitions) + 1))
    tiled = ([p.lo for p in partitions] == edges[:-1] and edges[-1] == num_layers
             and all(lo < hi for lo, hi in zip(edges, edges[1:])))
    if not (numbered and tiled):
        found = ", ".join(f"{p.index}: [{p.lo}, {p.hi})" for p in partitions)
        raise ConfigError(f"strategy partitions ({found}) must be numbered 1..n and"
                          f" tile the layers [0, {num_layers}) in order")
    return strategy


def _mode_strategy(mode: str, table: ST.TendencyTable, partitions, num_layers: int):
    """The strategy that ``mode`` derives from the warm-up table, or None for
    random-prune, whose warm-up runs for epoch parity."""
    if mode == "hybrid":
        return ST.assign_strategies(table, partitions)
    if mode == "no-partition":
        return [(ST.Partition(1, 0, num_layers), ST.global_best_criterion(table))]
    if mode.startswith("single:"):
        crit = C.Criterion(mode.split(":", 1)[1])
        return [(p, crit) for p in partitions]
    return None


def _search(config: ExperimentConfig, seed: int, net: S.Supernet, train: TK.Dataset,
            result: dict):
    """Warm-up (unless a strategy was imported) and prune rounds, leaving the
    result in ``net.mask``; fills in records, epochs, strategy and tendency."""
    k = config.k if config.k is not None else P.default_k(net)
    warmup_epochs = 0.0
    if config.strategy_doc is not None:
        strategy = _strategy_partitions(config.strategy_doc, config.net.num_layers)
    else:
        d_warm = TK.stratified_trim(train, config.trim_fraction, seed)
        partitions = ST.partition_layers(config.net.num_layers)
        table = ST.warmup(net, d_warm, C.default_criteria(), config.warmup_rounds, k,
                          partitions, config.lr, config.batch_size, seed)
        # each warm-up round is one pass over d_warm
        warmup_epochs = config.warmup_rounds * len(d_warm) / len(train)
        result["tendency"] = table.to_dict()
        strategy = _mode_strategy(config.mode, table, partitions, config.net.num_layers)

    if config.mode == "random-prune":
        scorer = ST.random_scorer()
    else:
        scorer = ST.hybrid_scorer(strategy)
        result["strategy"] = ST.strategy_to_doc(strategy)

    round_data = (TK.stratified_trim(train, config.low_fidelity_fraction, seed)
                  if config.fidelity == "low" else train)
    budget = config.budget if config.budget is not None else P.default_budget(net)
    records, served = P.run_search(net, round_data, scorer, budget, k,
                                   config.steps_per_round, config.reinit_survivors,
                                   config.lr, config.batch_size, seed)
    result["records"] = [_record_to_dict(r) for r in records]
    # epochs count the examples the batcher served, in training-split units
    prune_epochs = sum((n / len(train) for n in served), 0.0)
    result["epochs"].update(warmup=warmup_epochs, prune=prune_epochs,
                            search_total=warmup_epochs + prune_epochs)


def _run_seed(config: ExperimentConfig, seed: int) -> dict:
    """One seed's report: search (unless imported or no-prune), then retrain."""
    net = S.build_supernet(config.net, seed)
    train, val, test = TK.generate_task(config.task)
    result = {"seed": seed, "records": [], "strategy": None, "tendency": None,
              "epochs": {"warmup": 0.0, "prune": 0.0, "search_total": 0.0,
                         "retrain": float(config.retrain_epochs)}}
    if config.architecture_doc is not None:
        net.apply_mask(_architecture_mask(config.architecture_doc, config.net))
    elif config.mode != "no-prune":
        _search(config, seed, net, train, result)

    metrics = P.retrain(net, train, config.retrain_epochs, config.lr,
                        config.batch_size, seed, eval_data=test)
    metrics["val_accuracy"] = P.evaluate(net, val)
    metrics["trainable_params"] = S.trainable_param_count(net)
    result["metrics"] = metrics
    result["architecture"] = S.architecture_to_doc(net)
    return result


def run_experiment(config: ExperimentConfig) -> dict:
    """The report document: {"config", "mode", "per_seed"}."""
    return {"config": config_to_dict(config), "mode": config.mode,
            "per_seed": [_run_seed(config, int(seed)) for seed in config.seeds]}


# ---------------------------------------------------------------------------
# report serialization


def _record_to_dict(rec: P.PruneRecord) -> dict:
    return {
        "round": rec.round_index,
        "pruned": [{"layer": m.layer, "kind": m.kind,
                    "criterion": rec.criterion_by_module.get(m, "")}
                   for m in rec.pruned],
        "probabilities": [
            {"layer": m.layer, "kind": m.kind, "p": float(p)}
            for m, p in zip(rec.probabilities.ids, rec.probabilities.p)
        ],
        "param_count_after": rec.param_count_after,
    }


def frequency_counts(report_doc: dict) -> dict:
    """(layer, kind, criterion) -> prune count, aggregated over seeds."""
    counts = {}
    for sr in report_doc["per_seed"]:
        for rec in sr["records"]:
            for mod in rec["pruned"]:
                key = (mod["layer"], mod["kind"], mod["criterion"])
                counts[key] = counts.get(key, 0) + 1
    return counts


def epoch_summary(report_doc: dict) -> dict:
    seeds = report_doc["per_seed"]
    n = len(seeds)
    warm = sum(s["epochs"]["warmup"] for s in seeds) / n
    prune = sum(s["epochs"]["prune"] for s in seeds) / n
    retrain = sum(s["epochs"]["retrain"] for s in seeds) / n
    search = warm + prune
    return {
        "warmup_epochs": warm,
        "prune_epochs": prune,
        "search_epochs": search,
        "retrain_epochs": retrain,
        "ratio": search / retrain if retrain else 0.0,
    }


def export_strategy(report_doc: dict) -> dict:
    for sr in report_doc["per_seed"]:
        if sr.get("strategy"):
            return sr["strategy"]
    raise ValueError("report contains no hybrid strategy to export")


def export_architecture(report_doc: dict) -> dict:
    for sr in report_doc["per_seed"]:
        if sr.get("architecture"):
            return sr["architecture"]
    raise ValueError("report contains no architecture to export")


def import_strategy(doc: dict, config: ExperimentConfig) -> ExperimentConfig:
    # random-prune scores at random and no-prune does not search at all
    if config.mode in ("random-prune", "no-prune"):
        raise ConfigError(f"mode {config.mode!r} does not use an imported strategy")
    _strategy_partitions(doc, config.net.num_layers)
    return replace(config, strategy_doc=doc)


def import_architecture(doc: dict, config: ExperimentConfig) -> ExperimentConfig:
    _architecture_mask(doc, config.net)
    return replace(config, architecture_doc=doc)


# ---------------------------------------------------------------------------
# emission


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_reports(report_doc: dict, out_dir: str):
    """Write the report files; emission is a pure function of the report.
    Every file is rendered before the first one is written."""
    files = {}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer", "kind", "criterion", "count"])
    for (layer, kind, criterion), count in sorted(frequency_counts(report_doc).items()):
        writer.writerow([layer, kind, criterion, count])
    files["frequency.csv"] = buf.getvalue()

    rounds = {str(sr["seed"]): sr["records"] for sr in report_doc["per_seed"]}
    files["rounds.json"] = _dump_json(rounds)

    summary = {
        "mode": report_doc["mode"],
        "epochs": epoch_summary(report_doc),
        "per_seed_epochs": {str(sr["seed"]): sr["epochs"]
                            for sr in report_doc["per_seed"]},
        "tendency": {str(sr["seed"]): sr["tendency"]
                     for sr in report_doc["per_seed"] if sr.get("tendency")},
    }
    files["summary.json"] = _dump_json(summary)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "accuracy", "val_accuracy", "train_accuracy",
                     "trainable_params", "final_loss"])
    for sr in report_doc["per_seed"]:
        m = sr["metrics"]
        writer.writerow([sr["seed"], m.get("accuracy"), m.get("val_accuracy"),
                         m.get("train_accuracy"), m.get("trainable_params"),
                         m["loss_curve"][-1]])
    files["metrics.csv"] = buf.getvalue()

    files["report.json"] = _dump_json(report_doc)
    try:
        files["strategy.json"] = _dump_json(export_strategy(report_doc))
    except ValueError:
        pass
    files["architecture.json"] = _dump_json(export_architecture(report_doc))

    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files.items():
            _write(os.path.join(out_dir, name), text)
    except OSError as exc:
        raise OSError(f"report directory {out_dir!r} is not writable: {exc}") from exc
