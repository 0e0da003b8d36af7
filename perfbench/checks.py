"""Output checks for one benchmark command.

Every check compares the program's report files against a figure the
benchmark computes itself (parameter counts from the config's dimensions,
top-k from the recorded probabilities, examples counted at the batcher)
or against a property the method must have. ``check_command`` returns a
list of problems, each prefixed with the name of the check that found it;
an empty list means the command's output is correct.
"""

from __future__ import annotations

import json
import math

import workloads

CHECKS = ("strict-json", "summary", "budget", "param-sum", "count-falls", "top-k",
          "no-return", "probabilities", "imported-mask", "losses", "accuracy",
          "overhead", "rerun")

JSON_FILES = ("report.json", "rounds.json", "summary.json", "architecture.json")
KIND_ORDER = {"SA": 0, "PA": 1}
ACCURACY_SIGMAS = 3.0  # how far above chance the mean test accuracy must be


class CheckFailed(Exception):
    pass


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


def parse_strict(text: str):
    """json.loads that rejects NaN and Infinity, which JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


def _key(layer, kind):
    return (layer, KIND_ORDER[kind])


def _all_modules(net):
    return {(layer, kind) for layer in range(net["num_layers"]) for kind in KIND_ORDER}


def _size(net, module):
    return workloads.module_size(net, module[1])


def _require(check, ok, message):
    if not ok:
        raise CheckFailed(f"{check}: {message}")


# ---------------------------------------------------------------------------
# one function per check; each raises CheckFailed


def check_summary(docs, summary_line, spec):
    summary = parse_strict(summary_line)
    accs = [s["metrics"]["accuracy"] for s in docs["report.json"]["per_seed"]]
    _require("summary", summary.get("mean_accuracy") == sum(accs) / len(accs),
             f"printed mean_accuracy {summary.get('mean_accuracy')} is not the mean of {accs}")


def check_budget(docs, spec):
    for seed in docs["report.json"]["per_seed"]:
        params = seed["metrics"]["trainable_params"]
        _require("budget", params <= spec["budget"],
                 f"seed {seed['seed']}: {params} trainable > budget {spec['budget']}")
        counts = [r["param_count_after"] for r in seed["records"]]
        _require("budget", all(c > spec["budget"] for c in counts[:-1]),
                 f"seed {seed['seed']}: search went on after meeting the budget: {counts}")


def check_param_sum(docs, spec):
    net = spec["config"]["supernet"]
    seeds = docs["report.json"]["per_seed"]
    for seed in seeds:
        modules = seed["architecture"]["modules"]
        ids = [(m["layer"], m["kind"]) for m in modules]
        _require("param-sum", sorted(ids) == sorted(_all_modules(net)),
                 f"seed {seed['seed']}: architecture does not list every module once")
        own = workloads.head_size(net) + sum(
            _size(net, (m["layer"], m["kind"])) for m in modules if m["active"])
        params = seed["metrics"]["trainable_params"]
        _require("param-sum", params == own,
                 f"seed {seed['seed']}: reported {params} trainable, active modules sum to {own}")
    _require("param-sum", docs["architecture.json"] == seeds[0]["architecture"],
             "architecture.json differs from the first seed's architecture")


def check_count_falls(docs, spec):
    net = spec["config"]["supernet"]
    for seed in docs["report.json"]["per_seed"]:
        count = workloads.full_count(net)
        for rec in seed["records"]:
            after = rec["param_count_after"]
            _require("count-falls", after < count,
                     f"seed {seed['seed']} round {rec['round']}: count {after} did not fall from {count}")
            own = count - sum(_size(net, (m["layer"], m["kind"])) for m in rec["pruned"])
            _require("count-falls", after == own,
                     f"seed {seed['seed']} round {rec['round']}: count {after}, own sum {own}")
            count = after
        if spec["rounds"] is not None:
            _require("count-falls", len(seed["records"]) == spec["rounds"],
                     f"seed {seed['seed']}: {len(seed['records'])} rounds, expected {spec['rounds']}")


def check_top_k(docs, spec):
    for seed in docs["report.json"]["per_seed"]:
        for rec in seed["records"]:
            pruned = [(m["layer"], m["kind"]) for m in rec["pruned"]]
            _require("top-k", 1 <= len(pruned) <= spec["k"],
                     f"seed {seed['seed']} round {rec['round']}: {len(pruned)} pruned, k={spec['k']}")
            order = sorted(rec["probabilities"],
                           key=lambda e: (-e["p"], _key(e["layer"], e["kind"])))
            top = [(e["layer"], e["kind"]) for e in order[:len(pruned)]]
            _require("top-k", pruned == top,
                     f"seed {seed['seed']} round {rec['round']}: pruned {pruned}, top-k is {top}")


def _active_by_round(net, records):
    """Active set before each round, from the recorded removals alone."""
    active = _all_modules(net)
    for rec in records:
        yield rec, set(active)
        active -= {(m["layer"], m["kind"]) for m in rec["pruned"]}


def check_no_return(docs, spec):
    for seed in docs["report.json"]["per_seed"]:
        gone = set()
        for rec in seed["records"]:
            seen = {(e["layer"], e["kind"]) for e in rec["probabilities"]}
            seen |= {(m["layer"], m["kind"]) for m in rec["pruned"]}
            back = sorted(seen & gone)
            _require("no-return", not back,
                     f"seed {seed['seed']} round {rec['round']}: pruned modules came back: {back}")
            gone |= {(m["layer"], m["kind"]) for m in rec["pruned"]}
        inactive = {(m["layer"], m["kind"]) for m in seed["architecture"]["modules"]
                    if not m["active"]}
        if spec["arch"] is None:
            _require("no-return", inactive == gone,
                     f"seed {seed['seed']}: inactive set {sorted(inactive)} is not the union"
                     f" of pruned sets {sorted(gone)}")


def check_probabilities(docs, spec):
    net = spec["config"]["supernet"]
    for seed in docs["report.json"]["per_seed"]:
        for rec, active in _active_by_round(net, seed["records"]):
            where = f"seed {seed['seed']} round {rec['round']}"
            ps = [e["p"] for e in rec["probabilities"]]
            ids = [(e["layer"], e["kind"]) for e in rec["probabilities"]]
            _require("probabilities", all(p > 0 for p in ps), f"{where}: non-positive entry")
            _require("probabilities", abs(math.fsum(ps) - 1.0) <= 1e-9,
                     f"{where}: probabilities sum to {math.fsum(ps)!r}")
            _require("probabilities", len(ids) == len(set(ids)) and set(ids) == active,
                     f"{where}: vector covers {len(set(ids))} modules, {len(active)} are active")


def check_imported_mask(docs, spec):
    if spec["arch"] is None:
        return
    want = {(m["layer"], m["kind"]): m["active"] for m in spec["arch"]["modules"]}
    for seed in docs["report.json"]["per_seed"]:
        got = {(m["layer"], m["kind"]): m["active"] for m in seed["architecture"]["modules"]}
        _require("imported-mask", got == want,
                 f"seed {seed['seed']}: retrained mask differs from the imported document")
        _require("imported-mask", not seed["records"],
                 f"seed {seed['seed']}: an imported architecture ran prune rounds")


def check_losses(docs, spec):
    epochs = spec["config"]["training"]["retrain_epochs"]
    for seed in docs["report.json"]["per_seed"]:
        curve = seed["metrics"]["loss_curve"]
        _require("losses", len(curve) == epochs,
                 f"seed {seed['seed']}: {len(curve)} epoch losses, {epochs} epochs")
        _require("losses", all(math.isfinite(x) for x in curve),
                 f"seed {seed['seed']}: non-finite loss in {curve}")
        _require("losses", curve[-1] < curve[0],
                 f"seed {seed['seed']}: last epoch loss {curve[-1]} not below first {curve[0]}")


def untrained_seeds(report_doc) -> list:
    """Seeds whose model predicts one class for every example.

    On the balanced splits the benchmark generates, that gives exactly
    chance accuracy on train, val and test at once. About one seed in
    fifty of the 24-layer net ends so (a fault recorded in CHANGES.md).
    """
    num_classes = report_doc["config"]["task"]["num_classes"]
    chance = 100.0 / num_classes
    return [s["seed"] for s in report_doc["per_seed"]
            if all(s["metrics"][k] == chance
                   for k in ("accuracy", "val_accuracy", "train_accuracy"))]


def check_accuracy(docs, spec):
    """The mean test accuracy of the seeds that trained is clearly above
    chance: more than ACCURACY_SIGMAS binomial standard deviations of a
    chance-level guess over that many test predictions. Untrained seeds are
    left out; a command with several seeds needs at least one that trained."""
    task = spec["config"]["task"]
    seeds = docs["report.json"]["per_seed"]
    stuck = set(untrained_seeds(docs["report.json"]))
    trained = [s for s in seeds if s["seed"] not in stuck]
    _require("accuracy", trained or len(seeds) == 1,
             f"none of the {len(seeds)} seeds trained")
    if not trained:
        return
    p = 1.0 / task["num_classes"]
    n = task["test_size"] * len(trained)
    floor = 100.0 * (p + ACCURACY_SIGMAS * math.sqrt(p * (1 - p) / n))
    accs = [s["metrics"]["accuracy"] for s in trained]
    mean = sum(accs) / len(accs)
    _require("accuracy", math.isfinite(mean) and mean > floor,
             f"mean test accuracy {mean} of trained seeds {accs} not above {floor:.2f}")


def check_overhead(counts, spec):
    search, retrain = counts
    config = spec["config"]
    own = (len(config["seeds"]) * config["training"]["retrain_epochs"]
           * config["task"]["train_size"])
    _require("overhead", retrain == own,
             f"batcher served {retrain} retrain examples, epochs x train size is {own}")
    if spec["arch"] is None:
        _require("overhead", search > 0, "the search served no examples")
    if spec.get("search_share") is not None:
        _require("overhead", search <= spec["search_share"] * retrain,
                 f"search served {search} examples, more than {spec['search_share']}"
                 f" x {retrain} retrain examples")


def check_rerun(first_report: str, report: str):
    """A rerun of the same config writes the same report.json, byte for byte."""
    _require("rerun", report == first_report, "report.json differs from the first command's")


# ---------------------------------------------------------------------------


def check_command(files: dict, summary_line: str, counts, spec) -> list:
    """Problems with one command's output.

    ``files`` maps report file names to their text, ``summary_line`` is
    what the CLI printed, ``counts`` is (search, retrain) examples served
    and ``spec`` is the workload from ``workloads.make``.
    """
    docs = {}
    problems = [f"strict-json: {name} was not written"
                for name in JSON_FILES if name not in files]
    for name in sorted(n for n in files if n.endswith(".json")):
        try:
            docs[name] = parse_strict(files[name])
        except ValueError as exc:
            problems.append(f"strict-json: {name}: {exc}")
    if problems:
        return problems
    steps = [
        lambda: check_summary(docs, summary_line, spec),
        lambda: check_budget(docs, spec),
        lambda: check_param_sum(docs, spec),
        lambda: check_count_falls(docs, spec),
        lambda: check_top_k(docs, spec),
        lambda: check_no_return(docs, spec),
        lambda: check_probabilities(docs, spec),
        lambda: check_imported_mask(docs, spec),
        lambda: check_losses(docs, spec),
        lambda: check_accuracy(docs, spec),
        lambda: check_overhead(counts, spec),
    ]
    for step in steps:
        try:
            step()
        except CheckFailed as exc:
            problems.append(str(exc))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
