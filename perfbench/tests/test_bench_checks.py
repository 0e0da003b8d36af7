"""Each output check of the benchmark fails on a report doctored to break it.

The valid reports come from real CLI runs on a tiny config (about a second
each); every test then changes one thing and expects the named check to
report it.
"""

import copy
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

NET = {"num_layers": 4, "d_model": 16, "num_heads": 2, "d_ff": 16,
       "sa_bottleneck": 4, "pa_rank": 2, "vocab_size": 8, "num_classes": 2,
       "max_seq_len": 6}
TASK = {"name": "tiny", "vocab_size": 8, "seq_len": 6, "num_classes": 2,
        "generator": "token-majority", "train_size": 60, "val_size": 20,
        "test_size": 40, "seed": 3}


def _spec(command, arch=None):
    config = {"task": TASK, "supernet": NET, "mode": "hybrid", "seeds": [5, 6],
              "schedule": {"k": 1},
              "training": {"retrain_epochs": 6, "lr": 0.01, "batch_size": 10}}
    return {"command": command, "config": config, "arch": arch,
            "budget": workloads.default_budget(NET),
            "k": 1, "rounds": None, "search_share": 0.5}


def _run(spec, tmp):
    from peftsearch import cli
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(spec["config"]))
    argv = [spec["command"], "--config", str(config_path), "--out", str(tmp / "out")]
    if spec["arch"] is not None:
        arch_path = tmp / "arch.json"
        arch_path.write_text(json.dumps(spec["arch"]))
        argv += ["--arch", str(arch_path)]
    counter = probe.ExampleCounter().install()
    printed = io.StringIO()
    try:
        with redirect_stdout(printed):
            assert cli.main(argv) == 0
    finally:
        counter.restore()
    files = {name: (tmp / "out" / name).read_text() for name in os.listdir(tmp / "out")}
    return {"files": files, "summary": printed.getvalue().strip(),
            "counts": counter.take(), "spec": spec}


@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    return _run(_spec("run"), tmp_path_factory.mktemp("search"))


@pytest.fixture(scope="module")
def import_run(tmp_path_factory):
    arch = {"config": dict(NET, pa_linear=False, activation="gelu"),
            "modules": [{"layer": layer, "kind": kind, "active": (layer + (kind == "PA")) % 2 == 0}
                        for layer in range(NET["num_layers"]) for kind in ("SA", "PA")]}
    return _run(_spec("import-arch", arch), tmp_path_factory.mktemp("import"))


def _problems(run, report=None, files=None, summary=None, counts=None):
    files = dict(files or run["files"])
    if report is not None:
        files["report.json"] = json.dumps(report)
        files["architecture.json"] = json.dumps(report["per_seed"][0]["architecture"])
    return checks.check_command(files, summary or run["summary"],
                                counts or run["counts"], run["spec"])


def _report(run):
    return copy.deepcopy(json.loads(run["files"]["report.json"]))


def _fails(problems, check):
    assert any(p.startswith(check + ":") for p in problems), problems
    return True


def test_real_runs_pass(search_run, import_run):
    assert _problems(search_run) == []
    assert _problems(import_run) == []
    report = _report(search_run)
    assert all(len(s["records"]) >= 2 for s in report["per_seed"])


def test_strict_json_rejects_infinity(search_run):
    files = dict(search_run["files"])
    files["report.json"] = files["report.json"].replace('"loss_curve": [', '"loss_curve": [Infinity, ', 1)
    _fails(_problems(search_run, files=files), "strict-json")


def test_strict_json_needs_every_file(search_run):
    files = {k: v for k, v in search_run["files"].items() if k != "summary.json"}
    _fails(_problems(search_run, files=files), "strict-json")


def test_summary_must_match_report(search_run):
    summary = json.loads(search_run["summary"])
    summary["mean_accuracy"] += 1.0
    _fails(_problems(search_run, summary=json.dumps(summary)), "summary")


def test_budget_exceeded(search_run):
    report = _report(search_run)
    report["per_seed"][1]["metrics"]["trainable_params"] = search_run["spec"]["budget"] + 1
    _fails(_problems(search_run, report), "budget")


def test_budget_search_went_on(search_run):
    report = _report(search_run)
    records = report["per_seed"][0]["records"]
    records[0]["param_count_after"] = search_run["spec"]["budget"]
    _fails(_problems(search_run, report), "budget")


def test_param_sum_disagrees_with_architecture(search_run):
    report = _report(search_run)
    modules = report["per_seed"][0]["architecture"]["modules"]
    active = next(m for m in modules if m["active"])
    active["active"] = False
    _fails(_problems(search_run, report), "param-sum")


def test_count_must_fall(search_run):
    report = _report(search_run)
    records = report["per_seed"][0]["records"]
    records[1]["param_count_after"] = records[0]["param_count_after"]
    _fails(_problems(search_run, report), "count-falls")


def test_top_k_by_probability(search_run):
    report = _report(search_run)
    rec = report["per_seed"][0]["records"][0]
    pruned = {(m["layer"], m["kind"]) for m in rec["pruned"]}
    low = min((e for e in rec["probabilities"] if (e["layer"], e["kind"]) not in pruned),
              key=lambda e: e["p"])
    rec["pruned"][0] = {"layer": low["layer"], "kind": low["kind"], "criterion": ""}
    _fails(_problems(search_run, report), "top-k")


def test_top_k_at_most_k(search_run):
    report = _report(search_run)
    rec = report["per_seed"][0]["records"][0]
    order = sorted(rec["probabilities"], key=lambda e: -e["p"])
    rec["pruned"] = [{"layer": e["layer"], "kind": e["kind"], "criterion": ""}
                     for e in order[:search_run["spec"]["k"] + 1]]
    _fails(_problems(search_run, report), "top-k")


def test_pruned_module_never_returns(search_run):
    report = _report(search_run)
    seed = report["per_seed"][0]
    gone = seed["records"][0]["pruned"][0]
    seed["records"][1]["probabilities"].append(
        {"layer": gone["layer"], "kind": gone["kind"], "p": 1e-12})
    _fails(_problems(search_run, report), "no-return")


def test_inactive_set_is_union_of_pruned(search_run):
    report = _report(search_run)
    seed = report["per_seed"][0]
    gone = seed["records"][0]["pruned"][0]
    for m in seed["architecture"]["modules"]:
        if (m["layer"], m["kind"]) == (gone["layer"], gone["kind"]):
            m["active"] = True
    _fails(_problems(search_run, report), "no-return")


def test_probabilities_sum_to_one(search_run):
    report = _report(search_run)
    report["per_seed"][0]["records"][0]["probabilities"][0]["p"] += 1e-6
    _fails(_problems(search_run, report), "probabilities")


def test_probabilities_positive(search_run):
    report = _report(search_run)
    entries = report["per_seed"][0]["records"][0]["probabilities"]
    entries[1]["p"] += entries[0]["p"]
    entries[0]["p"] = 0.0
    _fails(_problems(search_run, report), "probabilities")


def test_probabilities_cover_active_modules(search_run):
    report = _report(search_run)
    report["per_seed"][1]["records"][-1]["probabilities"].pop()
    _fails(_problems(search_run, report), "probabilities")


def test_imported_mask_kept(import_run):
    report = _report(import_run)
    modules = report["per_seed"][0]["architecture"]["modules"]
    modules[0]["active"] = not modules[0]["active"]
    _fails(_problems(import_run, report), "imported-mask")


def test_loss_must_fall(search_run):
    report = _report(search_run)
    curve = report["per_seed"][0]["metrics"]["loss_curve"]
    curve[-1] = curve[0] + 0.1
    _fails(_problems(search_run, report), "losses")


def test_accuracy_above_chance(search_run):
    report = _report(search_run)
    for seed in report["per_seed"]:
        seed["metrics"]["accuracy"] = 55.0
    _fails(_problems(search_run, report), "accuracy")


def _untrain(seed):
    for key in ("accuracy", "val_accuracy", "train_accuracy"):
        seed["metrics"][key] = 50.0


def test_untrained_seed_left_out_of_accuracy(search_run):
    report = _report(search_run)
    _untrain(report["per_seed"][1])
    assert checks.untrained_seeds(report) == [report["per_seed"][1]["seed"]]
    summary = json.loads(search_run["summary"])
    accs = [s["metrics"]["accuracy"] for s in report["per_seed"]]
    summary["mean_accuracy"] = sum(accs) / len(accs)
    assert _problems(search_run, report, summary=json.dumps(summary)) == []


def test_accuracy_needs_one_trained_seed(search_run):
    report = _report(search_run)
    for seed in report["per_seed"]:
        _untrain(seed)
    _fails(_problems(search_run, report), "accuracy")


def test_search_overhead_share(search_run):
    _search, retrain = search_run["counts"]
    _fails(_problems(search_run, counts=(retrain, retrain)), "overhead")


def test_retrain_examples_counted(search_run):
    search, retrain = search_run["counts"]
    _fails(_problems(search_run, counts=(search, retrain - 1)), "overhead")


def test_rerun_must_be_byte_identical(search_run):
    first = search_run["files"]["report.json"]
    checks.check_rerun(first, first)
    with pytest.raises(checks.CheckFailed, match="^rerun:"):
        checks.check_rerun(first, first.replace('"seed": 5', '"seed": 7', 1))


def test_every_check_has_a_test():
    tested = {"strict-json", "summary", "budget", "param-sum", "count-falls", "top-k",
              "no-return", "probabilities", "imported-mask", "losses", "accuracy",
              "overhead", "rerun"}
    assert tested == set(checks.CHECKS)
