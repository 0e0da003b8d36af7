import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peftsearch import cli
from peftsearch import criteria as C
from peftsearch import experiment as E
from peftsearch import pruner as P
from peftsearch import strategy as ST
from peftsearch import supernet as S
from peftsearch import tasks as TK

TASK = TK.SyntheticTaskSpec("t", 12, 8, 2, "token-majority", 40, 8, 16, 5)
NET = S.SupernetConfig(4, 16, 2, 16, 4, 2, 12, 2, 8)


def make_config(**overrides):
    base = dict(task=TASK, net=NET, seeds=(0,), retrain_epochs=2,
                warmup_rounds=1, trim_fraction=0.5, batch_size=20)
    base.update(overrides)
    return E.ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(E.ConfigError, match="mode"):
            make_config(mode="magic")

    def test_unknown_single_criterion_rejected(self):
        with pytest.raises(E.ConfigError, match="criterion"):
            make_config(mode="single:entropy")

    def test_single_criterion_modes_accepted(self):
        assert make_config(mode="single:weight").mode == "single:weight"

    def test_empty_seed_list_rejected(self):
        with pytest.raises(E.ConfigError, match="seed"):
            make_config(seeds=())

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(E.ConfigError, match="fidelity"):
            make_config(fidelity="medium")

    def test_bad_fractions_rejected(self):
        with pytest.raises(E.ConfigError):
            make_config(trim_fraction=0.0)
        with pytest.raises(E.ConfigError):
            make_config(low_fidelity_fraction=2.0)


class TestConfigFiles:
    def test_dict_round_trip(self):
        cfg = make_config(mode="random-prune", seeds=(1, 2), fidelity="low",
                          budget=500, lr=5e-4)
        assert E.config_from_dict(E.config_to_dict(cfg)) == cfg

    def test_missing_task_section_reported(self):
        with pytest.raises(E.ConfigError, match="task"):
            E.config_from_dict({"supernet": dataclasses.asdict(NET)})

    def test_invalid_supernet_section_reported(self):
        doc = E.config_to_dict(make_config())
        doc["supernet"]["num_heads"] = 3
        with pytest.raises(E.ConfigError, match="supernet"):
            E.config_from_dict(doc)

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(E.ConfigError, match="JSON"):
            E.load_config(str(path))

    def test_layout_names_every_field_once(self):
        names = [name for keys in E._LAYOUT.values() for name in keys.values()]
        fields = [f.name for f in dataclasses.fields(E.ExperimentConfig)
                  if f.name not in ("strategy_doc", "architecture_doc")]
        assert sorted(names) == sorted(fields)

    def test_round_trip_with_every_field_changed(self):
        cfg = make_config(
            task=TK.SyntheticTaskSpec("u", 14, 6, 2, "pattern-presence", 30, 6, 10, 8),
            net=S.SupernetConfig(5, 32, 4, 24, 6, 3, 14, 2, 6, pa_linear=True,
                                 activation="relu"),
            mode="single:zeros", seeds=(4, 9), budget=700, k=3, steps_per_round=2,
            fidelity="low", reinit_survivors=False, warmup_rounds=2, trim_fraction=0.4,
            low_fidelity_fraction=0.3, retrain_epochs=7, lr=2e-3, batch_size=12,
            report_dir="runs/x")
        defaults = E.ExperimentConfig(task=TASK, net=NET)
        changed = [f.name for f in dataclasses.fields(cfg)
                   if getattr(cfg, f.name) != getattr(defaults, f.name)]
        assert len(changed) == len(dataclasses.fields(cfg)) - 2
        assert E.config_from_dict(E.config_to_dict(cfg)) == cfg

    def test_misspelled_section_key_rejected(self):
        doc = E.config_to_dict(make_config())
        doc["training"] = {"retrian_epochs": 1}
        with pytest.raises(E.ConfigError, match="retrian_epochs"):
            E.config_from_dict(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = E.config_to_dict(make_config())
        doc["schedul"] = doc.pop("schedule")
        with pytest.raises(E.ConfigError, match="schedul"):
            E.config_from_dict(doc)

    @pytest.mark.parametrize("seeds", ["01", [0, "1"], [1.0], [True], 3])
    def test_non_integer_seeds_rejected(self, seeds):
        doc = E.config_to_dict(make_config())
        doc["seeds"] = seeds
        with pytest.raises(E.ConfigError, match="seeds"):
            E.config_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("k", 0), ("k", -1), ("k", True), ("k", 1.5), ("steps_per_round", 0),
        ("budget", 10),  # the head of NET holds 34 parameters
        ("budget", "100"),
    ])
    def test_bad_schedule_rejected(self, key, value):
        doc = E.config_to_dict(make_config())
        doc["schedule"][key] = value
        with pytest.raises(E.ConfigError, match=f"schedule.{key} must be null or an integer"):
            E.config_from_dict(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("training", "retrain_epochs", 1.5), ("warmup", "rounds", 2.5),
        ("training", "batch_size", 2.5), ("training", "lr", True),
        ("training", "lr", float("nan")), ("training", "lr", float("inf")),
        ("warmup", "trim_fraction", True), ("", "low_fidelity_fraction", True),
        ("schedule", "reinit_survivors", "no"), ("", "report_dir", 5), ("", "mode", 3),
    ])
    def test_mistyped_value_rejected_naming_its_key(self, section, key, value):
        doc = E.config_to_dict(make_config())
        (doc[section] if section else doc)[key] = value
        where = f"{section}.{key}" if section else key
        with pytest.raises(E.ConfigError, match=f"^{where} must be"):
            E.config_from_dict(doc)

    def test_integer_lr_accepted(self):
        doc = E.config_to_dict(make_config())
        doc["training"]["lr"] = 1
        assert E.config_from_dict(doc).lr == 1

    def test_load_config_reads_file(self, tmp_path):
        cfg = make_config()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(E.config_to_dict(cfg)), encoding="utf-8")
        assert E.load_config(str(path)) == cfg


_FRACTIONS = st.floats(0, 1, exclude_min=True)
_COUNTS = st.none() | st.integers(1, 10**6)
# every ExperimentConfig field but task and supernet, by config-document section
_DRAWN = {
    "": {"mode": st.sampled_from(E.MODES + tuple(f"single:{t}" for t in C.CRITERIA_ORDER)),
         "seeds": st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=4),
         "low_fidelity_fraction": _FRACTIONS,
         "report_dir": st.none() | st.text(max_size=8)},
    "schedule": {"budget": st.none() | st.integers(NET.head_param_count(), 10**6),
                 "k": _COUNTS, "steps_per_round": _COUNTS,
                 "fidelity": st.sampled_from(["full", "low"]),
                 "reinit_survivors": st.booleans()},
    "warmup": {"rounds": st.integers(1, 10), "trim_fraction": _FRACTIONS},
    "training": {"retrain_epochs": st.integers(1, 50), "lr": st.floats(1e-6, 1.0),
                 "batch_size": st.integers(1, 64)},
}


@st.composite
def config_docs(draw):
    """Valid config documents that leave out any drawn set of optional keys."""
    doc = {"task": dataclasses.asdict(TASK), "supernet": dataclasses.asdict(NET)}
    for section, keys in _DRAWN.items():
        values = {key: draw(keys[key])
                  for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True))}
        if section:
            if values or draw(st.booleans()):
                doc[section] = values
        else:
            doc.update(values)
    return doc


@st.composite
def tilings(draw):
    """(num_layers, strategy) whose partitions tile [0, num_layers) in order."""
    n = draw(st.integers(1, 24))
    cuts = draw(st.lists(st.integers(1, n - 1), unique=True)) if n > 1 else []
    edges = [0] + sorted(cuts) + [n]
    strategy = []
    for index, (lo, hi) in enumerate(zip(edges, edges[1:]), 1):
        tag = draw(st.sampled_from(C.CRITERIA_ORDER))
        threshold = draw(st.none() | st.floats(1e-6, 10.0)) if tag == "threshold" else None
        strategy.append((ST.Partition(index, lo, hi), C.Criterion(tag, threshold)))
    return n, strategy


class TestDrawnDocuments:
    def test_drawn_keys_are_the_layout(self):
        layout = {section: set(keys) - {"task", "supernet"}
                  for section, keys in E._LAYOUT.items()}
        assert layout == {section: set(keys) for section, keys in _DRAWN.items()}

    @settings(max_examples=50, deadline=None)
    @given(doc=config_docs())
    def test_valid_document_round_trips(self, doc):
        cfg = E.config_from_dict(doc)
        out = E.config_to_dict(cfg)
        assert E.config_from_dict(out) == cfg
        for key, value in doc.items():
            if isinstance(value, dict):
                assert {k: out[key][k] for k in value} == value
            else:
                assert out[key] == value

    @settings(max_examples=50, deadline=None)
    @given(section=st.sampled_from(["", "task", "supernet", "schedule", "warmup", "training"]),
           key=st.text(min_size=1, max_size=12))
    def test_unknown_key_rejected(self, section, key):
        doc = E.config_to_dict(make_config())
        values = doc[section] if section else doc
        assume(key not in values)
        values[key] = 1
        with pytest.raises(E.ConfigError):
            E.config_from_dict(doc)

    @settings(max_examples=50, deadline=None)
    @given(tiling=tilings())
    def test_tiling_round_trips(self, tiling):
        n, strategy = tiling
        doc = json.loads(json.dumps(ST.strategy_to_doc(strategy)))
        assert ST.strategy_from_doc(doc) == strategy
        assert E._strategy_partitions(doc, n) == strategy

    @settings(max_examples=50, deadline=None)
    @given(tiling=tilings(), data=st.data())
    def test_non_tiling_rejected(self, tiling, data):
        n, strategy = tiling
        entries = ST.strategy_to_doc(strategy)["partitions"]
        j = data.draw(st.integers(0, len(entries) - 1))
        how = data.draw(st.sampled_from(["drop", "renumber", "lo", "hi", "append"]))
        if how == "drop":
            del entries[j]
        elif how == "renumber":
            # any other number leaves a gap or a duplicate in 1..len(entries)
            entries[j]["partition"] = data.draw(
                st.integers(-2, len(entries) + 2).filter(lambda v: v != j + 1))
        elif how in ("lo", "hi"):
            entries[j][how] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        else:
            # empty, or past the last layer
            entries.append({"partition": len(entries) + 1, "lo": n,
                            "hi": n + data.draw(st.integers(0, 2)), "criterion": "weight"})
        with pytest.raises(E.ConfigError, match="tile the layers"):
            E._strategy_partitions({"partitions": entries}, n)


class TestRunModes:
    def test_hybrid_produces_records_strategy_and_tendency(self):
        sr = E.run_experiment(make_config())["per_seed"][0]
        assert sr["records"]
        assert sr["strategy"] is not None
        assert sr["tendency"] is not None
        assert sr["epochs"]["warmup"] > 0
        assert sr["epochs"]["prune"] > 0
        assert "accuracy" in sr["metrics"]

    def test_no_prune_keeps_everything_and_skips_search(self):
        sr = E.run_experiment(make_config(mode="no-prune"))["per_seed"][0]
        assert sr["records"] == []
        assert sr["epochs"]["search_total"] == 0
        assert sr["metrics"]["trainable_params"] == S.trainable_param_count(
            S.build_supernet(NET, 0))

    def test_random_prune_reaches_budget_without_strategy(self):
        sr = E.run_experiment(make_config(mode="random-prune"))["per_seed"][0]
        assert sr["strategy"] is None
        assert sr["records"]
        assert sr["epochs"]["warmup"] > 0  # epoch parity with hybrid search

    def test_no_partition_uses_a_single_global_block(self):
        report = E.run_experiment(make_config(mode="no-partition"))
        doc = report["per_seed"][0]["strategy"]
        assert len(doc["partitions"]) == 1
        assert doc["partitions"][0] == {
            "partition": 1, "lo": 0, "hi": NET.num_layers,
            "criterion": doc["partitions"][0]["criterion"]}

    def test_single_mode_applies_one_criterion_everywhere(self):
        report = E.run_experiment(make_config(mode="single:gradient"))
        doc = report["per_seed"][0]["strategy"]
        assert {e["criterion"] for e in doc["partitions"]} == {"gradient"}

    def test_ablations_share_the_search_epoch_budget(self):
        warmup = {}
        for mode in ("hybrid", "random-prune", "single:weight"):
            report = E.run_experiment(make_config(mode=mode))
            warmup[mode] = report["per_seed"][0]["epochs"]["warmup"]
        assert warmup["hybrid"] == warmup["random-prune"]
        assert warmup["hybrid"] == warmup["single:weight"]

    def test_low_fidelity_trains_rounds_on_the_small_split(self):
        full = E.run_experiment(make_config())["per_seed"][0]
        low = E.run_experiment(
            make_config(fidelity="low", low_fidelity_fraction=0.25))["per_seed"][0]
        assert low["epochs"]["prune"] < full["epochs"]["prune"]

    def test_runs_are_deterministic(self):
        a = E.run_experiment(make_config(seeds=(0, 1)))
        b = E.run_experiment(make_config(seeds=(0, 1)))
        assert a == b


class TestTransfer:
    def test_strategy_export_import_round_trip(self):
        report = E.run_experiment(make_config())
        doc = E.export_strategy(report)
        cfg = E.import_strategy(doc, make_config(task=TK.SyntheticTaskSpec(
            "other", 12, 8, 2, "pattern-presence", 40, 8, 16, 9)))
        transferred = E.run_experiment(cfg)["per_seed"][0]
        assert transferred["strategy"] == doc
        assert transferred["tendency"] is None  # warm-up skipped
        assert transferred["epochs"]["warmup"] == 0

    def test_architecture_import_skips_search_entirely(self):
        report = E.run_experiment(make_config())
        arch = E.export_architecture(report)
        cfg = E.import_architecture(arch, make_config())
        sr = E.run_experiment(cfg)["per_seed"][0]
        assert sr["records"] == []
        assert sr["epochs"]["search_total"] == 0
        assert sr["architecture"]["modules"] == arch["modules"]

    def test_architecture_layer_mismatch_rejected(self):
        report = E.run_experiment(make_config())
        arch = E.export_architecture(report)
        other = S.SupernetConfig(6, 16, 2, 16, 4, 2, 12, 2, 8)
        with pytest.raises(E.ConfigError, match="layers"):
            E.import_architecture(arch, make_config(net=other))

    def test_no_prune_report_has_no_strategy(self):
        report = E.run_experiment(make_config(mode="no-prune"))
        with pytest.raises(ValueError, match="strategy"):
            E.export_strategy(report)


class TestReports:
    def test_epoch_summary_aggregates_means(self):
        report = E.run_experiment(make_config(seeds=(0, 1)))
        summary = E.epoch_summary(report)
        warm = [s["epochs"]["warmup"] for s in report["per_seed"]]
        assert summary["warmup_epochs"] == pytest.approx(np.mean(warm))
        assert summary["search_epochs"] == pytest.approx(
            summary["warmup_epochs"] + summary["prune_epochs"])
        assert summary["ratio"] == pytest.approx(
            summary["search_epochs"] / summary["retrain_epochs"])

    def test_frequency_counts_match_records(self):
        report = E.run_experiment(make_config())
        counts = E.frequency_counts(report)
        pruned_total = sum(len(r["pruned"])
                           for sr in report["per_seed"] for r in sr["records"])
        assert sum(counts.values()) == pruned_total

    def test_emit_writes_expected_files(self, tmp_path):
        report = E.run_experiment(make_config())
        out = tmp_path / "r"
        E.emit_reports(report, str(out))
        names = {p.name for p in out.iterdir()}
        assert {"frequency.csv", "rounds.json", "summary.json", "metrics.csv",
                "report.json", "strategy.json", "architecture.json"} <= names

    def test_emission_is_byte_stable(self, tmp_path):
        report = E.run_experiment(make_config())
        a, b = tmp_path / "a", tmp_path / "b"
        E.emit_reports(report, str(a))
        E.emit_reports(report, str(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unwritable_directory_reported(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file, not a directory", encoding="utf-8")
        with pytest.raises(OSError, match="not writable"):
            E.emit_reports(
                E.run_experiment(make_config(mode="no-prune")),
                str(blocker))


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = make_config(**overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(E.config_to_dict(cfg)), encoding="utf-8")
        return str(path)

    def test_run_writes_reports_and_prints_summary(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["mode"] == "hybrid"
        assert (out / "report.json").exists()

    def test_run_without_output_directory_fails_cleanly(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        assert cli.main(["run", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_mode_and_seed_overrides(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        out = tmp_path / "run"
        code = cli.main(["run", "--config", config, "--mode", "no-prune",
                         "--seeds", "3,4", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "no-prune"
        assert [sr["seed"] for sr in report["per_seed"]] == [3, 4]

    def test_strategy_transfer_via_cli(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        native = tmp_path / "native"
        assert cli.main(["run", "--config", config, "--out", str(native)]) == 0
        strategy = tmp_path / "strategy.json"
        assert cli.main(["export-strategy", "--run", str(native),
                         "--out", str(strategy)]) == 0
        transferred = tmp_path / "transfer"
        assert cli.main(["import-strategy", "--config", config,
                         "--strategy", str(strategy),
                         "--out", str(transferred)]) == 0
        doc = json.loads((transferred / "strategy.json").read_text())
        assert doc == json.loads(strategy.read_text())

    def test_budget_override_below_the_head_fails_before_the_run(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--budget", "10", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "schedule.budget" in err["message"]
        assert not out.exists()

    def test_diverging_run_fails_without_a_report(self, tmp_path, capsys):
        config = self._write_config(tmp_path, lr=1e4)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FloatingPointError"
        assert "non-finite loss" in err["message"] and "seed 0" in err["message"]
        assert not (out / "report.json").exists()

    def test_import_arch_of_another_width_fails_without_a_report(self, tmp_path, capsys):
        config = self._write_config(tmp_path, net=dataclasses.replace(NET, d_model=64))
        narrow = S.build_supernet(dataclasses.replace(NET, d_model=32), 0)
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(S.architecture_to_doc(narrow)), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["import-arch", "--config", config, "--arch", str(arch),
                         "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "d_model" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("partitions", [
        [(1, 0, 6)],               # layers 6-7 never scored
        [(1, 0, 2)],               # runs out of modules to score
        [(1, 0, 5), (2, 4, 8)],    # overlap
        [(2, 0, 8)],               # numbered from 2
    ])
    def test_strategy_that_does_not_tile_the_layers_fails_without_a_report(
            self, tmp_path, capsys, partitions):
        config = self._write_config(tmp_path, net=dataclasses.replace(NET, num_layers=8))
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"partitions": [
            {"partition": i, "lo": lo, "hi": hi, "criterion": "weight"}
            for i, lo, hi in partitions]}), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["import-strategy", "--config", config, "--strategy", str(strategy),
                         "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "partitions" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["random-prune", "no-prune"])
    def test_strategy_import_in_a_mode_that_ignores_it_fails_without_a_report(
            self, tmp_path, capsys, mode):
        config = self._write_config(tmp_path)
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"partitions": [
            {"partition": 1, "lo": 0, "hi": 4, "criterion": "weight"}]}), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["import-strategy", "--config", config, "--strategy", str(strategy),
                         "--mode", mode, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and mode in err["message"]
        assert not out.exists()

    def test_epochs_count_the_examples_served(self, tmp_path, capsys, monkeypatch):
        # 50 examples in batches of 20: every epoch ends with a short batch
        config = self._write_config(tmp_path, task=dataclasses.replace(TASK, train_size=50))
        served = {"search": 0, "retrain": 0}
        phase = ["search"]
        next_batch, retrain = TK.Batcher.__next__, P.retrain

        def counted_next(batcher):
            tokens, labels = next_batch(batcher)
            served[phase[0]] += len(labels)
            return tokens, labels

        def phased_retrain(*args, **kwargs):
            phase[0] = "retrain"
            try:
                return retrain(*args, **kwargs)
            finally:
                phase[0] = "search"

        monkeypatch.setattr(TK.Batcher, "__next__", counted_next)
        monkeypatch.setattr(P, "retrain", phased_retrain)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        epochs = summary["per_seed_epochs"]["0"]
        assert served["search"] > 0
        assert epochs["search_total"] * 50 == pytest.approx(served["search"])
        assert epochs["retrain"] * 50 == served["retrain"]

    def test_report_reemission_round_trips(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        again = tmp_path / "again"
        assert cli.main(["report", "--run", str(out), "--out", str(again)]) == 0
        assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_report_that_cannot_be_rendered_writes_no_file(self, tmp_path, capsys):
        config = self._write_config(tmp_path, mode="no-prune")
        out = tmp_path / "run"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        doc["per_seed"][0]["metrics"]["accuracy"] = float("nan")
        (out / "report.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        fresh = tmp_path / "fresh"
        assert cli.main(["report", "--run", str(out), "--out", str(fresh)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "JSON compliant" in err["message"]
        assert not fresh.exists()
