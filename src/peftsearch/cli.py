"""Command-line entry points for batch experiments.

Exit code is 0 on success; failures print a machine-readable JSON error
record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import experiment as E


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "mode", None):
        updates["mode"] = args.mode
    if getattr(args, "seeds", None):
        updates["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    if getattr(args, "budget", None) is not None:
        updates["budget"] = args.budget
    if getattr(args, "fidelity", None):
        updates["fidelity"] = args.fidelity
    if getattr(args, "out", None):
        updates["report_dir"] = args.out
    return replace(config, **updates) if updates else config


def _run_and_emit(config):
    if not config.report_dir:
        raise E.ConfigError("no report directory: set report_dir or pass --out")
    doc = E.run_experiment(config)
    E.emit_reports(doc, config.report_dir)
    summary = E.epoch_summary(doc)
    accs = [sr["metrics"].get("accuracy") for sr in doc["per_seed"]]
    print(json.dumps({
        "report_dir": config.report_dir,
        "mode": config.mode,
        "mean_accuracy": sum(accs) / len(accs),
        "search_epochs": summary["search_epochs"],
        "retrain_epochs": summary["retrain_epochs"],
        "ratio": summary["ratio"],
    }, sort_keys=True))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_run(args):
    config = _apply_overrides(E.load_config(args.config), args)
    _run_and_emit(config)


def cmd_export(args):
    doc = args.extract(_load_json(f"{args.run}/report.json"))
    E._write(args.out, E._dump_json(doc))
    print(args.out)


def cmd_import_strategy(args):
    config = _apply_overrides(E.load_config(args.config), args)
    config = E.import_strategy(_load_json(args.strategy), config)
    _run_and_emit(config)


def cmd_import_arch(args):
    config = _apply_overrides(E.load_config(args.config), args)
    config = E.import_architecture(_load_json(args.arch), config)
    _run_and_emit(config)


def cmd_report(args):
    doc = _load_json(f"{args.run}/report.json")
    out = args.out or args.run
    E.emit_reports(doc, out)
    print(json.dumps(E.epoch_summary(doc), sort_keys=True))


def build_parser():
    parser = argparse.ArgumentParser(prog="peftsearch")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="experiment config JSON")
        p.add_argument("--mode", help="override experiment mode")
        p.add_argument("--seeds", help="comma-separated seed list override")
        p.add_argument("--budget", type=int, help="trainable-parameter budget override")
        p.add_argument("--fidelity", choices=["full", "low"])
        p.add_argument("--out", help="report directory override")

    p = sub.add_parser("run", help="search + retrain per the config")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("export-strategy", help="extract the strategy from a run")
    p.add_argument("--run", required=True, help="report directory of a finished run")
    p.add_argument("--out", required=True, help="strategy file to write")
    p.set_defaults(fn=cmd_export, extract=E.export_strategy)

    p = sub.add_parser("import-strategy", help="run with a transferred strategy")
    common(p)
    p.add_argument("--strategy", required=True, help="strategy document to import")
    p.set_defaults(fn=cmd_import_strategy)

    p = sub.add_parser("export-arch", help="extract the searched architecture")
    p.add_argument("--run", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export, extract=E.export_architecture)

    p = sub.add_parser("import-arch", help="retrain a transferred architecture")
    common(p)
    p.add_argument("--arch", required=True, help="architecture document to import")
    p.set_defaults(fn=cmd_import_arch)

    p = sub.add_parser("report", help="re-emit report files from a run")
    p.add_argument("--run", required=True)
    p.add_argument("--out", help="emit into a different directory")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
