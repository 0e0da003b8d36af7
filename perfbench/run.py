"""Benchmark of the peftsearch search loop, run the way its users run it.

    python3 perfbench/run.py --workload demo-multiseed --seed 1 --seconds 20 --trace 0

Generates the workload's config (and architecture document) from --seed,
times a cold set-up, then calls the ``peftsearch`` CLI in-process, one
whole command at a time, until --seconds have passed. Every command's
report files are checked (see checks.py). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where an
operation is one experiment seed's run. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, measured by
wrapping the program's public functions (see probe.py), and the spans are
written to perfbench/out/traces/.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import peftsearch from this checkout's src/, never from elsewhere."""
    package = os.path.join(SRC, "peftsearch")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, SRC)
    import peftsearch
    if os.path.dirname(os.path.abspath(peftsearch.__file__)) != package:
        sys.exit(f"perfbench: imported peftsearch from {peftsearch.__file__}, not {package}")
    from peftsearch import cli, experiment, supernet, tasks
    return cli, experiment, supernet, tasks


def reference_loop() -> float:
    """Seconds for a fixed pure-numpy loop shaped like a training step's
    work (small GEMMs, elementwise ops, Python dispatch). It does not touch
    peftsearch, so it moves only when the host's speed moves."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.normal(size=(320, 64))
    w = rng.normal(size=(64, 64)) / 8.0
    start = time.perf_counter()
    for _ in range(800):
        h = np.tanh(x @ w)
        x = (x + h) - (x + h).mean(axis=-1, keepdims=True)
        x /= x.std(axis=-1, keepdims=True)
    return time.perf_counter() - start


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _read_report(report_dir):
    files = {}
    for name in sorted(os.listdir(report_dir)):
        with open(os.path.join(report_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return files


def main(argv=None):
    args = parse_args(argv)
    spec = workloads.make(args.workload, args.seed)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    _write_json(config_path, spec["config"])
    command = [spec["command"], "--config", config_path]
    if spec["arch"] is not None:
        arch_path = os.path.join(run_dir, "arch.json")
        _write_json(arch_path, spec["arch"])
        command += ["--arch", arch_path]

    # Cold set-up, timed from the process's start: imports, config load,
    # task generation and one supernet build.
    cli, experiment, supernet, tasks = import_program()
    config = experiment.load_config(config_path)
    tasks.generate_task(config.task)
    supernet.build_supernet(config.net, config.seeds[0])
    setup_s = time.perf_counter() - _T0

    import probe
    ref_start = reference_loop()
    counter = probe.ExampleCounter().install()
    tracer = probe.Tracer().install() if args.trace else None

    n_seeds = len(spec["config"]["seeds"])
    attempted = failed = 0
    problems = []
    per_command = []
    first_report = None
    start = time.perf_counter()
    # Every command writes the same directory, so its report is byte-identical
    # to the first command's.
    report_dir = os.path.join(run_dir, "report")
    while True:
        index = len(per_command)
        shutil.rmtree(report_dir, ignore_errors=True)
        if tracer is not None:
            tracer.reset()
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            try:
                rc = cli.main(command + ["--out", report_dir])
            except SystemExit as exc:
                rc = exc.code
        run_s = time.perf_counter() - t0
        counts = counter.take()
        attempted += n_seeds
        if rc != 0:
            failed += n_seeds
            print(f"perfbench: command exited {rc}", file=sys.stderr)
        else:
            files = _read_report(report_dir)
            lines = printed.getvalue().strip().splitlines()
            problems += checks.check_command(files, lines[-1] if lines else "", counts, spec)
            if "report.json" not in files:
                break
            if first_report is None:
                first_report = files["report.json"]
            try:
                checks.check_rerun(first_report, files["report.json"])
            except checks.CheckFailed as exc:
                problems.append(f"{exc} (command {index})")
            report = json.loads(files["report.json"])
            for seed in checks.untrained_seeds(report):
                print(f"perfbench: known fault: seed {seed} never trained (one class"
                      " predicted everywhere); left out of the accuracy check", file=sys.stderr)
            accs = [s["metrics"]["accuracy"] for s in report["per_seed"]]
            figures = {
                "run_s": run_s,
                "train_examples_per_s": sum(counts) / run_s,
                "test_accuracy": sum(accs) / len(accs),
            }
            if tracer is not None:
                figures.update(tracer.metrics())
                figures["experiment.report_bytes"] = sum(len(t.encode()) for t in files.values())
                figures["tasks.examples_served"] = sum(counts)
            per_command.append(figures)
        if rc != 0 or time.perf_counter() - start >= args.seconds:
            break
    ref_end = reference_loop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
    counter.restore()

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    def median(name):
        return statistics.median(r[name] for r in per_command)

    print(f"perfbench: {args.workload} seed {args.seed}: {len(per_command)} command(s),"
          f" run_s {[round(r['run_s'], 3) for r in per_command]}, host.ref_s start"
          f" {ref_start:.4f} end {ref_end:.4f}", file=sys.stderr)
    if not per_command:
        metrics = {}
    elif tracer is None:
        metrics = {
            "run_s": {"value": median("run_s"), "unit": "s"},
            "train_examples_per_s": {"value": median("train_examples_per_s"),
                                     "unit": "examples/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "test_accuracy": {"value": median("test_accuracy"), "unit": "%"},
        }
    else:
        trace_dir = os.path.join(OUT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        _write_json(trace_path, {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": tracer.spans,
            "commands": per_command,
        })
        metrics = {name: {"value": median(name), "unit": _unit(name)}
                   for name in per_command[0]
                   if name not in ("run_s", "train_examples_per_s", "test_accuracy")}
        metrics["host.ref_s"] = {"value": (ref_start + ref_end) / 2, "unit": "s"}
        print(f"perfbench: traced run_s {median('run_s'):.4f}; spans in {trace_path}",
              file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name):
    special = {"tensor.matmul.gflop": "GFLOP", "tensor.matmul.gflops_per_s": "GFLOP/s",
               "experiment.report_bytes": "bytes"}
    if name in special:
        return special[name]
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
