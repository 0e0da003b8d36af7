"""Byte-for-byte comparison of the files two source trees' CLI writes.

    python3 tools/compare_reports.py SRC_A SRC_B

SRC_A and SRC_B are directories that hold a ``peftsearch`` package, such
as the ``src/`` of two checkouts. For each tree, one subprocess runs a
fixed set of ``peftsearch`` commands in a fresh temporary directory,
with relative ``--out`` paths, so the ``report_dir`` a report records is
the same for both trees. The set covers a small config in every mode,
low fidelity, ``reinit_survivors: false``, a head-only budget whose last
prune round takes fewer than ``k`` modules, a warm-up whose criteria all
tie, a split the batch size does not divide, a relu net with a linear
parallel adapter, a net whose gelu and layer-norm arrays span several
row blocks of ``peftsearch.tensor`` and end in a partial one, a budget
that needs no prune round, both exports and both imports, ``report``,
and the three benchmark workloads of ``perfbench/workloads.py`` at
seed 1. Every file left in the two directories is then compared,
together with each command's exit code and printed output (kept in
``commands.json``). The exit code is 0 when every file is byte-identical
and 1 otherwise, with each differing file named and the first lines of
its diff shown. The last line gives each tree's count of non-blank,
non-comment lines in ``peftsearch/*.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import glob
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

TASK = {"name": "small", "vocab_size": 12, "seq_len": 8, "num_classes": 2,
        "generator": "token-majority", "train_size": 40, "val_size": 8,
        "test_size": 16, "seed": 5}
NET = {"num_layers": 4, "d_model": 16, "num_heads": 2, "d_ff": 16,
       "sa_bottleneck": 4, "pa_rank": 2, "vocab_size": 12, "num_classes": 2,
       "max_seq_len": 8}
SMALL = {"task": TASK, "supernet": NET, "seeds": [0, 1],
         "low_fidelity_fraction": 0.25,
         "warmup": {"rounds": 1, "trim_fraction": 0.5},
         "training": {"retrain_epochs": 2, "lr": 0.001, "batch_size": 20}}
MODES = ("hybrid", "random-prune", "no-partition", "no-prune", "single:weight",
         "single:zeros", "single:threshold", "single:activation",
         "single:sensitivity", "single:gradient")
WORKLOAD_SEED = 1


def inputs() -> dict:
    """File name -> JSON document, written before the commands run."""
    docs = {
        "small.json": SMALL,
        "other.json": dict(SMALL, task=dict(TASK, name="other",
                                            generator="pattern-presence", seed=9)),
        "noreinit.json": dict(SMALL, schedule={"reinit_survivors": False}),
        # the budget is the head size, so every module goes: 3, 3, then
        # the last 2 of the 8
        "head-only.json": dict(SMALL, schedule={"k": 3, "budget": 34}),
        # k is the module count: every criterion votes all 8 modules, every
        # concentration ties and goes to weight, and one round prunes all 8
        "all-tied.json": dict(SMALL, schedule={"k": 8, "budget": 34}),
        # 50 examples in batches of 20: every pass ends with a short batch
        "odd.json": dict(SMALL, task=dict(TASK, train_size=50)),
        "relu.json": dict(SMALL, supernet=dict(NET, activation="relu", pa_linear=True)),
        # 320 training rows per batch: the (320, 384) gelu and (320, 128)
        # layer-norm arrays run as 85- and 256-row blocks, each with a
        # partial last block
        "blocks.json": dict(SMALL, task=dict(TASK, seq_len=16),
                            supernet=dict(NET, d_model=128, d_ff=384, max_seq_len=16)),
    }
    for name in workloads.WORKLOADS:
        spec = workloads.make(name, WORKLOAD_SEED)
        docs[f"{name}.json"] = spec["config"]
        if spec["arch"] is not None:
            docs[f"{name}-arch.json"] = spec["arch"]
    return docs


def commands(docs: dict):
    """(name, argv) pairs, run in order; later ones read earlier outputs."""
    cmds = [(f"mode-{mode}", ["run", "--config", "small.json", "--mode", mode,
                              "--out", f"runs/{mode}"])
            for mode in MODES]
    cmds += [
        ("low-fidelity", ["run", "--config", "small.json", "--fidelity", "low",
                          "--out", "runs/low"]),
        ("no-reinit", ["run", "--config", "noreinit.json", "--out", "runs/noreinit"]),
        ("head-only", ["run", "--config", "head-only.json", "--out", "runs/head-only"]),
        ("all-tied", ["run", "--config", "all-tied.json", "--out", "runs/all-tied"]),
        ("all-tied-no-partition", ["run", "--config", "all-tied.json", "--mode",
                                   "no-partition", "--out", "runs/all-tied-no-partition"]),
        ("odd-split", ["run", "--config", "odd.json", "--out", "runs/odd"]),
        ("relu-pa-linear", ["run", "--config", "relu.json", "--out", "runs/relu"]),
        ("row-blocks", ["run", "--config", "blocks.json", "--out", "runs/blocks"]),
        ("no-rounds", ["run", "--config", "small.json", "--budget", "1000000",
                       "--out", "runs/no-rounds"]),
        ("export-strategy", ["export-strategy", "--run", "runs/hybrid",
                             "--out", "strategy.json"]),
        ("export-arch", ["export-arch", "--run", "runs/hybrid", "--out", "arch.json"]),
        ("import-strategy", ["import-strategy", "--config", "other.json",
                             "--strategy", "strategy.json", "--out", "runs/import-strategy"]),
        ("import-arch", ["import-arch", "--config", "other.json", "--arch", "arch.json",
                         "--out", "runs/import-arch"]),
        ("report", ["report", "--run", "runs/hybrid", "--out", "runs/report-copy"]),
    ]
    for name in workloads.WORKLOADS:
        argv = ["--config", f"{name}.json", "--out", f"runs/{name}"]
        if f"{name}-arch.json" in docs:
            cmds.append((name, ["import-arch", "--arch", f"{name}-arch.json"] + argv))
        else:
            cmds.append((name, ["run"] + argv))
    return cmds


def emit(src: str):
    """Run every command in the current directory against ``src``."""
    sys.path.insert(0, src)
    import peftsearch
    from peftsearch import cli

    package = os.path.dirname(os.path.abspath(peftsearch.__file__))
    if package != os.path.join(os.path.abspath(src), "peftsearch"):
        sys.exit(f"compare_reports: imported peftsearch from {package}, not {src}")
    docs = inputs()
    for name, doc in docs.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    log = []
    for name, argv in commands(docs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        log.append({"name": name, "argv": argv, "exit": code,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})
        print(f"compare_reports: {name}: exit {code}", file=sys.stderr)
    with open("commands.json", "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=2)


def _files(top: str) -> dict:
    found = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = fh.read()
    return found


def src_lines(src: str) -> int:
    """Non-blank lines of ``src/peftsearch/*.py`` that are not comments."""
    count = 0
    for path in sorted(glob.glob(os.path.join(src, "peftsearch", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            count += sum(1 for line in fh
                         if line.strip() and not line.lstrip().startswith("#"))
    return count


def compare(src_a: str, src_b: str) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    trees = []
    with contextlib.ExitStack() as stack:
        for src in (src_a, src_b):
            work = stack.enter_context(tempfile.TemporaryDirectory(prefix="compare-reports-"))
            print(f"compare_reports: running the command set against {src}", file=sys.stderr)
            subprocess.run([sys.executable, os.path.abspath(__file__), "--emit",
                            os.path.abspath(src)], cwd=work, env=env, check=True)
            trees.append(_files(work))
    a, b = trees
    differing = 0
    for name in sorted(set(a) | set(b)):
        if a.get(name) == b.get(name):
            continue
        differing += 1
        if name not in a or name not in b:
            print(f"only in {'B' if name not in a else 'A'}: {name}")
            continue
        diff = list(difflib.unified_diff(
            a[name].decode().splitlines(), b[name].decode().splitlines(),
            "A/" + name, "B/" + name, lineterm="", n=0))
        print(f"differs: {name}")
        for line in diff[:12]:
            print("    " + line)
    print(f"{len(set(a) | set(b))} files, {differing} differing")
    print(f"src lines: {src_lines(src_a)} -> {src_lines(src_b)}")
    return 1 if differing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/compare_reports.py")
    parser.add_argument("src", nargs="+", metavar="SRC",
                        help="SRC_A SRC_B: two directories that hold peftsearch")
    parser.add_argument("--emit", action="store_true",
                        help="run the command set against one SRC in the current directory")
    args = parser.parse_args(argv)
    if args.emit:
        if len(args.src) != 1:
            parser.error("--emit takes one SRC")
        emit(args.src[0])
        return 0
    if len(args.src) != 2:
        parser.error("give two source directories")
    return compare(*args.src)


if __name__ == "__main__":
    sys.exit(main())
