"""Instrumentation applied to ``peftsearch`` from outside.

Nothing here edits the program: every hook replaces a module or class
attribute with a wrapper, at the name its caller looks up, and ``restore``
puts the originals back. ``pruner`` and ``criteria`` bind ``backward``,
``softmax_cross_entropy`` and ``Adam`` by name at import, so those names
are wrapped in every namespace that holds them.

``ExampleCounter`` is cheap (one wrapper call per batch) and runs on every
benchmark run. ``Tracer`` times every layer's public functions and every
autodiff primitive, and only runs with ``--trace 1``.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Every primitive in tensor.py that records a graph node with a backward
# function. ``activation`` only dispatches to relu/gelu, so it is not one.
TENSOR_OPS = ("matmul", "add", "mul", "scale", "reshape", "transpose", "relu",
              "gelu", "softmax", "layer_norm", "embedding", "mean", "total",
              "softmax_cross_entropy")


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def _modules():
    from peftsearch import criteria, experiment, pruner, strategy, supernet, tasks, tensor
    return criteria, experiment, pruner, strategy, supernet, tasks, tensor


class ExampleCounter:
    """Training examples served by ``tasks.Batcher``, split by phase.

    Examples served while ``pruner.retrain`` runs are retrain examples;
    every other batch belongs to the search (warm-up and prune rounds).
    """

    def __init__(self):
        self.search = 0
        self.retrain = 0
        self._in_retrain = False
        self._patches = _Patches()

    def install(self):
        _, _, pruner, _, _, tasks, _ = _modules()
        next_batch = tasks.Batcher.__next__
        retrain = pruner.retrain

        def counted_next(batcher):
            tokens, labels = next_batch(batcher)
            if self._in_retrain:
                self.retrain += len(labels)
            else:
                self.search += len(labels)
            return tokens, labels

        def phased_retrain(*args, **kwargs):
            self._in_retrain = True
            try:
                return retrain(*args, **kwargs)
            finally:
                self._in_retrain = False

        self._patches.set(tasks.Batcher, "__next__", counted_next)
        self._patches.set(pruner, "retrain", phased_retrain)
        return self

    def take(self):
        """(search, retrain) counts since the last call."""
        counts = (self.search, self.retrain)
        self.search = self.retrain = 0
        return counts

    def restore(self):
        self._patches.restore()


def count_graph_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Spans around each layer's public functions, kept in memory.

    A span is (id, parent id, name, start, end). Autodiff primitives run
    about 1700 times per training step, so their spans are not kept: they
    are summed into per-name totals at once. Every span, kept or not, adds
    its duration to its parent's child time, so self time (duration minus
    the time children cover) is exact for every name.
    """

    def __init__(self):
        self.spans = []
        self._stack = []  # frames: [child seconds, id of nearest kept span]
        self._next_id = 0
        self.reset()

    def reset(self):
        """Start a new accounting window (spans are kept across windows)."""
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.matmul_flop = 0
        self.evaluate_examples = 0
        self.nodes_per_step = None

    # -- wrappers -------------------------------------------------------

    def timed(self, name, fn, keep=True):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                self.total[name] += d
                self.self_time[name] += d - frame[0]
                self.calls[name] += 1
                if keep:
                    self.spans.append((sid, parent, name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, op, fn):
        timed_fwd = self.timed(f"tensor.{op}", fn, keep=False)
        bwd_name = f"tensor.{op}.bwd"
        is_matmul = op == "matmul"

        def wrapper(*args, **kwargs):
            out = timed_fwd(*args, **kwargs)
            flop = 0
            if is_matmul:
                flop = 2 * out.data.size * args[0].data.shape[-1]
                self.matmul_flop += flop
            inner = out._backward_fn
            if inner is not None:
                timed_bwd = self.timed(bwd_name, inner, keep=False)
                if is_matmul:
                    def bwd(g, needs):
                        self.matmul_flop += flop * sum(bool(n) for n in needs)
                        return timed_bwd(g, needs)
                    out._backward_fn = bwd
                else:
                    out._backward_fn = timed_bwd
            return out

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        criteria, experiment, pruner, strategy, supernet, tasks, tensor = _modules()
        p = self._patches = _Patches()

        for op in TENSOR_OPS:
            wrapped = self._op(op, getattr(tensor, op))
            p.set(tensor, op, wrapped)
            for holder in (pruner, criteria):
                if op in vars(holder):
                    p.set(holder, op, wrapped)

        timed_backward = self.timed("tensor.backward", tensor.backward)

        def backward(loss, *args, **kwargs):
            if self.nodes_per_step is None:
                self.nodes_per_step = count_graph_nodes(loss)
            return timed_backward(loss, *args, **kwargs)

        for holder in (tensor, pruner, criteria):
            p.set(holder, "backward", backward)
        p.set(tensor.Adam, "step", self.timed("tensor.adam_step", tensor.Adam.step))

        p.set(supernet, "build_supernet", self.timed("supernet.build", supernet.build_supernet))
        p.set(supernet, "reinitialize", self.timed("supernet.reinitialize", supernet.reinitialize))
        p.set(supernet.Supernet, "forward", self.timed("supernet.forward", supernet.Supernet.forward))

        p.set(criteria, "collect_stats", self.timed("criteria.collect_stats", criteria.collect_stats))
        p.set(criteria, "score_group", self.timed("criteria.score_group", criteria.score_group))

        p.set(strategy, "warmup", self.timed("strategy.warmup", strategy.warmup))
        for factory in ("hybrid_scorer", "random_scorer"):
            p.set(strategy, factory, self._scorer_factory(getattr(strategy, factory)))

        p.set(pruner, "run_search", self.timed("pruner.run_search", pruner.run_search))
        p.set(pruner, "prune_round", self.timed("pruner.prune_round", pruner.prune_round))
        p.set(pruner, "retrain", self.timed("pruner.retrain", pruner.retrain))
        timed_evaluate = self.timed("pruner.evaluate", pruner.evaluate)

        def evaluate(net, dataset, *args, **kwargs):
            self.evaluate_examples += len(dataset)
            return timed_evaluate(net, dataset, *args, **kwargs)

        p.set(pruner, "evaluate", evaluate)

        p.set(experiment, "run_experiment",
              self.timed("experiment.run_experiment", experiment.run_experiment))
        p.set(experiment, "emit_reports",
              self.timed("experiment.emit_reports", experiment.emit_reports))
        p.set(tasks, "generate_task", self.timed("tasks.generate_task", tasks.generate_task))
        p.set(tasks.Batcher, "__next__", self.timed("tasks.batch", tasks.Batcher.__next__))
        return self

    def _scorer_factory(self, factory):
        def make(*args, **kwargs):
            return self.timed("strategy.scorer", factory(*args, **kwargs))
        return make

    def restore(self):
        self._patches.restore()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures for the current window, as {name: value}."""
        t, n = self.total, self.calls
        out = {}
        for op in TENSOR_OPS:
            out[f"tensor.{op}.fwd_s"] = t[f"tensor.{op}"]
            out[f"tensor.{op}.bwd_s"] = t[f"tensor.{op}.bwd"]
            out[f"tensor.{op}.calls"] = n[f"tensor.{op}"]
        matmul_s = t["tensor.matmul"] + t["tensor.matmul.bwd"]
        out.update({
            "tensor.nodes_per_step": self.nodes_per_step or 0,
            "tensor.backward_s": t["tensor.backward"],
            "tensor.adam_step_s": t["tensor.adam_step"],
            "tensor.matmul.gflop": self.matmul_flop / 1e9,
            "tensor.matmul.gflops_per_s": self.matmul_flop / 1e9 / matmul_s if matmul_s else 0.0,
            "supernet.build_s": t["supernet.build"],
            "supernet.forward_s": t["supernet.forward"],
            "supernet.forward_calls": n["supernet.forward"],
            "supernet.reinitialize_s": t["supernet.reinitialize"],
            "criteria.collect_stats_s": self.self_time["criteria.collect_stats"],
            "criteria.score_group_s": t["criteria.score_group"],
            "strategy.warmup_s": t["strategy.warmup"],
            "strategy.scorer_s": t["strategy.scorer"],
            "pruner.run_search_s": t["pruner.run_search"],
            "pruner.prune_rounds": n["pruner.prune_round"],
            "pruner.retrain_s": t["pruner.retrain"],
            "pruner.evaluate_s": t["pruner.evaluate"],
            "pruner.evaluate_examples": self.evaluate_examples,
            "experiment.run_experiment_s": t["experiment.run_experiment"],
            "experiment.emit_reports_s": t["experiment.emit_reports"],
            "tasks.generate_task_s": t["tasks.generate_task"],
            "tasks.batch_s": t["tasks.batch"],
        })
        return out
