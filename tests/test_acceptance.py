"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line for its numbered check; the slow
ablation study shares module-scoped fixtures so each experiment runs once.
"""

import json
import sys
import time

import numpy as np
import pytest

from peftsearch import cli
from peftsearch import criteria as C
from peftsearch import experiment as E
from peftsearch import pruner as P
from peftsearch import strategy as ST
from peftsearch import supernet as S
from peftsearch import tasks as TK
from peftsearch import tensor as T
from conftest import central_diff, rel_error


def _report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] acceptance {number} ({title})"
    if detail:
        line += f": {detail}"
    print(line, file=sys.__stdout__, flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _primitive_trials(rng):
    """Yield (name, graph builder over Tensors, list of parameter arrays).

    Each builder maps Tensor arguments to a scalar loss Tensor; finite
    differences re-run the same builder on perturbed copies.
    """
    for _ in range(8):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        yield "matmul", lambda a, b: T.total(T.matmul(a, b)), [a, b]
        x = rng.normal(size=(2, 5))
        y = rng.normal(size=(2, 5))
        yield "add", lambda x, y: T.total(T.add(x, y)), [x, y]
        yield "mul", lambda x, y: T.total(T.mul(x, y)), [x, y]
        c = float(rng.normal())
        yield "scale", lambda x, c=c: T.total(T.scale(x, c)), [x]
        up = T.Tensor(rng.normal(size=10))
        yield "reshape", lambda x, up=up: T.total(
            T.mul(T.reshape(x, (10,)), up)), [x]
        up2 = T.Tensor(rng.normal(size=(5, 2)))
        yield "transpose", lambda x, up=up2: T.total(
            T.mul(T.transpose(x, (1, 0)), up)), [x]
        z = rng.normal(size=(3, 6)) + 0.05  # keep clear of the relu kink
        yield "relu", lambda z: T.total(T.relu(z)), [z]
        yield "gelu", lambda z: T.total(T.gelu(z)), [z]
        up3 = T.Tensor(rng.normal(size=(3, 6)))
        yield "softmax", lambda z, up=up3: T.total(T.mul(T.softmax(z), up)), [z]
        g = rng.normal(size=6)
        bb = rng.normal(size=6)
        yield "layer_norm", lambda z, g, bb, up=up3: T.total(
            T.mul(T.layer_norm(z, g, bb), up)), [z, g, bb]
        table = rng.normal(size=(7, 3))
        ids = rng.integers(0, 7, size=(2, 4))
        yield "embedding", lambda table, ids=ids: T.total(
            T.embedding(table, ids)), [table]
        yield "mean", lambda z: T.total(T.mean(z, axis=1)), [z]
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, 4)
        yield "cross_entropy", lambda logits, labels=labels: (
            T.softmax_cross_entropy(logits, labels)), [logits]


def test_acceptance_1_gradient_correctness():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    trials = 0
    worst = 0.0
    for name, build, arrays in _primitive_trials(rng):
        tensors = [T.Tensor(arr, requires_grad=True) for arr in arrays]
        T.backward(build(*tensors), params=tensors)
        for i, arr in enumerate(arrays):
            def f(v, i=i):
                args = [T.Tensor(a if j != i else v)
                        for j, a in enumerate(arrays)]
                return float(build(*args).data)
            fd = central_diff(f, arr.copy())
            worst = max(worst, float(rel_error(tensors[i].grad, fd)))
            trials += 1

    # composed check: a 2-layer supernet with both adapter kinds active
    cfg = S.SupernetConfig(2, 8, 2, 8, 2, 2, 10, 2, 4)
    net = S.build_supernet(cfg, seed=0)
    tokens = rng.integers(0, 10, size=(2, 4))
    labels = rng.integers(0, 2, 2)
    params = net.trainable_params()
    loss = T.softmax_cross_entropy(net.forward(tokens)[0], labels)
    T.backward(loss, params=params)
    for p in params:
        def f(v, p=p):
            saved = p.data
            p.data = v
            out = float(T.softmax_cross_entropy(net.forward(tokens)[0], labels).data)
            p.data = saved
            return out
        fd = central_diff(f, p.data.copy())
        worst = max(worst, float(rel_error(p.grad, fd)))
        trials += 1

    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and trials >= 100 and elapsed < 60
    assert _report(1, "gradient correctness",
                   ok, f"{trials} trials, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. criterion oracle equivalence


def test_acceptance_2_criterion_oracles():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    checks = 0
    for _ in range(1000):
        n = 16
        w = rng.normal(size=n)
        w[rng.integers(0, n, rng.integers(0, 4))] = 0.0
        g_sum = np.abs(rng.normal(size=n)) * 3
        wg_sum = np.abs(w) * g_sum
        act_sum = float(abs(rng.normal())) * 10
        act_n = int(rng.integers(1, 50))
        steps = 3
        stats = C.ModuleStats(weights=w, grad_abs=g_sum, weight_grad_abs=wg_sum,
                              activation_abs_sum=act_sum, activation_count=act_n,
                              num_batches=steps)
        t = float(abs(rng.normal())) + 1e-3
        oracle = {
            "weight": sum(float(x) * float(x) for x in w) / n,
            "zeros": sum(1 for x in w if float(x) != 0.0) / n,
            "threshold": sum(1 for x in w if abs(float(x)) < t) / n,
            "activation": act_sum / act_n,
            "sensitivity": sum(float(v) / steps for v in wg_sum) / n,
            "gradient": sum(float(v) / steps for v in g_sum) / n,
        }
        for tag, want in oracle.items():
            crit = C.Criterion(tag, t if tag == "threshold" else None)
            got = C.raw_score(crit, stats)
            worst = max(worst, abs(got - want))
            checks += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10
    assert _report(2, "criterion oracle equivalence", ok,
                   f"{checks} checks, worst abs err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. pruning-probability contract


def test_acceptance_3_probability_contract():
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 32))
        u = rng.normal(size=n)
        lo, hi = u.min(), u.max()
        theta_hat = (u - lo) / (hi - lo) if hi > lo else np.full(n, 0.5)
        ranks = rng.permutation(n) + 1
        ids = [S.PeftModuleId(i, "SA") for i in range(n)]
        pv = ST.prune_probabilities(zip(ids, theta_hat, ranks))
        if abs(pv.p.sum() - 1.0) > 1e-9 or np.any(pv.p <= 0):
            violations += 1
            continue
        for i in range(n):
            for j in range(n):
                if theta_hat[i] > theta_hat[j] and ranks[i] > ranks[j]:
                    if not pv.p[i] > pv.p[j]:
                        violations += 1
    ok = violations == 0
    assert _report(3, "probability contract", ok,
                   f"1000 score sets, {violations} violations")


# ---------------------------------------------------------------------------
# 4. mask and budget invariants


def test_acceptance_4_mask_budget_invariants():
    rng = np.random.default_rng(404)
    task = TK.SyntheticTaskSpec("inv", 12, 8, 2, "token-majority", 20, 4, 4, 1)
    train, _, _ = TK.generate_task(task)
    failures = []
    for trial in range(20):
        layers = int(rng.choice([4, 5, 6, 8]))
        d_model = int(rng.choice([16, 32]))
        cfg = S.SupernetConfig(layers, d_model, 2, d_model,
                               int(rng.integers(2, 6)), int(rng.integers(1, 4)),
                               12, 2, 8)
        net = S.build_supernet(cfg, seed=trial)
        k = int(rng.integers(1, 4))
        full = S.trainable_param_count(net)
        head = cfg.head_param_count()
        budget = int(rng.integers(head, full))
        if trial % 2 == 0:
            parts = ST.partition_layers(layers)
            strategy = [(p, C.Criterion(str(rng.choice(C.CRITERIA_ORDER))))
                        for p in parts]
            scorer = ST.hybrid_scorer(strategy)
        else:
            scorer = ST.random_scorer()
        records, _ = P.run_search(net, train, scorer, budget, k, steps=1,
                                  reinit_survivors=True, lr=1e-3, batch_size=10,
                                  seed=trial)
        counts = [full] + [r.param_count_after for r in records]
        if any(b >= a for a, b in zip(counts, counts[1:])):
            failures.append(f"trial {trial}: params not strictly decreasing")
        if counts[-1] > budget:
            failures.append(f"trial {trial}: final {counts[-1]} > budget {budget}")
        for rec in records:
            want = P.select_top_k(rec.probabilities, len(rec.pruned))
            if rec.pruned != want:
                failures.append(f"trial {trial}: round {rec.round_index} not argmax-k")
    ok = not failures
    assert _report(4, "mask and budget invariants", ok,
                   failures[0] if failures else "20 randomized configs clean")


# ---------------------------------------------------------------------------
# 5. reinitialization statistics


def test_acceptance_5_reinit_statistics():
    rng = np.random.default_rng(505)
    details = []
    ok = True
    for d in (16, 64, 256):
        # sample the projection whose output dimension is d
        if d < 256:
            mod = S.PeftModule(S.PeftModuleId(0, "SA"), d_model=512, bottleneck=d,
                               rng=rng)
            draw = lambda: S.reinitialize(mod, rng).w_down.data.ravel()
        else:
            mod = S.PeftModule(S.PeftModuleId(0, "SA"), d_model=256, bottleneck=8,
                               rng=rng)
            draw = lambda: S.reinitialize(mod, rng).w_up.data.ravel()
        samples = []
        while sum(len(s) for s in samples) < 100_000:
            samples.append(draw())
        samples = np.concatenate(samples)
        n = len(samples)
        want_std = 1.0 / np.sqrt(d)
        se = want_std / np.sqrt(n)
        mean_ok = abs(samples.mean()) <= 3 * se
        std_ok = abs(samples.std() - want_std) <= 0.05 * want_std
        ok = ok and mean_ok and std_ok
        details.append(f"d={d}: n={n} mean {samples.mean():+.2e} (3se {3 * se:.2e})"
                       f" std {samples.std():.4f} (want {want_std:.4f})")
    assert _report(5, "reinitialization statistics", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. stratified trim


def test_acceptance_6_stratified_trim():
    task = TK.SyntheticTaskSpec("trim", 24, 8, 2, "token-majority", 400, 8, 8, 2)
    train, _, _ = TK.generate_task(task)
    class_counts = {label: int((train.labels == label).sum())
                    for label in np.unique(train.labels)}
    worst = 0
    for fraction in (0.01, 0.1, 0.5):
        for seed in range(100):
            d = TK.stratified_trim(train, fraction, seed)
            for label, total in class_counts.items():
                got = int((d.labels == label).sum())
                worst = max(worst, abs(got - fraction * total))
    ok = worst <= 1
    assert _report(6, "stratified trim proportions", ok,
                   f"3 fractions x 100 seeds, worst deviation {worst:.2f} examples")


# ---------------------------------------------------------------------------
# 7 + 8. ablation study and search overhead at the reference scale


ABLATION_NET = S.SupernetConfig(24, 64, 4, 64, 8, 4, 24, 2, 8)
ABLATION_TASKS = (
    TK.SyntheticTaskSpec("majority", 24, 8, 2, "token-majority", 240, 48, 120, 11),
    TK.SyntheticTaskSpec("pattern", 12, 8, 2, "pattern-presence", 240, 48, 120, 22),
    TK.SyntheticTaskSpec("parity", 12, 8, 2, "position-sensitive-parity",
                         240, 48, 120, 33),
)


def _ablation_config(task, mode, **overrides):
    base = dict(task=task, net=ABLATION_NET, mode=mode, seeds=(0, 1, 2, 3, 4),
                batch_size=40, retrain_epochs=20)
    base.update(overrides)
    return E.ExperimentConfig(**base)


@pytest.fixture(scope="module")
def ablation_reports():
    start = time.monotonic()
    reports = {}
    for mode in ("hybrid", "random-prune", "no-prune"):
        for task in ABLATION_TASKS:
            cfg = _ablation_config(task, mode)
            reports[(mode, task.name)] = E.run_experiment(cfg)
    return reports, time.monotonic() - start


def _mode_mean(reports, mode):
    accs = [sr["metrics"]["accuracy"]
            for (m, _), doc in reports.items() if m == mode
            for sr in doc["per_seed"]]
    return float(np.mean(accs))


def test_acceptance_7_ablation_ordering(ablation_reports):
    reports, elapsed = ablation_reports
    hybrid = _mode_mean(reports, "hybrid")
    random_prune = _mode_mean(reports, "random-prune")
    no_prune = _mode_mean(reports, "no-prune")
    ok = (hybrid >= random_prune and hybrid >= no_prune - 0.5
          and elapsed <= 30 * 60)
    assert _report(
        7, "ablation ordering", ok,
        f"hybrid {hybrid:.2f} vs random-prune {random_prune:.2f}"
        f" vs no-prune {no_prune:.2f} (3 tasks x 5 seeds, {elapsed / 60:.1f} min)")


def test_acceptance_8_search_overhead(ablation_reports):
    reports, _ = ablation_reports
    full_doc = reports[("hybrid", "majority")]
    full = E.epoch_summary(full_doc)

    low_cfg = _ablation_config(ABLATION_TASKS[0], "hybrid", seeds=(0,),
                               fidelity="low")
    low = E.epoch_summary(E.run_experiment(low_cfg))

    # worst case of the pruning loop: one adapter pair per layer, default k,
    # one epoch per round
    net = S.build_supernet(ABLATION_NET, 0)
    bound = P.search_cost_bound(1, 1, ABLATION_NET.num_layers, P.default_k(net), 1.0)

    ok = (full["ratio"] <= 0.5 and low["ratio"] <= 0.05
          and full["prune_epochs"] <= bound and low["prune_epochs"] <= bound)
    assert _report(
        8, "search overhead", ok,
        f"full ratio {full['ratio']:.3f} (<=0.5), low ratio {low['ratio']:.3f}"
        f" (<=0.05), prune epochs {full['prune_epochs']:.2f}/{low['prune_epochs']:.2f}"
        f" vs bound {bound:.1f}")


# ---------------------------------------------------------------------------
# 9. transferability


TRANSFER_NET = S.SupernetConfig(8, 32, 4, 32, 8, 4, 24, 2, 8)
TRANSFER_SOURCE = TK.SyntheticTaskSpec("src", 12, 8, 2, "pattern-presence",
                                       240, 48, 120, 44)
TRANSFER_TARGET = TK.SyntheticTaskSpec("dst", 24, 8, 2, "token-majority",
                                       480, 48, 120, 55)


def test_acceptance_9_transferability():
    def mean_acc(report_doc):
        return float(np.mean([sr["metrics"]["accuracy"]
                              for sr in report_doc["per_seed"]]))

    base = dict(net=TRANSFER_NET, batch_size=40, retrain_epochs=20)
    source_cfg = E.ExperimentConfig(task=TRANSFER_SOURCE, seeds=(0,), **base)
    source = E.run_experiment(source_cfg)

    # document round trips must be byte-exact
    strategy_doc = E.export_strategy(source)
    arch_doc = E.export_architecture(source)
    strategy_rt = json.loads(json.dumps(strategy_doc, sort_keys=True))
    arch_rt = json.loads(json.dumps(arch_doc, sort_keys=True))
    round_trip_ok = (
        json.dumps(strategy_rt, sort_keys=True) == json.dumps(strategy_doc, sort_keys=True)
        and json.dumps(arch_rt, sort_keys=True) == json.dumps(arch_doc, sort_keys=True))
    round_trip_ok = (round_trip_ok and
                     ST.strategy_to_doc(ST.strategy_from_doc(strategy_rt)) == strategy_doc)

    seeds = (0, 1, 2, 3, 4)
    native_cfg = E.ExperimentConfig(task=TRANSFER_TARGET, seeds=seeds, **base)
    native = mean_acc(E.run_experiment(native_cfg))
    transfer_cfg = E.import_strategy(strategy_doc, native_cfg)
    transferred = mean_acc(E.run_experiment(transfer_cfg))

    gap = abs(native - transferred)
    ok = round_trip_ok and gap <= 1.0
    assert _report(
        9, "transferability", ok,
        f"round trips {'exact' if round_trip_ok else 'BROKEN'}, native {native:.2f}"
        f" vs transferred {transferred:.2f} (gap {gap:.2f}, 5 seeds)")


# ---------------------------------------------------------------------------
# 10. determinism of the command-line entry point


def test_acceptance_10_cli_determinism(tmp_path):
    task = TK.SyntheticTaskSpec("det", 12, 8, 2, "token-majority", 40, 8, 16, 5)
    net = S.SupernetConfig(4, 16, 2, 16, 4, 2, 12, 2, 8)
    cfg = E.ExperimentConfig(task=task, net=net, seeds=(0, 1), retrain_epochs=2,
                             warmup_rounds=1, trim_fraction=0.5)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(E.config_to_dict(cfg)), encoding="utf-8")

    out = tmp_path / "run"
    snapshots = []
    for _ in range(2):
        code = cli.main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
    identical = snapshots[0] == snapshots[1]
    assert _report(10, "deterministic runs", identical,
                   f"{len(snapshots[0])} report files byte-identical"
                   if identical else "outputs differ between invocations")
