import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftsearch import supernet as S
from peftsearch import tensor as T


def small_config(**overrides):
    base = dict(num_layers=4, d_model=16, num_heads=2, d_ff=16,
                sa_bottleneck=4, pa_rank=2, vocab_size=12, num_classes=2,
                max_seq_len=8)
    base.update(overrides)
    return S.SupernetConfig(**base)


@pytest.fixture
def net():
    return S.build_supernet(small_config(), seed=7)


@pytest.fixture
def tokens(rng):
    return rng.integers(0, 12, size=(3, 8))


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="num_heads"):
            small_config(d_model=16, num_heads=3)

    def test_rejects_wide_bottleneck(self):
        with pytest.raises(ValueError, match="sa_bottleneck"):
            small_config(sa_bottleneck=16)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            small_config(activation="swish")

    def test_module_ids_cover_both_kinds_per_layer(self):
        ids = small_config().module_ids()
        assert len(ids) == 8
        assert {m.kind for m in ids} == {"SA", "PA"}
        assert sorted(ids, key=S.PeftModuleId.sort_key) == ids

    def test_head_param_count(self):
        assert small_config().head_param_count() == 16 * 2 + 2


class TestMaskState:
    def test_all_active_initially(self, net):
        assert net.mask.num_active() == 8

    def test_deactivate_is_permanent_and_counted(self, net):
        mid = S.PeftModuleId(1, "SA")
        net.mask.deactivate(mid)
        assert not net.mask.is_active(mid)
        assert net.mask.num_active() == 7
        assert mid not in net.mask.active_ids()

    def test_unknown_module_rejected(self, net):
        with pytest.raises(KeyError):
            net.mask.deactivate(S.PeftModuleId(99, "SA"))

    def test_copy_is_independent(self, net):
        cp = net.mask.copy()
        cp.deactivate(S.PeftModuleId(0, "PA"))
        assert net.mask.is_active(S.PeftModuleId(0, "PA"))
        assert cp != net.mask


class TestForward:
    def test_logit_shape(self, net, tokens):
        assert net.forward(tokens)[0].data.shape == (3, 2)

    def test_too_long_sequence_rejected(self, net, rng):
        with pytest.raises(ValueError, match="max_seq_len"):
            net.forward(rng.integers(0, 12, size=(1, 9)))

    def test_masked_modules_never_touch_their_weights(self, net, tokens):
        """A fully masked net must equal the bare backbone bit for bit."""
        mask = net.mask.copy()
        for mid in mask.ids():
            mask.deactivate(mid)
        net.apply_mask(mask)
        logits, terms = net.forward(tokens)
        assert terms == {}
        reference = logits.data
        for mod in net.modules.values():
            mod.w_down.data = np.full_like(mod.w_down.data, np.nan)
            mod.w_up.data = np.full_like(mod.w_up.data, np.nan)
        poisoned = net.forward(tokens)[0].data
        assert np.array_equal(reference, poisoned)
        assert np.all(np.isfinite(poisoned))

    def test_zero_up_projection_matches_masked_output(self, net, tokens):
        """An adapter with W_up = 0 adds an exact zero term."""
        full = net.mask.copy()
        mask = net.mask.copy()
        mid = S.PeftModuleId(2, "SA")
        mask.deactivate(mid)
        net.apply_mask(mask)
        masked = net.forward(tokens)[0].data
        net.modules[mid].w_up.data = np.zeros_like(net.modules[mid].w_up.data)
        net.apply_mask(full)
        zeroed = net.forward(tokens)[0].data
        assert np.allclose(masked, zeroed, atol=0, rtol=0)

    def test_pa_uses_layer_input_not_base(self, net, tokens):
        # making the PA branch depend only on h_in: perturbing a later
        # backbone weight must leave an earlier recorded PA term unchanged
        _, terms_a = net.forward(tokens)
        net.layers[3].w1.data = net.layers[3].w1.data + 1.0
        _, terms_b = net.forward(tokens)
        pa0 = S.PeftModuleId(0, "PA")
        assert np.array_equal(terms_a[pa0], terms_b[pa0])

    def test_pa_linear_flag_changes_output(self, tokens):
        a = S.build_supernet(small_config(), seed=3)
        b = S.build_supernet(small_config(pa_linear=True), seed=3)
        out_a = a.forward(tokens)[0].data
        out_b = b.forward(tokens)[0].data
        assert not np.allclose(out_a, out_b)

    def test_predict_returns_argmax(self, net, tokens):
        logits = net.forward(tokens)[0].data
        assert np.array_equal(net.predict(tokens), logits.argmax(axis=1))

    def test_gradients_flow_to_all_active_adapters(self, net, tokens):
        params = net.trainable_params()
        labels = np.array([0, 1, 0])
        loss = T.softmax_cross_entropy(net.forward(tokens)[0], labels)
        T.backward(loss, params=params)
        for mid in net.mask.active_ids():
            g = net.modules[mid].flat_grads()
            assert np.any(g != 0), f"no gradient reached {mid}"

    def test_backbone_stays_frozen_during_training(self, net, tokens):
        before = [p.data.copy() for p in net.backbone_params()]
        params = net.trainable_params()
        opt = T.Adam(params, lr=0.01)
        loss = T.softmax_cross_entropy(net.forward(tokens)[0], np.array([0, 1, 0]))
        T.backward(loss, params=params)
        opt.step()
        for p, b in zip(net.backbone_params(), before):
            assert np.array_equal(p.data, b)


# ---------------------------------------------------------------------------
# the per-op layer composition, kept as the oracle of the fused layer


def _ref_proj(x, w):
    b, s, d = x.shape
    return T.reshape(T.matmul(T.reshape(x, (b * s, d)), w), (b, s, w.shape[1]))


def _ref_attention(net, x, layer):
    b, s, d = x.shape
    nh = net.config.num_heads
    dh = d // nh

    def split_heads(t):
        return T.transpose(T.reshape(t, (b, s, nh, dh)), (0, 2, 1, 3))

    q = split_heads(_ref_proj(x, layer.wq))
    k = split_heads(_ref_proj(x, layer.wk))
    v = split_heads(_ref_proj(x, layer.wv))
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    ctx = T.matmul(T.softmax(scores, axis=-1), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, s, d))
    return _ref_proj(ctx, layer.wo)


def reference_layer(net, h_in, i):
    """One layer built from the graph primitives, one node per op."""
    cfg = net.config
    layer = net.layers[i]
    a = T.layer_norm(T.add(h_in, _ref_attention(net, h_in, layer)), layer.ln1_g, layer.ln1_b)
    f = T.activation(T.add(_ref_proj(a, layer.w1), layer.b1), cfg.activation)
    f = T.add(_ref_proj(f, layer.w2), layer.b2)
    out = base = T.layer_norm(T.add(a, f), layer.ln2_g, layer.ln2_b)
    terms = {}
    sa_id, pa_id = S.PeftModuleId(i, "SA"), S.PeftModuleId(i, "PA")
    if net.mask.is_active(sa_id):
        m = net.modules[sa_id]
        term = _ref_proj(T.activation(_ref_proj(base, m.w_down), cfg.activation), m.w_up)
        terms[sa_id] = term.data
        out = T.add(out, term)
    if net.mask.is_active(pa_id):
        m = net.modules[pa_id]
        term = _ref_proj(_ref_proj(h_in, m.w_down), m.w_up)
        if not cfg.pa_linear:
            term = T.activation(term, cfg.activation)
        terms[pa_id] = term.data
        out = T.add(out, term)
    return out, terms


def reference_forward(net, tokens):
    seq = tokens.shape[1]
    x = T.add(T.embedding(net.embedding, tokens), T.Tensor(net.pos.data[:seq]))
    terms = {}
    for i in range(net.config.num_layers):
        x, layer_terms = reference_layer(net, x, i)
        terms.update(layer_terms)
    return T.add(T.matmul(T.mean(x, axis=1), net.head_w), net.head_b), terms


_MASKS = {
    "all-on": lambda mid: True,
    "all-off": lambda mid: False,
    "layer0-off": lambda mid: mid.layer != 0,
    "sa-off": lambda mid: mid.kind != "SA",
    "pa-off": lambda mid: mid.kind != "PA",
}


def _grads(params):
    return [p.grad.copy() for p in params]


@pytest.mark.parametrize("activation,pa_linear,mask,batch", list(itertools.product(
    ("gelu", "relu"), (False, True), sorted(_MASKS), (1, 3))))
def test_fused_layer_is_bit_equal_to_the_per_op_layer(activation, pa_linear, mask, batch):
    net = S.build_supernet(small_config(activation=activation, pa_linear=pa_linear), seed=5)
    flags = {mid: _MASKS[mask](mid) for mid in net.modules}
    net.apply_mask(S.MaskState(flags.keys(), flags))
    rng = np.random.default_rng(batch)
    tokens = rng.integers(0, 12, size=(batch, 8))
    labels = rng.integers(0, 2, size=batch)
    params = net.trainable_params()

    # whole net: logits, terms and every trainable gradient
    results = []
    for forward in (net.forward, lambda t: reference_forward(net, t)):
        logits, terms = forward(tokens)
        T.backward(T.softmax_cross_entropy(logits, labels), params=params)
        results.append((logits.data, terms, _grads(params)))
    (fused, fused_terms, fused_grads), (ref, ref_terms, ref_grads) = results
    assert np.array_equal(fused, ref)
    assert fused_terms.keys() == ref_terms.keys()
    assert all(np.array_equal(fused_terms[m], ref_terms[m]) for m in ref_terms)
    assert all(np.array_equal(a, b) for a, b in zip(fused_grads, ref_grads))

    # one layer at a time, with an input that needs its gradient
    up = T.Tensor(rng.normal(size=(batch, 8, 16)))
    for i in range(net.config.num_layers):
        h_data = rng.normal(size=(batch, 8, 16))
        results = []
        for layer in (net.layer_forward, lambda h, i: reference_layer(net, h, i)):
            h = T.Tensor(h_data, requires_grad=True)
            out, terms = layer(h, i)
            T.backward(T.total(T.mul(out, up)), params=[h] + params)
            results.append((out.data, terms, _grads([h] + params)))
        (out, terms, grads), (ref_out, ref_terms, ref_grads) = results
        assert np.array_equal(out, ref_out)
        assert terms.keys() == ref_terms.keys()
        assert all(np.array_equal(terms[m], ref_terms[m]) for m in ref_terms)
        assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))


@pytest.mark.parametrize("mask", ["all-on", "all-off", "layer0-off"])
def test_prediction_builds_no_graph_and_a_step_costs_the_same(mask, monkeypatch):
    net = S.build_supernet(small_config(), seed=5)
    flags = {mid: _MASKS[mask](mid) for mid in net.modules}
    net.apply_mask(S.MaskState(flags.keys(), flags))
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 12, size=(3, 8))
    backbone = S._backbone
    built, ran = [], []

    def counted_backbone(*args):
        base, backward = backbone(*args)
        if backward is None:
            return base, None
        built.append(backward)

        def counted(g):
            ran.append(g)
            return backward(g)

        return base, counted

    monkeypatch.setattr(S, "_backbone", counted_backbone)
    logits, terms = net.forward(tokens, grad=False)
    assert logits._parents == () and logits._backward_fn is None
    assert net.predict(tokens).shape == (3,)
    assert built == []
    graph_logits, graph_terms = net.forward(tokens)
    assert np.array_equal(logits.data, graph_logits.data)
    assert terms.keys() == graph_terms.keys()
    assert all(np.array_equal(terms[m], graph_terms[m]) for m in terms)
    T.backward(T.softmax_cross_entropy(graph_logits, rng.integers(0, 2, size=3)),
               params=net.trainable_params())
    # layer 0's input is the frozen embedding, so only layers 1..L-1 run
    # the backbone backward, for every mask; prediction keeps none
    assert len(ran) == net.config.num_layers - 1


class TestParamsAndSnapshots:
    def test_trainable_count_tracks_mask(self, net):
        full = S.trainable_param_count(net)
        mid = S.PeftModuleId(0, "SA")
        net.mask.deactivate(mid)
        assert S.trainable_param_count(net) == full - net.module_size(mid)

    def test_count_matches_parameter_list(self, net):
        total = sum(p.size for p in net.trainable_params())
        assert total == S.trainable_param_count(net)

    def test_snapshot_restore_is_bit_identical(self, net, rng):
        snap = net.snapshot_trainable()
        for mod in net.modules.values():
            S.reinitialize(mod, rng)
        net.restore_trainable(snap)
        assert all(np.array_equal(a, b)
                   for a, b in zip(net.snapshot_trainable(), snap))

    def test_build_is_deterministic(self, tokens):
        a = S.build_supernet(small_config(), seed=42)
        b = S.build_supernet(small_config(), seed=42)
        assert np.array_equal(a.forward(tokens)[0].data, b.forward(tokens)[0].data)

    def test_different_seeds_differ(self, tokens):
        a = S.build_supernet(small_config(), seed=1)
        b = S.build_supernet(small_config(), seed=2)
        assert not np.array_equal(a.forward(tokens)[0].data, b.forward(tokens)[0].data)


class TestReinitialize:
    def test_scale_uses_each_projections_output_dimension(self):
        rng = np.random.default_rng(0)
        mod = S.PeftModule(S.PeftModuleId(0, "SA"), d_model=256, bottleneck=16, rng=rng)
        draws_down = [S.reinitialize(mod, rng).w_down.data.std() for _ in range(20)]
        assert np.mean(draws_down) == pytest.approx(1 / np.sqrt(16), rel=0.05)
        draws_up = [S.reinitialize(mod, rng).w_up.data.std() for _ in range(20)]
        assert np.mean(draws_up) == pytest.approx(1 / np.sqrt(256), rel=0.05)

    def test_reinit_changes_weights(self):
        rng = np.random.default_rng(0)
        mod = S.PeftModule(S.PeftModuleId(0, "PA"), 16, 2, rng)
        before = mod.flat_weights()
        S.reinitialize(mod, rng)
        assert not np.array_equal(before, mod.flat_weights())


class TestArchitectureDocs:
    def test_round_trip_preserves_flags(self, net):
        net.mask.deactivate(S.PeftModuleId(1, "PA"))
        net.mask.deactivate(S.PeftModuleId(3, "SA"))
        doc = S.architecture_to_doc(net)
        cfg, flags = S.architecture_from_doc(doc)
        assert cfg == net.config
        assert flags == net.mask.flags()

    @settings(max_examples=30, deadline=None)
    @given(num_layers=st.integers(1, 6), pa_linear=st.booleans(),
           activation=st.sampled_from(["relu", "gelu"]), data=st.data())
    def test_drawn_flags_round_trip(self, num_layers, pa_linear, activation, data):
        cfg = small_config(num_layers=num_layers, pa_linear=pa_linear, activation=activation)
        flags = {mid: data.draw(st.booleans()) for mid in cfg.module_ids()}
        net = S.build_supernet(cfg, seed=0).apply_mask(S.MaskState(flags, flags))
        doc = json.loads(json.dumps(S.architecture_to_doc(net)))
        assert S.architecture_from_doc(doc) == (cfg, flags)

    def test_incomplete_document_rejected(self, net):
        doc = S.architecture_to_doc(net)
        doc["modules"] = doc["modules"][:-1]
        with pytest.raises(ValueError, match="cover"):
            S.architecture_from_doc(doc)

    def test_foreign_module_rejected(self, net):
        doc = S.architecture_to_doc(net)
        doc["modules"][0]["layer"] = 17
        with pytest.raises(ValueError):
            S.architecture_from_doc(doc)

    def test_config_dict_round_trip(self):
        cfg = small_config(pa_linear=True, activation="relu")
        assert S.SupernetConfig(**asdict(cfg)) == cfg
