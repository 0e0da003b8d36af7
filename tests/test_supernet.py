from dataclasses import asdict

import numpy as np
import pytest

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
