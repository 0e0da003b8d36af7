"""Encoder supernet with a maskable serial and parallel adapter per layer.

The backbone (embeddings, attention, feed-forward, layer norms) is frozen;
only adapter projections and the classifier head train. Every layer output
is ``base + mask_sa * serial_term + mask_pa * parallel_term``, so masking
both adapters reproduces the plain backbone bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

KIND_SA = "SA"
KIND_PA = "PA"
KINDS = (KIND_SA, KIND_PA)
_KIND_ORDER = {KIND_SA: 0, KIND_PA: 1}


@dataclass(frozen=True)
class PeftModuleId:
    layer: int
    kind: str

    def sort_key(self):
        return (self.layer, _KIND_ORDER[self.kind])

    def __str__(self):
        return f"L{self.layer}/{self.kind}"


@dataclass(frozen=True)
class SupernetConfig:
    num_layers: int
    d_model: int
    num_heads: int
    d_ff: int
    sa_bottleneck: int
    pa_rank: int
    vocab_size: int
    num_classes: int
    max_seq_len: int
    pa_linear: bool = False  # drop the nonlinearity on the parallel branch
    activation: str = "gelu"

    def __post_init__(self):
        if min(self.num_layers, self.d_model, self.num_heads, self.d_ff) < 1:
            raise ValueError("all supernet dimensions must be positive")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by num_heads={self.num_heads}"
            )
        if not (0 < self.sa_bottleneck < self.d_model):
            raise ValueError(f"sa_bottleneck must lie in (0, d_model), got {self.sa_bottleneck}")
        if not (0 < self.pa_rank < self.d_model):
            raise ValueError(f"pa_rank must lie in (0, d_model), got {self.pa_rank}")
        if min(self.vocab_size, self.num_classes, self.max_seq_len) < 1:
            raise ValueError("vocab_size, num_classes and max_seq_len must be positive")
        if self.activation not in ("relu", "gelu"):
            raise ValueError(f"unsupported activation {self.activation!r}")

    def module_ids(self):
        return [
            PeftModuleId(layer, kind)
            for layer in range(self.num_layers)
            for kind in KINDS
        ]

    def head_param_count(self):
        return self.d_model * self.num_classes + self.num_classes


class PeftModule:
    """Bottleneck pair W_down (d_model x b) and W_up (b x d_model)."""

    def __init__(self, module_id: PeftModuleId, d_model: int, bottleneck: int, rng):
        self.id = module_id
        self.w_down = Tensor(np.zeros((d_model, bottleneck)), requires_grad=True)
        self.w_up = Tensor(np.zeros((bottleneck, d_model)), requires_grad=True)
        reinitialize(self, rng)

    @property
    def param_count(self):
        return self.w_down.size + self.w_up.size

    def params(self):
        return [self.w_down, self.w_up]

    def flat_weights(self) -> np.ndarray:
        return np.concatenate([self.w_down.data.ravel(), self.w_up.data.ravel()])

    def flat_grads(self) -> np.ndarray:
        """Both gradients, flattened; call after a backward that reached them."""
        return np.concatenate([self.w_down.grad.ravel(), self.w_up.grad.ravel()])


def reinitialize(module: PeftModule, rng) -> PeftModule:
    """Fresh Normal(0, 1/sqrt(dim)) draws for both projections.

    The scale is read as a standard deviation, using each projection's
    output dimension.
    """
    d_down = module.w_down.data.shape[1]
    d_up = module.w_up.data.shape[1]
    module.w_down.data = rng.normal(0.0, 1.0 / math.sqrt(d_down), module.w_down.data.shape)
    module.w_up.data = rng.normal(0.0, 1.0 / math.sqrt(d_up), module.w_up.data.shape)
    return module


class MaskState:
    """Boolean activation flag per adapter module. Flags only ever go off."""

    def __init__(self, ids, flags=None):
        self._flags = {}
        for mid in sorted(ids, key=PeftModuleId.sort_key):
            self._flags[mid] = True if flags is None else bool(flags[mid])

    def __len__(self):
        return len(self._flags)

    def ids(self):
        return list(self._flags.keys())

    def is_active(self, mid: PeftModuleId) -> bool:
        return self._flags[mid]

    def active_ids(self):
        return [mid for mid, on in self._flags.items() if on]

    def num_active(self):
        return sum(self._flags.values())

    def deactivate(self, mid: PeftModuleId):
        if mid not in self._flags:
            raise KeyError(f"unknown module {mid}")
        self._flags[mid] = False

    def copy(self) -> "MaskState":
        return MaskState(self._flags.keys(), self._flags)

    def flags(self):
        return dict(self._flags)

    def __eq__(self, other):
        return isinstance(other, MaskState) and self._flags == other._flags


def _proj(x, w):
    """(b, s, d) @ (d, n) as one flat GEMM."""
    b, s, d = x.shape
    return (x.reshape((b * s, d)) @ w).reshape((b, s, w.shape[1]))


def _proj_dx(g, w):
    """dL/dx of ``_proj(x, w)`` for the incoming gradient ``g``."""
    b, s, n = g.shape
    return (g.reshape((b * s, n)) @ w.T).reshape((b, s, w.shape[0]))


def _proj_dw(g, x):
    """dL/dw of ``_proj(x, w)`` for the incoming gradient ``g``."""
    b, s, n = g.shape
    return x.reshape((b * s, x.shape[2])).T @ g.reshape((b * s, n))


def _backbone(x, layer, nh: int, activation: str, need_x: bool):
    """The frozen attention and feed-forward sublayers (post-LN) on arrays.

    Returns (base, backward), where ``backward`` maps dL/dbase to dL/dx, or
    is None when ``need_x`` is false. Only what ``backward`` reads is kept.
    """
    act_fwd, act_bwd = T.ACTIVATIONS[activation]
    b, s, d = x.shape
    dh = d // nh
    x2 = x.reshape((b * s, d))

    def heads(w):
        return (x2 @ w.data).reshape((b, s, nh, dh)).transpose((0, 2, 1, 3))

    q, k, v = heads(layer.wq), heads(layer.wk), heads(layer.wv)
    scale = 1.0 / math.sqrt(dh)
    attn = T.softmax_fwd((q @ k.transpose((0, 1, 3, 2))) * scale)
    ctx = (attn @ v).transpose((0, 2, 1, 3)).reshape((b, s, d))
    # the bias and residual adds go in place into GEMM outputs that the
    # backward does not read; x + p and p + x are the same bits
    p = _proj(ctx, layer.wo.data)
    p += x
    a, ln1 = T.layer_norm_fwd(p, layer.ln1_g.data, layer.ln1_b.data)
    p = _proj(a, layer.w1.data)
    p += layer.b1.data
    f, f_saved = act_fwd(p)
    p = _proj(f, layer.w2.data)
    p += layer.b2.data
    p += a
    base, ln2 = T.layer_norm_fwd(p, layer.ln2_g.data, layer.ln2_b.data)
    if not need_x:
        return base, None

    def backward(g):
        g = T.layer_norm_bwd(g, layer.ln2_g.data, ln2)
        g = g + _proj_dx(act_bwd(_proj_dx(g, layer.w2.data), f_saved), layer.w1.data)
        g = T.layer_norm_bwd(g, layer.ln1_g.data, ln1)
        g_ctx = _proj_dx(g, layer.wo.data).reshape((b, s, nh, dh)).transpose((0, 2, 1, 3))
        g_v = np.swapaxes(attn, -1, -2) @ g_ctx
        g_scores = T.softmax_bwd(g_ctx @ np.swapaxes(v, -1, -2), attn) * scale
        g_q = g_scores @ k
        g_k = (np.swapaxes(q, -1, -2) @ g_scores).transpose((0, 1, 3, 2))

        def merge(g_heads, w):
            return _proj_dx(g_heads.transpose((0, 2, 1, 3)).reshape((b, s, d)), w.data)

        # the engine's order: the residual, then q, k and v
        g = g + merge(g_q, layer.wq)
        g += merge(g_k, layer.wk)
        g += merge(g_v, layer.wv)
        return g

    return base, backward


@dataclass
class EncoderLayer:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln2_g: Tensor
    ln2_b: Tensor

    def params(self):
        return [self.wq, self.wk, self.wv, self.wo, self.ln1_g, self.ln1_b,
                self.w1, self.b1, self.w2, self.b2, self.ln2_g, self.ln2_b]


class Supernet:
    def __init__(self, config: SupernetConfig, embedding, pos, layers, modules, head_w, head_b):
        self.config = config
        self.embedding = embedding
        self.pos = pos
        self.layers = layers
        self.modules = modules  # PeftModuleId -> PeftModule
        self.head_w = head_w
        self.head_b = head_b
        self.mask = MaskState(modules.keys())

    # -- parameters -----------------------------------------------------

    def backbone_params(self):
        out = [self.embedding, self.pos]
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def head_params(self):
        return [self.head_w, self.head_b]

    def trainable_params(self):
        out = []
        for mid in self.mask.active_ids():
            out.extend(self.modules[mid].params())
        out.extend(self.head_params())
        return out

    def module_size(self, mid: PeftModuleId) -> int:
        return self.modules[mid].param_count

    # -- masking --------------------------------------------------------

    def apply_mask(self, mask: MaskState) -> "Supernet":
        if set(mask.ids()) != set(self.modules.keys()):
            raise ValueError("mask does not cover every module id")
        self.mask = mask.copy()
        return self

    # -- forward --------------------------------------------------------

    def layer_forward(self, h_in: Tensor, layer_index: int, grad: bool = True):
        """One encoder layer plus its active adapters, as one graph node.

        Returns (output, {module id: term array} of the active adapters).
        The node's backward gives dL/dh_in, when ``h_in`` needs it, and the
        active adapters' ``w_down``/``w_up`` gradients; the backbone is
        frozen. With ``grad`` false the output is a constant and the layer
        keeps nothing for a backward.
        """
        cfg = self.config
        act_fwd, act_bwd = T.ACTIVATIONS[cfg.activation]
        sa_id = PeftModuleId(layer_index, KIND_SA)
        pa_id = PeftModuleId(layer_index, KIND_PA)
        sa = self.modules[sa_id] if self.mask.is_active(sa_id) else None
        pa = self.modules[pa_id] if self.mask.is_active(pa_id) else None
        need_x = grad and T.needs_grad(h_in)
        x = h_in.data
        base, backbone_bwd = _backbone(x, self.layers[layer_index], cfg.num_heads,
                                       cfg.activation, need_x)
        out = base
        terms = {}
        parents = [h_in]
        if sa is not None:
            sa_in, sa_down, sa_up = base, sa.w_down.data, sa.w_up.data
            sa_hidden, sa_saved = act_fwd(_proj(sa_in, sa_down))
            terms[sa_id] = _proj(sa_hidden, sa_up)
            out = out + terms[sa_id]
            parents += sa.params()
        if pa is not None:
            pa_down, pa_up = pa.w_down.data, pa.w_up.data
            pa_hidden = _proj(x, pa_down)
            term = _proj(pa_hidden, pa_up)
            if not cfg.pa_linear:
                term, pa_saved = act_fwd(term)
            terms[pa_id] = term
            out = out + term
            parents += pa.params()
        if not grad:
            return Tensor(out), terms

        def bwd(g, needs):
            grads = []
            g_base = g
            if sa is not None:
                g_hidden = act_bwd(_proj_dx(g, sa_up), sa_saved)
                grads += [_proj_dw(g_hidden, sa_in), _proj_dw(g, sa_hidden)]
                if need_x:
                    g_base = g + _proj_dx(g_hidden, sa_down)
            gx = backbone_bwd(g_base) if need_x else None
            if pa is not None:
                g_term = g if cfg.pa_linear else act_bwd(g, pa_saved)
                g_hidden = _proj_dx(g_term, pa_up)
                grads += [_proj_dw(g_hidden, x), _proj_dw(g_term, pa_hidden)]
                if need_x:
                    gx += _proj_dx(g_hidden, pa_down)
            return (gx, *grads)

        return Tensor(out, _parents=tuple(parents), _backward_fn=bwd), terms

    def forward(self, tokens: np.ndarray, grad: bool = True):
        """Token ids (batch x seq) to (class logits, every layer's terms).

        With ``grad`` false nothing is kept for a backward: the logits are
        a constant and each layer's arrays are freed as the next one runs.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError("tokens must be batch x seq")
        seq = tokens.shape[1]
        if seq > self.config.max_seq_len:
            raise ValueError(f"sequence length {seq} exceeds max_seq_len")
        # the frozen embedding needs no gradient, so the layer-0 input is a
        # constant and layer 0 runs no backbone backward; every layer
        # returns a graph node in grad mode, so layers 1..L-1 always do,
        # and a step's cost does not depend on the mask
        x = Tensor(T.embedding(self.embedding, tokens).data + self.pos.data[:seq])
        terms = {}
        for i in range(self.config.num_layers):
            x, layer_terms = self.layer_forward(x, i, grad)
            terms.update(layer_terms)
        logits = T.add(T.matmul(T.mean(x, axis=1), self.head_w), self.head_b)
        return (logits if grad else Tensor(logits.data)), terms

    def predict(self, tokens: np.ndarray) -> np.ndarray:
        return self.forward(tokens, grad=False)[0].data.argmax(axis=1)

    def _all_trainable(self):
        """Every adapter array, masked or not, then the head."""
        params = []
        for mid in sorted(self.modules, key=PeftModuleId.sort_key):
            params.extend(self.modules[mid].params())
        params.extend(self.head_params())
        return params

    def snapshot_trainable(self):
        """Copies of every adapter and head array, for later restore."""
        return [p.data.copy() for p in self._all_trainable()]

    def restore_trainable(self, snapshot):
        params = self._all_trainable()
        if len(snapshot) != len(params):
            raise ValueError("snapshot does not match parameter list")
        for p, s in zip(params, snapshot):
            p.data = s.copy()


def trainable_param_count(supernet: Supernet) -> int:
    count = supernet.config.head_param_count()
    for mid in supernet.mask.active_ids():
        count += supernet.module_size(mid)
    return count


def init_head(supernet: Supernet, rng):
    d = supernet.config.d_model
    supernet.head_w.data = rng.normal(0.0, 1.0 / math.sqrt(d), supernet.head_w.data.shape)
    supernet.head_b.data = np.zeros_like(supernet.head_b.data)


def build_supernet(config: SupernetConfig, seed: int) -> Supernet:
    """Fresh supernet: frozen random backbone, all adapters active."""
    ss = np.random.SeedSequence([int(seed), 0x5EED])
    backbone_rng, adapter_rng, head_rng = [np.random.default_rng(c) for c in ss.spawn(3)]
    cfg = config
    d = cfg.d_model
    sd = 1.0 / math.sqrt(d)

    def frozen(shape, scale=sd):
        return Tensor(backbone_rng.normal(0.0, scale, shape))

    emb = frozen((cfg.vocab_size, d))
    pos = frozen((cfg.max_seq_len, d))
    layers = []
    for _ in range(cfg.num_layers):
        layers.append(EncoderLayer(
            wq=frozen((d, d)), wk=frozen((d, d)), wv=frozen((d, d)), wo=frozen((d, d)),
            ln1_g=Tensor(np.ones(d)), ln1_b=Tensor(np.zeros(d)),
            w1=frozen((d, cfg.d_ff)), b1=Tensor(np.zeros(cfg.d_ff)),
            w2=frozen((cfg.d_ff, d), scale=1.0 / math.sqrt(cfg.d_ff)), b2=Tensor(np.zeros(d)),
            ln2_g=Tensor(np.ones(d)), ln2_b=Tensor(np.zeros(d)),
        ))
    modules = {}
    for mid in cfg.module_ids():
        bottleneck = cfg.sa_bottleneck if mid.kind == KIND_SA else cfg.pa_rank
        modules[mid] = PeftModule(mid, d, bottleneck, adapter_rng)
    head_w = Tensor(np.zeros((d, cfg.num_classes)), requires_grad=True)
    head_b = Tensor(np.zeros(cfg.num_classes), requires_grad=True)
    net = Supernet(cfg, emb, pos, layers, modules, head_w, head_b)
    init_head(net, head_rng)
    return net


# ---------------------------------------------------------------------------
# architecture documents


def architecture_to_doc(supernet: Supernet) -> dict:
    return {
        "config": asdict(supernet.config),
        "modules": [
            {"layer": mid.layer, "kind": mid.kind, "active": supernet.mask.is_active(mid)}
            for mid in sorted(supernet.modules, key=PeftModuleId.sort_key)
        ],
    }


def architecture_from_doc(doc: dict):
    """Returns (config, flags dict)."""
    config = SupernetConfig(**doc["config"])
    expected = set(config.module_ids())
    flags = {}
    for entry in doc["modules"]:
        mid = PeftModuleId(int(entry["layer"]), str(entry["kind"]))
        if mid not in expected:
            raise ValueError(f"module {mid} does not fit a {config.num_layers}-layer model")
        flags[mid] = bool(entry["active"])
    if set(flags) != expected:
        raise ValueError("architecture document does not cover every module")
    return config, flags
