"""Synthetic model topologies used by the test suite and CLI demos.

Every builder returns a fresh (Graph, WeightStore) pair with seeded f64
weights. Run ``python -m lnfold.fixtures OUTDIR`` to write them all as model
files for poking at the CLI.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .graph_ir import Graph, Node, WeightStore, make_node, save_model


class _Builder:
    def __init__(self, seed: int):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.nodes: list[Node] = []
        self.edges: list[tuple[str, str, int]] = []
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.arrays: dict[str, np.ndarray] = {}

    def _wire(self, srcs: tuple[str, ...] | str, nid: str) -> None:
        if isinstance(srcs, str):
            srcs = (srcs,)
        for slot, src in enumerate(srcs):
            self.edges.append((src, nid, slot))

    def input(self, nid: str, shape: tuple[int, ...], integer: bool = False,
              high: int | None = None) -> str:
        attrs: dict = {"shape": list(shape)}
        if integer:
            attrs["integer"] = True
        if high is not None:
            attrs["high"] = high
        self.nodes.append(make_node(nid, "Input", attrs))
        self.inputs.append(nid)
        return nid

    def _weight(self, name: str, shape: tuple[int, ...], fan_in: int) -> str:
        self.arrays[name] = self.rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)
        return name

    def linear(self, nid: str, src: str, out_dim: int, in_dim: int, bias: bool = True) -> str:
        params = [self._weight(f"{nid}.weight", (out_dim, in_dim), in_dim)]
        if bias:
            params.append(self._weight(f"{nid}.bias", (out_dim,), 1))
        self.nodes.append(make_node(nid, "Linear", params=params))
        self._wire(src, nid)
        return nid

    def conv2d(self, nid: str, src: str, out_ch: int, in_ch: int, k: int, padding: int = 0) -> str:
        params = [self._weight(f"{nid}.kernel", (out_ch, in_ch, k, k), in_ch * k * k),
                  self._weight(f"{nid}.bias", (out_ch,), 1)]
        self.nodes.append(make_node(nid, "Conv2d", {"stride": 1, "padding": padding}, params))
        self._wire(src, nid)
        return nid

    def recurrent(self, nid: str, x_src: str, h_src: str, d: int, in_dim: int) -> str:
        params = [
            self._weight(f"{nid}.w_input", (d, in_dim), in_dim),
            self._weight(f"{nid}.w_hidden", (d, d), d),
            self._weight(f"{nid}.bias", (d,), 1),
        ]
        self.nodes.append(make_node(nid, "RecurrentCell", params=params))
        self._wire((x_src, h_src), nid)
        return nid

    def value_projection(self, nid: str, src: str, d: int, d_v: int) -> str:
        params = [self._weight(f"{nid}.value", (d, d_v), d)]
        self.nodes.append(make_node(nid, "AttentionValueProjection", params=params))
        self._wire(src, nid)
        return nid

    def layer_norm(self, nid: str, src: str, n: int, affine: bool = True) -> str:
        params = []
        if affine:
            self.arrays[f"{nid}.gamma"] = self.rng.uniform(0.5, 1.5, size=(n,))
            self.arrays[f"{nid}.beta"] = self.rng.uniform(-0.5, 0.5, size=(n,))
            params = [f"{nid}.gamma", f"{nid}.beta"]
        self.nodes.append(make_node(nid, "LayerNorm", {"eps": 1e-5}, params))
        self._wire(src, nid)
        return nid

    def embedding(self, nid: str, src: str, vocab: int, dim: int) -> str:
        params = [self._weight(f"{nid}.table", (vocab, dim), 1)]
        self.nodes.append(make_node(nid, "Embedding", params=params))
        self._wire(src, nid)
        return nid

    def simple(self, nid: str, kind: str, srcs: tuple[str, ...] | str,
               attrs: dict | None = None) -> str:
        srcs = (srcs,) if isinstance(srcs, str) else srcs
        self.nodes.append(make_node(nid, kind, attrs))
        self._wire(srcs, nid)
        return nid

    def output(self, src: str, nid: str | None = None) -> str:
        nid = nid or f"out_{len(self.outputs)}"
        self.nodes.append(make_node(nid, "Output"))
        self._wire(src, nid)
        self.outputs.append(nid)
        return nid

    def build(self) -> tuple[Graph, WeightStore]:
        return Graph(self.nodes, self.edges, self.inputs, self.outputs), WeightStore(self.arrays)


# ---------------------------------------------------------------------------
# Foldable chains
# ---------------------------------------------------------------------------


def linear_then_norm(out_dim: int = 8, in_dim: int = 6, seed: int = 0,
                     bias: bool = True) -> tuple[Graph, WeightStore]:
    """Input -> Linear -> LayerNorm: the textbook foldable case."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    lin = b.linear("lin", x, out_dim, in_dim, bias=bias)
    ln = b.layer_norm("ln", lin, out_dim)
    b.output(ln)
    return b.build()


def scale_chain(d: int = 8, in_dim: int = 6, seed: int = 0) -> tuple[Graph, WeightStore]:
    """Scalar layers (inference dropout, temperature) between Linear and LN."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    lin = b.linear("lin", x, d, in_dim)
    drop = b.simple("drop", "DropoutInference", lin, {"scale": 1.0 / (1.0 - 0.1)})
    temp = b.simple("temp", "ScalarScale", drop, {"scale": 0.7})
    ln = b.layer_norm("ln", temp, d)
    b.output(ln)
    return b.build()


def residual_scale_mix(d: int = 8, in_dim: int = 6, seed: int = 0) -> tuple[Graph, WeightStore]:
    """LN after ResidualAdd(LinearA, ScalarScale(LinearB))."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    lin_a = b.linear("lin_a", x, d, in_dim)
    lin_b = b.linear("lin_b", x, d, in_dim)
    scale = b.simple("scale", "ScalarScale", lin_b, {"scale": 0.5})
    add = b.simple("add", "ResidualAdd", (lin_a, scale))
    ln = b.layer_norm("ln", add, d)
    b.output(ln)
    return b.build()


def recurrent_then_norm(d: int = 6, in_dim: int = 5, seed: int = 0) -> tuple[Graph, WeightStore]:
    """One recurrent cell step feeding a LayerNorm."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    h = b.input("h_prev", (d,))
    cell = b.recurrent("cell", x, h, d, in_dim)
    ln = b.layer_norm("ln", cell, d)
    b.output(ln)
    return b.build()


def mlp_classifier(in_dim: int = 10, hidden: int = 16, classes: int = 4,
                   seed: int = 0) -> tuple[Graph, WeightStore]:
    """Two-layer MLP with a LayerNorm after each linear; logits output."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    l1 = b.linear("l1", x, hidden, in_dim)
    n1 = b.layer_norm("n1", l1, hidden)
    a1 = b.simple("a1", "ReLU", n1)
    l2 = b.linear("l2", a1, classes, hidden)
    n2 = b.layer_norm("n2", l2, classes)
    b.output(n2)
    return b.build()


def post_ln_transformer(d: int = 16, hidden: int = 32, seq: int = 4,
                        seed: int = 0) -> tuple[Graph, WeightStore]:
    """Post-norm block with every residual branch fed by a general linear
    layer, so both LayerNorms are strictly foldable.

    attn_value -> add1 <- skip1; ln1 -> ffn1 -> relu -> ffn2 -> add2 <- skip2;
    ln2. The input projection in front keeps the first residual's skip branch
    linear as well.
    """
    b = _Builder(seed)
    x = b.input("x", (seq, d))
    lin_in = b.linear("lin_in", x, d, d)
    attn_value = b.value_projection("attn_value", lin_in, d, d)
    skip1 = b.linear("skip1", lin_in, d, d)
    add1 = b.simple("add1", "ResidualAdd", (attn_value, skip1))
    ln1 = b.layer_norm("ln1", add1, d)
    ffn1 = b.linear("ffn1", ln1, hidden, d)
    act = b.simple("act", "ReLU", ffn1)
    ffn2 = b.linear("ffn2", act, d, hidden)
    skip2 = b.linear("skip2", ln1, d, d)
    add2 = b.simple("add2", "ResidualAdd", (ffn2, skip2))
    ln2 = b.layer_norm("ln2", add2, d)
    b.output(ln2)
    return b.build()


def pre_ln_transformer(vocab: int = 13, d: int = 16, hidden: int = 32, seq: int = 4,
                       blocks: int = 2, seed: int = 0) -> tuple[Graph, WeightStore]:
    """Pre-norm toy language model: Embedding, then blocks of
    [LN -> attn value -> add, LN -> FFN -> add], then a final LN.

    Nothing is strictly foldable (the embedding blocks every path), but one
    explicit centering after the embedding rescues every LayerNorm.
    """
    b = _Builder(seed)
    tok = b.input("tokens", (seq,), integer=True, high=vocab)
    stream = b.embedding("embed", tok, vocab, d)
    for k in range(blocks):
        ln_a = b.layer_norm(f"ln_attn_{k}", stream, d)
        attn = b.value_projection(f"attn_value_{k}", ln_a, d, d)
        stream_a = b.simple(f"add_attn_{k}", "ResidualAdd", (stream, attn))
        ln_b = b.layer_norm(f"ln_ffn_{k}", stream_a, d)
        ff1 = b.linear(f"ffn1_{k}", ln_b, hidden, d)
        act = b.simple(f"act_{k}", "ReLU", ff1)
        ff2 = b.linear(f"ffn2_{k}", act, d, hidden)
        stream = b.simple(f"add_ffn_{k}", "ResidualAdd", (stream_a, ff2))
    ln_final = b.layer_norm("ln_final", stream, d)
    b.output(ln_final)
    return b.build()


# ---------------------------------------------------------------------------
# Negative and edge cases
# ---------------------------------------------------------------------------


def concat_then_norm(in_dim: int = 6, d: int = 4, seed: int = 0) -> tuple[Graph, WeightStore]:
    """Concatenation of two linear branches feeding a LayerNorm: not foldable."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    lin_a = b.linear("lin_a", x, d, in_dim)
    lin_b = b.linear("lin_b", x, d, in_dim)
    cat = b.simple("cat", "Concat", (lin_a, lin_b), {"axis": -1})
    ln = b.layer_norm("ln", cat, 2 * d)
    b.output(ln)
    return b.build()


def relu_then_norm(d: int = 8, in_dim: int = 6, seed: int = 0) -> tuple[Graph, WeightStore]:
    """Linear -> ReLU -> LayerNorm: the nonlinearity blocks folding."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    lin = b.linear("lin", x, d, in_dim)
    act = b.simple("act", "ReLU", lin)
    ln = b.layer_norm("ln", act, d)
    b.output(ln)
    return b.build()


def softmax_then_norm(d: int = 8, in_dim: int = 6, seed: int = 0) -> tuple[Graph, WeightStore]:
    """A LayerNorm blocked by one dedicated softmax leaf."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    lin = b.linear("lin", x, d, in_dim)
    sm = b.simple("sm", "Softmax", lin)
    ln = b.layer_norm("ln", sm, d)
    b.output(ln)
    return b.build()


def fanout_trap(d: int = 8, in_dim: int = 6, seed: int = 0) -> tuple[Graph, WeightStore]:
    """A centering target that also feeds a ReLU consumer: folding the LN
    would perturb the ReLU branch, so the safety check must refuse."""
    b = _Builder(seed)
    x = b.input("x", (in_dim,))
    lin = b.linear("lin", x, d, in_dim)
    ln = b.layer_norm("ln", lin, d)
    act = b.simple("act", "ReLU", lin)
    b.output(ln, "out_norm")
    b.output(act, "out_act")
    return b.build()


def conv_block(in_ch: int = 2, out_ch: int = 4, hw: int = 6, seed: int = 0) -> tuple[Graph, WeightStore]:
    """Small conv stack for serialization and shape-propagation coverage."""
    b = _Builder(seed)
    x = b.input("x", (in_ch, hw, hw))
    conv = b.conv2d("conv", x, out_ch, in_ch, 3, padding=1)
    act = b.simple("act", "ReLU", conv)
    b.output(act)
    return b.build()


def conv_then_norm(in_ch: int = 2, out_ch: int = 4, hw: int = 5,
                   seed: int = 0) -> tuple[Graph, WeightStore]:
    """Conv feeding a last-axis LayerNorm: centered axis (channels) and
    normalized axis (width) disagree, so this must not be foldable."""
    b = _Builder(seed)
    x = b.input("x", (in_ch, hw, hw))
    conv = b.conv2d("conv", x, out_ch, in_ch, 3, padding=1)
    ln = b.layer_norm("ln", conv, hw, affine=False)
    b.output(ln)
    return b.build()


STRICT_FOLDABLE_FIXTURES = {
    "linear_then_norm": linear_then_norm,
    "scale_chain": scale_chain,
    "residual_scale_mix": residual_scale_mix,
    "recurrent_then_norm": recurrent_then_norm,
    "mlp_classifier": mlp_classifier,
    "post_ln_transformer": post_ln_transformer,
}

ALL_FIXTURES = dict(
    STRICT_FOLDABLE_FIXTURES,
    pre_ln_transformer=pre_ln_transformer,
    concat_then_norm=concat_then_norm,
    relu_then_norm=relu_then_norm,
    softmax_then_norm=softmax_then_norm,
    fanout_trap=fanout_trap,
    conv_block=conv_block,
    conv_then_norm=conv_then_norm,
)


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    outdir = args[0] if args else "fixtures_out"
    os.makedirs(outdir, exist_ok=True)
    for name, builder in ALL_FIXTURES.items():
        g, w = builder()
        save_model(g, w, os.path.join(outdir, f"{name}.json"), os.path.join(outdir, f"{name}.bin"))
        print(f"wrote {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
