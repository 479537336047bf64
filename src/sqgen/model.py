"""Answer-tagged encoder with a pointer-generator decoder.

Encoder: token + position + answer-type embeddings summed, then post-norm
bidirectional transformer blocks. No classification or separator tokens;
the answer region is communicated purely through the 0/1 type channel.

Decoder: token + position embeddings through a causally masked LM stack,
then cross blocks that each compute

    A_S = LN(MHA(Y, Y, Y) + Y)        causal self-attention
    A_C = LN(MHA(A_S, H, H) + A_S)    attention over encoder states H
    O   = LN(FFN(A_C) + A_C)

A logistic gate on [Y_t; A_C_t] (Y taken after the LM stack) mixes the
vocabulary softmax with a copy distribution read off the final cross
block's attention weights averaged over heads. Sharing one subword
vocabulary between encoder and decoder is what lets the copy mass land on
real output token ids.

Training and inference share one decoder function, `BertPgn._decoder`, which
runs T new positions on top of the self-attention keys and values of the
positions before them and ends in the pointer-generator output. Training runs
the whole prefix with nothing before it. Inference runs only a prefix's last
token on the keys and values of the tokens before it, cached on the
`EncodedContext` one token at a time (Shazeer 2019, arXiv 1911.02150), so
only that position pays for the output projection, softmax and mixture.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping

import numpy as np

from . import files
from . import numerics as nm
from .corpus import MAX_CONTEXT_TOKENS, MAX_QUESTION_TOKENS
from .numerics import ConfigError, Tensor

CHECKPOINT_FORMAT = "sqgen-checkpoint"
CHECKPOINT_VERSION = 1


class ContextTooLong(ValueError):
    """Context exceeds the configured encoder position table."""


class QuestionTooLong(ValueError):
    """Decoder prefix exceeds the configured position table."""

    def __init__(self, length: int, max_question: int) -> None:
        super().__init__(f"prefix of {length} exceeds max_question+1={max_question + 1}")


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent with its manifest."""


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    encoder_layers: int = 2
    decoder_lm_layers: int = 2
    cross_layers: int = 2
    ffn_dim: int = 128
    max_context: int = MAX_CONTEXT_TOKENS
    max_question: int = MAX_QUESTION_TOKENS
    use_pointer: bool = True
    use_type_ids: bool = True

    def __post_init__(self) -> None:
        if self.vocab_size < 5:
            raise ConfigError("vocab_size must cover the four specials")
        if self.d_model < 1 or self.n_heads < 1:
            raise ConfigError("d_model and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        for name in ("encoder_layers", "decoder_lm_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.cross_layers < 1:
            raise ConfigError("cross_layers must be >= 1 (the copy path reads them)")
        if self.ffn_dim < 1:
            raise ConfigError(f"ffn_dim must be >= 1, got {self.ffn_dim}")
        if self.max_context < 1 or self.max_question < 1:
            raise ConfigError("max_context and max_question must be >= 1")


@dataclass
class EncodedContext:
    """One context's encoder states and what decoding reuses across steps.

    `cross_kv` holds the keys and values of `h` for every cross block,
    projected once. `self_kv` maps each prefix decoded at the current length
    or one shorter to the self-attention (k, v) heads, (H, T, dh) each, of
    every decoder layer over its T positions; each step reads its prefixes'
    parents from it.
    """

    h: Tensor
    context_ids: np.ndarray
    cross_kv: list[tuple[Tensor, Tensor]]
    self_kv: dict[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict
    )


@dataclass
class DecoderStepOutput:
    """Everything the final decode position produced, as plain arrays."""

    p_gen: float
    vocab_dist: np.ndarray
    copy_attn: np.ndarray
    final_dist: np.ndarray


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fresh parameters for `config`, made in `param_shapes` order from one
    seeded generator: N(0, 0.02) matrices, unit layer-norm gains, zero biases.
    The order is fixed, so a given seed always yields the same bytes."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            data = rng.normal(0.0, 0.02, shape)
        else:
            data = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every parameter `config` has, in creation order.
    Matrices are 2-D; biases and layer-norm gains (`.g`) are 1-D. `block` is
    the post-norm transformer block that `_block` runs: attn, ln1, ffn, ln2."""
    d, f, v = config.d_model, config.ffn_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {}

    def attn(prefix: str) -> None:
        for part in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.{part}"] = (d, d)
        for part in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}.{part}"] = (d,)

    def ln(prefix: str) -> None:
        shapes.update({f"{prefix}.g": (d,), f"{prefix}.b": (d,)})

    def ffn(prefix: str) -> None:
        shapes.update({f"{prefix}.w1": (d, f), f"{prefix}.b1": (f,),
                       f"{prefix}.w2": (f, d), f"{prefix}.b2": (d,)})

    def block(prefix: str) -> None:
        attn(f"{prefix}.attn")
        ln(f"{prefix}.ln1")
        ffn(f"{prefix}.ffn")
        ln(f"{prefix}.ln2")

    shapes["enc.word_emb"] = (v, d)
    shapes["enc.pos_emb"] = (config.max_context, d)
    if config.use_type_ids:
        shapes["enc.type_emb"] = (2, d)
    for i in range(config.encoder_layers):
        block(f"enc.b{i}")

    shapes["dec.word_emb"] = (v, d)
    shapes["dec.pos_emb"] = (config.max_question + 1, d)
    for i in range(config.decoder_lm_layers):
        block(f"lm.b{i}")

    for i in range(config.cross_layers):
        attn(f"cross.b{i}.self")
        ln(f"cross.b{i}.ln1")
        attn(f"cross.b{i}.xattn")
        ln(f"cross.b{i}.ln2")
        ffn(f"cross.b{i}.ffn")
        ln(f"cross.b{i}.ln3")

    shapes["out.w"] = (d, v)
    shapes["out.b"] = (v,)
    if config.use_pointer:
        shapes["gate.w"] = (2 * d, 1)
        shapes["gate.b"] = (1,)
    return shapes


def _self_attention(params, prefix: str, x: Tensor, n_heads: int, mask=None, past=None):
    """Attention of x's positions (T, d) over the `past` (k, v) heads
    and their own. Returns the output and the (k, v) heads of all positions,
    which a later call can take as its past."""
    p = lambda name: params[f"{prefix}.{name}"]
    q = nm.project_heads(x, p("wq"), p("bq"), n_heads)
    k = nm.project_heads(x, p("wk"), p("bk"), n_heads)
    v = nm.project_heads(x, p("wv"), p("bv"), n_heads)
    if past is not None:
        k = nm.concat([past[0], k], axis=1)
        v = nm.concat([past[1], v], axis=1)
    return nm.attend_out(nm.attention_weights(q, k, mask), v, p("wo"), p("bo")), (k, v)


def _ffn(params: Mapping[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    h = nm.gelu(nm.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return nm.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _block(params, prefix: str, x: Tensor, n_heads: int, mask=None, past=None):
    """Post-norm transformer block; returns its output and the (k, v) heads
    of its self-attention."""
    a, kv = _self_attention(params, f"{prefix}.attn", x, n_heads, mask, past)
    h = nm.layer_norm(a + x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    f = _ffn(params, f"{prefix}.ffn", h)
    return nm.layer_norm(f + h, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"]), kv


class BertPgn:
    """The trainable question generator: config + named parameter tensors."""

    def __init__(
        self,
        config: ModelConfig,
        params: dict[str, Tensor] | None = None,
        seed: int = 0,
    ):
        self.config = config
        self.params = params if params is not None else init_params(config, seed)

    # -- encoder ---------------------------------------------------------

    def embed_inputs(self, context_ids, type_ids) -> Tensor:
        """Sum of token, position, and (optionally) answer-type embeddings."""
        ids = np.asarray(context_ids, dtype=np.intp)
        types = np.asarray(type_ids, dtype=np.intp)
        if ids.shape != types.shape:
            raise ConfigError(
                f"context_ids ({ids.shape}) and type_ids ({types.shape}) differ"
            )
        if ids.size == 0:
            raise ConfigError("empty context")
        if ids.size > self.config.max_context:
            raise ContextTooLong(
                f"context of {ids.size} exceeds max_context={self.config.max_context}"
            )
        if np.any((types != 0) & (types != 1)):
            raise ConfigError("type_ids must be 0 or 1")
        e = nm.embedding(self.params["enc.word_emb"], ids) + nm.embedding(
            self.params["enc.pos_emb"], np.arange(ids.size)
        )
        if self.config.use_type_ids:
            e = e + nm.embedding(self.params["enc.type_emb"], types)
        return e

    def encode(self, embedded: Tensor) -> Tensor:
        x = embedded
        for i in range(self.config.encoder_layers):
            x, _ = _block(self.params, f"enc.b{i}", x, self.config.n_heads)
        return x

    def encode_context(self, context_ids, type_ids) -> EncodedContext:
        h = self.encode(self.embed_inputs(context_ids, type_ids))
        heads = lambda w, b: nm.project_heads(
            h, self.params[w], self.params[b], self.config.n_heads
        )
        cross_kv = [
            (heads(f"cross.b{i}.xattn.wk", f"cross.b{i}.xattn.bk"),
             heads(f"cross.b{i}.xattn.wv", f"cross.b{i}.xattn.bv"))
            for i in range(self.config.cross_layers)
        ]
        return EncodedContext(
            h=h, context_ids=np.asarray(context_ids, dtype=np.intp), cross_kv=cross_kv
        )

    # -- decoder ---------------------------------------------------------

    def _decoder(self, ids: np.ndarray, enc: EncodedContext, past: list | None = None):
        """Run the decoder over new tokens `ids` (T,) that follow P earlier
        positions, whose self-attention (k, v) heads `past` holds for every
        decoder layer in order (None when P = 0), and end in the
        pointer-generator output.

        Returns, for the new positions, the final distribution (T, V), p_gen
        (T, 1) (None without the pointer), the vocabulary distribution (T, V),
        the copy distribution (the final cross block's attention averaged
        over heads, (T, L)), and every layer's (k, v) heads over all P + T
        positions.
        """
        t = ids.size
        p0 = 0 if past is None else past[0][0].shape[1]
        if p0 + t == 0:
            raise ConfigError("decoder prefix must start with BOS")
        if p0 + t > self.config.max_question + 1:
            raise QuestionTooLong(p0 + t, self.config.max_question)
        n_heads = self.config.n_heads
        layer_past = iter(past or [])
        present = []
        y = nm.embedding(self.params["dec.word_emb"], ids) + nm.embedding(
            self.params["dec.pos_emb"], np.arange(p0, p0 + t)
        )
        mask = nm.causal_mask(t, p0) if t > 1 else None  # one row's mask is all zeros
        for i in range(self.config.decoder_lm_layers):
            y, kv = _block(self.params, f"lm.b{i}", y, n_heads, mask, next(layer_past, None))
            present.append(kv)

        x = y
        for i in range(self.config.cross_layers):
            pre = f"cross.b{i}"
            p = lambda name: self.params[f"{pre}.{name}"]
            s, kv = _self_attention(
                self.params, f"{pre}.self", x, n_heads, mask, next(layer_past, None)
            )
            present.append(kv)
            a_s = nm.layer_norm(s + x, p("ln1.g"), p("ln1.b"))
            q = nm.project_heads(a_s, p("xattn.wq"), p("xattn.bq"), n_heads)
            k, v = enc.cross_kv[i]
            attn = nm.attention_weights(q, k)  # the copy distribution trains through it
            c = nm.attend_out(attn, v, p("xattn.wo"), p("xattn.bo"))
            a_c = nm.layer_norm(c + a_s, p("ln2.g"), p("ln2.b"))
            f = _ffn(self.params, f"{pre}.ffn", a_c)
            x = nm.layer_norm(f + a_c, p("ln3.g"), p("ln3.b"))
        copy = nm.mean(attn, axis=0)
        vocab_dist = nm.softmax(
            nm.linear(x, self.params["out.w"], self.params["out.b"]), axis=-1
        )
        if not self.config.use_pointer:
            return vocab_dist, None, vocab_dist, copy, present
        p_gen = self.generation_gate(y, a_c)
        final = pointer_mixture(p_gen, vocab_dist, copy, enc.context_ids)
        return final, p_gen, vocab_dist, copy, present

    def sequence_distributions(self, prefix_ids, enc: EncodedContext) -> Tensor:
        """Mixture distribution at every prefix position, in-graph (T,V)."""
        return self._decoder(np.asarray(prefix_ids, dtype=np.intp), enc)[0]

    def decode_step(self, prefix_ids, enc: EncodedContext) -> DecoderStepOutput:
        """One inference step: distributions for the position after the prefix.

        Only the prefix's last token runs through the decoder, on the keys
        and values of its parent (the prefix without its last token) from
        `enc.self_kv`, which then holds this prefix and drops those neither as
        long as it nor one shorter: every prefix of one beam step finds its
        parent there. When the parent is missing, the same loop first decodes
        each missing ancestor, shortest first, one token each, so the cache is
        only filled one token at a time and a step's bytes do not depend on
        what it held. A prefix too long for the position table raises before
        any pass, and leaves the cache as it was.
        """
        ids = np.asarray(prefix_ids, dtype=np.intp)
        t, key = ids.size, tuple(ids.tolist())
        if t > self.config.max_question + 1:
            raise QuestionTooLong(t, self.config.max_question)
        cached = t - 1  # longest cached ancestor's length: 0 for none, -1 for an empty prefix
        while cached > 0 and key[:cached] not in enc.self_kv:
            cached -= 1
        with nm.no_grad():
            for n in range(cached, t):  # token n, on the cached heads of key[:n]
                past = enc.self_kv[key[:n]] if n > 0 else None
                final, p_gen, vocab_dist, copy, present = self._decoder(ids[n:n + 1], enc, past)
                enc.self_kv[key[:n + 1]] = [(k.data, v.data) for k, v in present]
        enc.self_kv = {k: kv for k, kv in enc.self_kv.items() if t - 1 <= len(k) <= t}
        return DecoderStepOutput(
            p_gen=1.0 if p_gen is None else float(p_gen.data[0, 0]),
            vocab_dist=vocab_dist.data[0],
            copy_attn=copy.data[0],
            final_dist=final.data[0],
        )

    def generation_gate(self, y: Tensor, a_c: Tensor) -> Tensor:
        """p_gen = logistic(w . [y; a_c] + b) for each row of y and a_c:
        (T, d) rows give (T, 1)."""
        gate_in = nm.concat([y, a_c], axis=-1)
        return nm.sigmoid(nm.linear(gate_in, self.params["gate.w"], self.params["gate.b"]))

    def next_distributions(self, enc: EncodedContext, prefixes) -> np.ndarray:
        """`decode_step`'s final distribution for each prefix, (B, V)."""
        return np.stack([self.decode_step(p, enc).final_dist for p in prefixes])

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        save_checkpoint(path, self.config, self.params)

    @classmethod
    def from_checkpoint(cls, path: str) -> "BertPgn":
        config, arrays = load_checkpoint(path)
        _check_arrays(path, config, arrays)
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        return cls(config, params=params)


def pointer_mixture(
    p_gen: Tensor, vocab_dist: Tensor, copy_attn: Tensor, context_ids
) -> Tensor:
    """The pointer-generator output (See et al. 2017):
    p_gen * vocab_dist + (1 - p_gen) * copy_attn scattered onto the context's
    token ids. p_gen broadcasts against vocab_dist: (T, 1) for (T, V) rows,
    or a scalar; copy_attn has one weight per context position on the last
    axis."""
    copy_vocab = nm.scatter_to_vocab(copy_attn, context_ids, vocab_dist.shape[-1])
    return p_gen * vocab_dist + (1.0 - p_gen) * copy_vocab


def output_distribution(step: DecoderStepOutput, context_ids) -> np.ndarray:
    """`pointer_mixture` of one decode step's arrays."""
    with nm.no_grad():
        return pointer_mixture(
            Tensor(step.p_gen), Tensor(step.vocab_dist), Tensor(step.copy_attn), context_ids
        ).data


# -- checkpoint container ------------------------------------------------------


def save_checkpoint(
    path: str, config: ModelConfig, params: Mapping[str, Tensor | np.ndarray]
) -> None:
    """Self-describing single file: one JSON manifest line, then the raw
    little-endian float64 arrays concatenated in manifest order."""
    names = sorted(params)
    arrays = {
        n: (params[n].data if isinstance(params[n], Tensor) else np.asarray(params[n]))
        for n in names
    }
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    with files.replacing(path, binary=True) as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(arrays[n], dtype="<f8"))


def _parse_manifest(
    path: str, head: bytes
) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...]]]]:
    """The config and the (name, shape) array entries of a checkpoint's
    manifest line; anything else in it raises CheckpointError naming `path`."""
    try:
        manifest = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = manifest.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: version {json.dumps(version)} is not {CHECKPOINT_VERSION}"
        )
    missing = [key for key in ("config", "arrays") if key not in manifest]
    if missing:
        raise CheckpointError(f"{path}: manifest lacks {' and '.join(missing)}")
    values = manifest["config"]
    if isinstance(values, dict):
        if "use_decoder_lm" in values:
            # Older files carry this switch beside decoder_lm_layers; false
            # meant no LM stack, and such files hold no lm.* arrays.
            use_lm = values.pop("use_decoder_lm")
            if type(use_lm) is not bool:
                raise CheckpointError(
                    f"{path}: use_decoder_lm {json.dumps(use_lm)} is not a JSON boolean"
                )
            if not use_lm:
                values["decoder_lm_layers"] = 0
        for f in fields(ModelConfig):
            # Exact types: JSON true is a Python int and 64.0 is no integer.
            if f.name in values and type(values[f.name]).__name__ != f.type:
                kind = "boolean" if f.type == "bool" else "integer"
                raise CheckpointError(
                    f"{path}: config {f.name} {json.dumps(values[f.name])} is not a JSON {kind}"
                )
    try:
        config = ModelConfig(**values)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: config does not fit the expected model: {exc}") from exc
    arrays = manifest["arrays"]
    if not isinstance(arrays, list):
        raise CheckpointError(f"{path}: manifest arrays is not a list")
    entries = []
    for i, e in enumerate(arrays):
        name, shape = (e.get("name"), e.get("shape")) if isinstance(e, dict) else (None, None)
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"{path}: malformed array entry {i}: {json.dumps(e)}")
        entries.append((name, tuple(shape)))
    return config, entries


def load_checkpoint(path: str) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a checkpoint back: its config and its arrays by name. The blob is
    read straight into one writable float64 buffer, and each array is a view
    of its own slice of it."""
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.endswith(b"\n"):
            raise CheckpointError(f"{path}: missing manifest line")
        config, entries = _parse_manifest(path, head)
        blob_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        bounds = list(itertools.accumulate((math.prod(s) for _, s in entries), initial=0))
        for (name, _), end in zip(entries, bounds[1:]):
            if end * 8 > blob_bytes:
                raise CheckpointError(f"{path}: truncated blob at {name}")
        if bounds[-1] * 8 != blob_bytes:
            raise CheckpointError(f"{path}: {blob_bytes - bounds[-1] * 8} trailing bytes")
        blob = np.empty(bounds[-1], dtype="<f8")
        if fh.readinto(blob) != blob.nbytes:
            raise CheckpointError(f"{path}: truncated blob while reading")
    return config, {
        name: blob[lo:hi].reshape(shape)
        for (name, shape), lo, hi in zip(entries, bounds, bounds[1:])
    }


def _check_arrays(path: str, config: ModelConfig, arrays: Mapping[str, np.ndarray]) -> None:
    """Raise CheckpointError naming `path` and the first array that is
    missing, misshapen or extra against `config`'s parameters: missing and
    misshapen ones in creation order, then extra ones by name."""
    expected = param_shapes(config)
    for name, shape in expected.items():
        if name not in arrays:
            raise CheckpointError(f"{path}: no array {name}, which the config needs")
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: array {name} has shape {arrays[name].shape}, "
                f"the config needs {shape}"
            )
    extra = sorted(set(arrays) - set(expected))
    if extra:
        raise CheckpointError(f"{path}: array {extra[0]} is not a parameter of the config")
