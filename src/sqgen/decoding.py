"""Search and sampling strategies over a next-token-distribution model.

All three strategies speak to the model through one batched protocol: an
object with `next_distributions(context, prefixes) -> (B, V) probabilities`,
one row per prefix. Beam search asks for all live hypotheses in one call;
greedy and nucleus sampling pass one prefix. The prefixes of one call have
equal length, and each step's prefixes extend the previous step's, which
lets a model keep per-prefix state on the context between calls (`BertPgn`
caches attention keys and values there). Prefixes always start with BOS; a
hypothesis finishes by emitting EOS. Every tie anywhere breaks toward the
lowest token id, so decoding is a pure function of (model, context,
arguments).

Nucleus draws come from `Pcg64Stream`, which yields the draws of
`np.random.default_rng(seed).random()` bit for bit without importing
`numpy.random` (a 6 MB import that decoding needs nothing else of).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .corpus import MAX_QUESTION_TOKENS
from .textproc import BOS_ID, EOS_ID

DEFAULT_BEAM = 3
DEFAULT_TOP_P = 0.9
DEFAULT_TEMPERATURE = 0.1
DEFAULT_SEED = 0
GREEDY_TEMPERATURE = 1e-6  # at or below this, sampling collapses to argmax


class InvalidDecodeConfig(ValueError):
    """beam/top_p/temperature/max_len out of their documented ranges."""


@dataclass
class Hypothesis:
    ids: list[int] = field(default_factory=lambda: [BOS_ID])
    logprob: float = 0.0
    finished: bool = False

    def normalized(self) -> float:
        """Log probability per generated token (BOS excluded)."""
        return self.logprob / max(1, len(self.ids) - 1)


def check_settings(*, max_len=0, beam=1, top_p=1.0, temperature=0.0) -> None:
    """Raise InvalidDecodeConfig unless each setting is in range (as the defaults are)."""
    if beam < 1:
        raise InvalidDecodeConfig(f"beam must be >= 1, got {beam}")
    if max_len < 0:
        raise InvalidDecodeConfig(f"max_len must be >= 0, got {max_len}")
    if not 0.0 < top_p <= 1.0:
        raise InvalidDecodeConfig(f"top_p must be in (0,1], got {top_p}")
    if not temperature >= 0.0:  # NaN fails every comparison
        raise InvalidDecodeConfig(f"temperature must be >= 0, got {temperature}")


def _argmax_lowest(dist: np.ndarray) -> int:
    return int(np.argmax(dist))  # argmax returns the first (lowest id) max


def _walk(model, context, max_len: int, pick) -> Hypothesis:
    """Extend one hypothesis by `pick(dist)` until EOS or the length cap;
    logprob sums the model's own probabilities of the picked tokens."""
    hyp = Hypothesis()
    for _ in range(max_len):
        dist = model.next_distributions(context, [hyp.ids])[0]
        tok = pick(dist)
        with np.errstate(divide="ignore"):
            hyp.logprob += float(np.log(dist[tok]))
        hyp.ids.append(tok)
        if tok == EOS_ID:
            hyp.finished = True
            break
    return hyp


def greedy(model, context, max_len: int = MAX_QUESTION_TOKENS) -> Hypothesis:
    """Follow the argmax token by token until EOS or the length cap."""
    check_settings(max_len=max_len)
    return _walk(model, context, max_len, _argmax_lowest)


def beam_search(
    model,
    context,
    beam: int = DEFAULT_BEAM,
    max_len: int = MAX_QUESTION_TOKENS,
    length_normalize: bool = True,
) -> list[Hypothesis]:
    """Breadth-limited search; returns every kept hypothesis, best first.

    Pruning always uses the raw cumulative log probability; the
    length_normalize flag only changes the final ranking.
    """
    check_settings(max_len=max_len, beam=beam)
    live = [Hypothesis()]
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        if not live:
            break
        dists = model.next_distributions(context, [h.ids for h in live])
        with np.errstate(divide="ignore"):
            scores = np.array([h.logprob for h in live])[:, None] + np.log(dists)
        next_live: list[Hypothesis] = []
        for flat in _top_candidates(scores.ravel(), beam):
            score = float(scores.flat[flat])
            if score == -np.inf:
                continue
            parent_idx, tok = divmod(int(flat), scores.shape[1])
            parent = live[parent_idx]
            child = Hypothesis(parent.ids + [tok], score, tok == EOS_ID)
            (finished if child.finished else next_live).append(child)
        live = next_live

    pool = finished + live
    rank = (
        (lambda h: (-h.normalized(), h.ids))
        if length_normalize
        else (lambda h: (-h.logprob, h.ids))
    )
    pool.sort(key=rank)
    return pool


def _top_candidates(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best of the 1-D scores, ordered by (-score, index):
    the pool is ascending, so a stable sort breaks ties by index. Beam search
    passes the flattened (B, V) scores, so an index is parent * V + token."""
    neg = -scores
    if k < neg.size:
        # Every candidate that can rank in the first k, ties at the cut included.
        kth = np.partition(neg, k - 1)[k - 1]
        pool = np.flatnonzero(neg <= kth)
    else:
        pool = np.arange(neg.size)
    return pool[np.argsort(neg[pool], kind="stable")][:k]


def sample_step(
    dist: np.ndarray, top_p: float, temperature: float, rng
) -> int:
    """Draw one token: temperature-sharpen, keep the smallest set of tokens
    whose mass reaches top_p, renormalize, sample with one `rng.random()`
    (any object with that method: a `Pcg64Stream` or a NumPy Generator)."""
    check_settings(top_p=top_p, temperature=temperature)
    if temperature <= GREEDY_TEMPERATURE:
        return _argmax_lowest(dist)

    logits = np.log(np.maximum(dist, 1e-300)) / temperature
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()

    # The likeliest sixteenth of V by (-p, id) is a prefix of the full order,
    # and np.cumsum adds in order, so its running mass is the full order's.
    # A nucleus wider than that pool sorts all V.
    order = _top_candidates(p, max(1, p.size // 16))
    cum = np.cumsum(p[order])
    if cum[-1] < top_p:
        order = np.argsort(-p, kind="stable")
        cum = np.cumsum(p[order])
    keep = min(int(np.searchsorted(cum, top_p)) + 1, order.size)
    kept = order[:keep]
    kept_p = p[kept]
    kept_p /= kept_p.sum()
    draw = rng.random()
    idx = int(np.searchsorted(np.cumsum(kept_p), draw))
    return int(kept[min(idx, keep - 1)])


def nucleus_sample(
    model,
    context,
    top_p: float = DEFAULT_TOP_P,
    temperature: float = DEFAULT_TEMPERATURE,
    seed: int = DEFAULT_SEED,
    max_len: int = MAX_QUESTION_TOKENS,
) -> Hypothesis:
    """Seeded nucleus sampling; logprob records the model's own (unfiltered)
    probability of the sampled sequence."""
    check_settings(max_len=max_len, top_p=top_p, temperature=temperature)
    rng = Pcg64Stream(seed)
    return _walk(
        model, context, max_len, lambda dist: sample_step(dist, top_p, temperature, rng)
    )


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seed: int) -> list[int]:
    """`np.random.SeedSequence(seed).generate_state(8)`: the seed's 32-bit
    words, least significant first, hashed into a pool of 4, then hashed out
    into 8 words."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


class Pcg64Stream:
    """The doubles of `np.random.default_rng(seed).random()`, bit for bit:
    NumPy's PCG64 (XSL-RR output of a 128-bit LCG, O'Neill 2014) seeded
    through its `SeedSequence`. A negative seed raises ValueError, as
    `default_rng` does."""

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)  # a NumPy integer would wrap in the hashing
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        w = _seed_sequence_words(seed)
        # generate_state(4, uint64) pairs the 32-bit words little-endian.
        u = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = ((u[2] << 64 | u[3]) << 1 | 1) & _MASK128
        # From state 0: step (state = inc), add the initial state, step.
        self._state = ((self._inc + (u[0] << 64 | u[1])) * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        """Step, then take the top 53 bits of the new state's 64-bit output."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        return (((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0**-53
