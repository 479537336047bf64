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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def greedy(model, context, max_len: int = 50) -> Hypothesis:
    """Follow the argmax token by token until EOS or the length cap."""
    check_settings(max_len=max_len)
    return _walk(model, context, max_len, _argmax_lowest)


def beam_search(
    model,
    context,
    beam: int = DEFAULT_BEAM,
    max_len: int = 50,
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
    dist: np.ndarray, top_p: float, temperature: float, rng: np.random.Generator
) -> int:
    """Draw one token: temperature-sharpen, keep the smallest set of tokens
    whose mass reaches top_p, renormalize, sample."""
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
    max_len: int = 50,
) -> Hypothesis:
    """Seeded nucleus sampling; logprob records the model's own (unfiltered)
    probability of the sampled sequence."""
    check_settings(max_len=max_len, top_p=top_p, temperature=temperature)
    rng = np.random.default_rng(seed)
    return _walk(
        model, context, max_len, lambda dist: sample_step(dist, top_p, temperature, rng)
    )
