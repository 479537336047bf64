"""Independent reference implementations used to freeze expected values.

Everything here is written directly from the published definitions of the
algorithms, deliberately structured differently from the package code
(plain dict counting, full DP tables, recursive enumeration) so agreement
between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from sqgen import numerics as nm
from sqgen.training import BETA1, BETA2, EPS, nll_loss


# -- BLEU (corpus-level, modified n-gram precision, brevity penalty) ----------


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    candidates: list[list[str]],
    references: list[list[list[str]]],
    max_n: int = 4,
) -> float:
    clipped = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        # effective reference length: closest to the candidate, ties -> shorter
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(cand)), len(ref))
            if best is None or key < best:
                best = key
        ref_len += best[1]
        for n in range(1, max_n + 1):
            cn = _ngrams(cand, n)
            capped = Counter()
            for ref in refs:
                for gram, count in _ngrams(ref, n).items():
                    capped[gram] = max(capped[gram], count)
            clipped[n - 1] += sum(min(count, capped[gram]) for gram, count in cn.items())
            totals[n - 1] += sum(cn.values())
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for num, den in zip(clipped, totals):
        if den == 0 or num == 0:
            return 0.0
        log_sum += math.log(num / den)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / max_n)


# -- ROUGE-L (LCS F-measure with beta = P/R) ----------------------------------


def _lcs_table(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l(candidate: list[str], references: list[list[str]]) -> float:
    best = 0.0
    for ref in references:
        if not candidate or not ref:
            continue
        lcs = _lcs_table(candidate, ref)
        if lcs == 0:
            continue
        precision = lcs / len(candidate)
        recall = lcs / len(ref)
        beta = precision / recall
        f = ((1 + beta**2) * recall * precision) / (recall + beta**2 * precision)
        best = max(best, f)
    return best


# -- extractive-span brute force ----------------------------------------------


def best_span(p_start: np.ndarray, p_end: np.ndarray) -> tuple[int, int, float]:
    """All O(n^2) pairs 1 <= i < j <= n; first maximum = lexicographic tie-break."""
    n = len(p_start) - 1
    top = None
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = float(p_start[i] * p_end[j])
            if top is None or p > top[2]:
                top = (i, j, p)
    return top


def longest_common_run(question: list[int], context: list[int]) -> tuple[int, int]:
    """(context_start, length) of the longest common contiguous token run,
    ties to the earliest start, from the full O(|q|·n) run-length table."""
    best_len, best_start = 0, 0
    prev = [0] * (len(context) + 1)
    for q_tok in question:
        cur = [0] * (len(context) + 1)
        for j, c_tok in enumerate(context, start=1):
            if q_tok == c_tok:
                cur[j] = prev[j - 1] + 1
                start = j - cur[j]
                if cur[j] > best_len or (cur[j] == best_len and start < best_start):
                    best_len, best_start = cur[j], start
        prev = cur
    return best_start, best_len


# -- BPE training by a full scan ------------------------------------------------


def scan_train_vocab(
    corpus: list[str], target_size: int
) -> tuple[list[str], list[tuple[str, str]]]:
    """(tokens, merges) of byte-pair training that recounts every pair of
    every word before each merge and takes the minimum of the explicit key
    (-count, merged string, pair) over all of them."""
    word_counts = Counter(w for line in corpus for w in line.lower().split())
    words = {word: ["▁" + word[0], *word[1:]] for word in word_counts}
    tokens = ["[PAD]", "[UNK]", "[BOS]", "[EOS]"]
    tokens += sorted({sym for symbols in words.values() for sym in symbols})
    merges: list[tuple[str, str]] = []
    while len(tokens) < target_size:
        counts: Counter = Counter()
        for word, symbols in words.items():
            for pair in zip(symbols, symbols[1:]):
                counts[pair] += word_counts[word]
        if not counts:
            break
        a, b = min(counts, key=lambda pair: (-counts[pair], pair[0] + pair[1], pair))
        merges.append((a, b))
        if a + b not in tokens:
            tokens.append(a + b)
        for word, symbols in words.items():
            out: list[str] = []
            for sym in symbols:
                if out and out[-1] == a and sym == b:
                    out[-1] = a + b
                else:
                    out.append(sym)
            words[word] = out
    return tokens, merges


# -- exhaustive sequence search (beam oracle) ---------------------------------


def best_sequence(model, context, steps: int, eos_id: int = 3) -> tuple[list[int], float]:
    """Enumerate every token sequence of up to `steps` expansions and return
    (ids, logprob) of the highest-probability one (ties -> smallest ids)."""
    start = [2]  # BOS
    best: list[tuple[float, list[int]]] = []

    def expand(prefix: list[int], logprob: float, depth: int) -> None:
        if depth == steps or (len(prefix) > 1 and prefix[-1] == eos_id):
            best.append((logprob, prefix))
            return
        dist = model.next_distribution(context, prefix)
        for tok in range(len(dist)):
            if dist[tok] > 0.0:
                expand(prefix + [tok], logprob + math.log(dist[tok]), depth + 1)

    expand(start, 0.0, 0)
    best.sort(key=lambda item: (-item[0], item[1]))
    return best[0][1], best[0][0]


def tuple_sort_beam_search(
    model, context, beam: int, max_len: int, length_normalize: bool = True, eos_id: int = 3
) -> list[tuple[list[int], float, bool]]:
    """Beam search that scores every (parent, token) candidate as a Python
    tuple and sorts them all by (-score, parent, token), asking the model for
    one prefix at a time. Returns (ids, logprob, finished) best first."""
    live: list[tuple[list[int], float]] = [([2], 0.0)]  # BOS
    finished: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        if not live:
            break
        candidates = []
        for parent_idx, (ids, logprob) in enumerate(live):
            dist = model.next_distribution(context, ids)
            with np.errstate(divide="ignore"):
                logp = np.log(dist)
            for tok in range(len(dist)):
                candidates.append((logprob + float(logp[tok]), parent_idx, tok))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        for score, parent_idx, tok in candidates[:beam]:
            if score == -math.inf:
                continue
            child = (live[parent_idx][0] + [tok], score)
            (finished if tok == eos_id else next_live).append(child)
        live = next_live
    pool = [(ids, lp, True) for ids, lp in finished] + [(ids, lp, False) for ids, lp in live]
    if length_normalize:
        pool.sort(key=lambda h: (-h[1] / max(1, len(h[0]) - 1), h[0]))
    else:
        pool.sort(key=lambda h: (-h[1], h[0]))
    return pool


def sorted_sample_step(
    dist: np.ndarray, top_p: float, temperature: float, rng: np.random.Generator
) -> int:
    """Nucleus draw with sample_step's temperature arithmetic, ordering the
    tokens by a Python sort on (-p, id)."""
    logits = np.log(np.maximum(dist, 1e-300)) / temperature
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    order = sorted(range(p.size), key=lambda i: (-p[i], i))
    cum = np.cumsum(p[order])
    keep = min(int(np.searchsorted(cum, top_p)) + 1, p.size)
    kept = order[:keep]
    kept_p = p[kept] / p[kept].sum()
    idx = int(np.searchsorted(np.cumsum(kept_p), rng.random()))
    return kept[min(idx, keep - 1)]


# -- finite differences --------------------------------------------------------


def fd_directional(loss_fn, params, direction, h: float = 1e-5) -> float:
    """Central difference of loss_fn along a named direction over all params."""
    for name, vec in direction.items():
        params[name].data += h * vec
    up = loss_fn()
    for name, vec in direction.items():
        params[name].data -= 2.0 * h * vec
    down = loss_fn()
    for name, vec in direction.items():
        params[name].data += h * vec
    return (up - down) / (2.0 * h)


def fd_entry(loss_fn, array: np.ndarray, flat_index: int, h: float = 1e-5) -> float:
    """Central difference of loss_fn for one entry of one parameter array."""
    flat = array.reshape(-1)
    original = flat[flat_index]
    flat[flat_index] = original + h
    up = loss_fn()
    flat[flat_index] = original - h
    down = loss_fn()
    flat[flat_index] = original
    return (up - down) / (2.0 * h)


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    """Relative error with an absolute floor so near-zero pairs compare sanely."""
    return abs(a - b) / max(floor, abs(a), abs(b))


# -- composed autodiff ops ----------------------------------------------------------


def transpose(a, axes):
    """a with its axes permuted, as a graph node: the single op the fused
    head nodes fold in."""
    a = nm._as_tensor(a)
    axes = tuple(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inv))

    return nm.Tensor._make(a.data.transpose(axes), (a,), backward)


def reshape(a, shape):
    """a in a new shape, as a graph node: the single op the fused head nodes
    fold in."""
    a = nm._as_tensor(a)
    old = a.data.shape

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return nm.Tensor._make(a.data.reshape(shape), (a,), backward)


def matmul(a, b):
    """a @ b over the last two axes, as a graph node: the single op the
    fused `linear` and attention nodes fold in."""
    a, b = nm._as_tensor(a), nm._as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a._accumulate(nm._unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b._accumulate(nm._unbroadcast(gb, b.data.shape))

    return nm.Tensor._make(out_data, (a, b), backward)


def composed_attention_weights(qh, kh, mask=None):
    """The attention weights as the chain of single ops the fused
    `attention_weights` node replaces: transpose, matmul, scale, mask add,
    softmax."""
    scores = nm.mul(matmul(qh, transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(qh.shape[-1]))
    if mask is not None:
        scores = nm.add(scores, np.asarray(mask, dtype=np.float64))
    return nm.softmax(scores, axis=-1)


def composed_linear(x, w, b):
    """x @ w + b as the two ops the fused `linear` node replaces."""
    return nm.add(matmul(x, w), b)


def composed_project_heads(x, w, b, n_heads: int):
    """x projected and split into heads as the three ops the fused
    `project_heads` node replaces: linear, reshape, transpose."""
    t, d = x.shape
    flat = nm.linear(x, w, b)
    return transpose(reshape(flat, (t, n_heads, d // n_heads)), (1, 0, 2))


def composed_attend_out(attn, vh, wo, bo):
    """The heads' attention output merged and projected as the four ops the
    fused `attend_out` node replaces: matmul, transpose, reshape, linear."""
    h, tq, _ = attn.shape
    heads = matmul(attn, vh)
    merged = reshape(transpose(heads, (1, 0, 2)), (tq, h * vh.shape[-1]))
    return nm.linear(merged, wo, bo)


def composed_gelu(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-form GELU of x and its input gradient for the output gradient g,
    each as one out-of-place NumPy expression, the cube as two multiplies."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * (x * x * x)))
    du = c * (1.0 + 3.0 * a * x**2)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


# -- training step ---------------------------------------------------------------


def per_parameter_adam_step(params, grads, state, cfg) -> None:
    """One bias-corrected Adam update, in place, with a fresh pair of scratch
    arrays for each parameter."""
    state.step += 1
    t = state.step
    for name in sorted(params):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        a, b = np.empty_like(g), np.empty_like(g)
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=a)
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1.0 - BETA1**t, out=a)
        np.multiply(cfg.lr, a, out=a)
        np.divide(v, 1.0 - BETA2**t, out=b)
        np.sqrt(b, out=b)
        b += EPS
        params[name].data -= np.divide(a, b, out=a)


def summed_graph_step(model, batch) -> tuple[dict[str, np.ndarray], float]:
    """The batch gradient from one graph over the whole batch: the losses
    summed left to right, scaled by 1/len(batch), then one backward. Returns
    the gradients and the scaled batch loss."""
    losses = [nll_loss(model, ex) for ex in batch]
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    batch_loss = nm.mul(total, 1.0 / len(batch))
    loss_value = float(batch_loss.item())
    return nm.grad_map(batch_loss, model.params), loss_value


# -- misc ----------------------------------------------------------------------


def pearson(x, y) -> float:
    return float(np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1])


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())
