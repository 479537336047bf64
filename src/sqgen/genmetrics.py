"""Corpus and sentence overlap metrics for generated questions.

All metrics work on whitespace tokens of lowercased text and return values
in [0, 1]; reporting layers multiply by 100. meteor_lite is a reduced
variant (exact unigram matching only, no stemming or synonymy) and is
labeled as such wherever it is reported.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

METEOR_ALPHA = 0.9  # recall weight in the harmonic mean
METEOR_GAMMA = 0.5  # fragmentation penalty scale
METEOR_THETA = 3.0  # fragmentation penalty exponent
_CHUNK_SEARCH_LIMIT = 20000  # max alignment combinations enumerated exactly


class InvalidInput(ValueError):
    """Empty corpus or mismatched candidate/reference lengths."""


def tokenize(text: str) -> list[str]:
    return text.lower().split()


@dataclass
class MetricReport:
    """Scores in [0,1]; multiply by 100 for table-style reporting."""

    bleu1: float
    bleu4: float
    rouge_l: float
    meteor_lite: float
    n_examples: int
    each: list[tuple[float, float]] = field(default_factory=list)  # per example (rouge_l, meteor_lite)
    each_bleu: list[tuple[float, float]] = field(default_factory=list)  # per example (bleu1, bleu4)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu_counts(
    cand: list[str], refs: list[list[str]], max_n: int
) -> tuple[list[int], list[int], int, int]:
    """One example's clipped and total n-gram counts for orders 1..max_n,
    its length, and its reference length: the closest reference length,
    ties to the shorter."""
    clipped = [0] * max_n
    totals = [0] * max_n
    ref_len = min((len(r) for r in refs), key=lambda L: (abs(L - len(cand)), L))
    for n in range(1, max_n + 1):
        counts = _ngrams(cand, n)
        if not counts:
            break  # no longer order has any either
        max_ref: Counter = Counter()
        for ref in refs:
            for gram, c in _ngrams(ref, n).items():
                if c > max_ref[gram]:
                    max_ref[gram] = c
        totals[n - 1] = sum(counts.values())
        clipped[n - 1] = sum(min(c, max_ref[gram]) for gram, c in counts.items())
    return clipped, totals, len(cand), ref_len


def _pooled_bleu(counts: list[tuple[list[int], list[int], int, int]], max_n: int) -> float:
    """BLEU up to order max_n from the summed `_bleu_counts` of examples."""
    clipped = [sum(c[n] for c, _, _, _ in counts) for n in range(max_n)]
    totals = [sum(t[n] for _, t, _, _ in counts) for n in range(max_n)]
    cand_len = sum(length for _, _, length, _ in counts)
    ref_len = sum(closest for _, _, _, closest in counts)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(max_n):
        if totals[n] == 0 or clipped[n] == 0:
            return 0.0
        log_sum += math.log(clipped[n] / totals[n]) / max_n
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum)


def _check_pairs(candidates: list, references: list) -> None:
    if not candidates or len(candidates) != len(references):
        raise InvalidInput(
            f"{len(candidates)} candidates vs {len(references)} reference groups"
        )


def bleu(
    candidates: list[list[str]],
    references: list[list[list[str]]],
    max_n: int = 4,
) -> float:
    """Corpus-level BLEU: clipped n-gram precision with brevity penalty.

    Zero if any order's precision is zero. The brevity penalty's reference
    length is the closest reference length per example, ties to the shorter.
    """
    _check_pairs(candidates, references)
    if any(not group for group in references):
        raise InvalidInput("every candidate needs at least one reference")
    counts = [_bleu_counts(cand, refs, max_n) for cand, refs in zip(candidates, references)]
    return _pooled_bleu(counts, max_n)


def _lcs_len(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: list[str], references: list[list[str]]) -> float:
    """LCS F-measure with recall-weighted beta (beta = P/R), max over refs."""
    if not references:
        raise InvalidInput("rouge_l needs at least one reference")
    best = 0.0
    for ref in references:
        if not candidate or not ref:
            continue
        lcs = _lcs_len(candidate, ref)
        if lcs == 0:
            continue
        p = lcs / len(candidate)
        r = lcs / len(ref)
        f = r * p * (r * r + p * p) / (r**3 + p**3)
        best = max(best, f)
    return best


def _alignment_chunks(pairs: list[tuple[int, int]]) -> int:
    """Chunks = maximal runs contiguous in both sentences."""
    pairs = sorted(pairs)
    chunks = 0
    prev = None
    for ci, ri in pairs:
        if prev is None or (ci, ri) != (prev[0] + 1, prev[1] + 1):
            chunks += 1
        prev = (ci, ri)
    return chunks


def _min_chunks_exact(cand: list[str], ref: list[str]) -> int | None:
    """Minimum chunk count over all maximum exact-match alignments, or None
    when the assignment space is too large to enumerate."""
    cand_pos: dict[str, list[int]] = {}
    ref_pos: dict[str, list[int]] = {}
    for i, w in enumerate(cand):
        cand_pos.setdefault(w, []).append(i)
    for j, w in enumerate(ref):
        ref_pos.setdefault(w, []).append(j)

    per_word_options: list[list[tuple[tuple[int, int], ...]]] = []
    total = 1
    for w, cs in cand_pos.items():
        rs = ref_pos.get(w)
        if not rs:
            continue
        k = min(len(cs), len(rs))
        options = [
            tuple(zip(chosen, perm))
            for chosen in itertools.combinations(cs, k)
            for perm in itertools.permutations(rs, k)
        ]
        total *= len(options)
        if total > _CHUNK_SEARCH_LIMIT:
            return None
        per_word_options.append(options)

    best = None
    for combo in itertools.product(*per_word_options):
        pairs = [p for option in combo for p in option]
        chunks = _alignment_chunks(pairs)
        if best is None or chunks < best:
            best = chunks
    return best


def _min_chunks_greedy(cand: list[str], ref: list[str]) -> int:
    """Longest-common-fragment-first alignment; each fragment is one chunk."""
    c_used = [False] * len(cand)
    r_used = [False] * len(ref)
    chunks = 0
    while True:
        best_len, best_at = 0, None
        for i in range(len(cand)):
            for j in range(len(ref)):
                length = 0
                while (
                    i + length < len(cand)
                    and j + length < len(ref)
                    and not c_used[i + length]
                    and not r_used[j + length]
                    and cand[i + length] == ref[j + length]
                ):
                    length += 1
                if length > best_len:
                    best_len, best_at = length, (i, j)
        if best_at is None:
            return chunks
        i, j = best_at
        for d in range(best_len):
            c_used[i + d] = True
            r_used[j + d] = True
        chunks += 1


def meteor_lite(candidate: list[str], reference: list[str]) -> float:
    """Exact-unigram alignment score with a fragmentation penalty:

        F = P*R / (alpha*P + (1-alpha)*R)
        penalty = gamma * (chunks / matches) ** theta
        score = F * (1 - penalty)

    with the alignment chosen to minimize chunks (enumerated exactly on
    desk-scale sentences, longest-fragment-first greedy beyond that).
    """
    ref_counts = Counter(reference)
    matches = sum(min(c, ref_counts[w]) for w, c in Counter(candidate).items())
    if matches == 0 or not candidate or not reference:
        return 0.0
    p = matches / len(candidate)
    r = matches / len(reference)
    f = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    chunks = _min_chunks_exact(candidate, reference)
    if chunks is None:
        chunks = _min_chunks_greedy(candidate, reference)
    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_THETA
    return f * (1.0 - penalty)


def corpus_report(
    candidates: list[list[str]], references: list[list[list[str]]]
) -> MetricReport:
    """BLEU at corpus level; ROUGE-L / METEOR-lite averaged per example with
    the best reference taken for each. Each example's n-grams are counted
    once: corpus BLEU-1/4 come from the summed counts, and each example's
    BLEU-1/4 (`each_bleu`) from its own, so both equal what `bleu` gives."""
    _check_pairs(candidates, references)
    each: list[tuple[float, float]] = []
    counts = []
    rouge_sum = meteor_sum = 0.0  # summed in order: sum() compensates from Python 3.12 on
    for cand, refs in zip(candidates, references):
        each.append((rouge_l(cand, refs), max(meteor_lite(cand, ref) for ref in refs)))
        rouge_sum += each[-1][0]
        meteor_sum += each[-1][1]
        counts.append(_bleu_counts(cand, refs, 4))
    n = len(candidates)
    return MetricReport(
        bleu1=_pooled_bleu(counts, 1),
        bleu4=_pooled_bleu(counts, 4),
        rouge_l=rouge_sum / n,
        meteor_lite=meteor_sum / n,
        n_examples=n,
        each=each,
        each_bleu=[(_pooled_bleu([c], 1), _pooled_bleu([c], 4)) for c in counts],
    )
