"""Subword vocabulary training and reversible tokenization.

Encoder and decoder share one vocabulary, so a context token and the
generated token it copies to always carry the same id. Word boundaries are
marked with a prefix marker on the first subword of each word, which makes
decoding a pure string operation (join, swap markers for spaces, strip).
Text is lowercased both when the vocabulary is trained and when it encodes,
so a vocabulary file needs no case setting. Both also read the marker
character itself as a space: a marker inside a word would decode as a word
boundary, so it is one from the start, and no token ever holds a marker
after its first character.

Training reads its corpus once, as a stream of lines, and keeps only the
word types: each one's count and current symbols, each pair's count, and an
append-only list per pair of the words that took it on, where a word may
sit twice. A merge rewrites each listed word once, in one scan, and only
the pairs that touch a merge site change count. Stale entries in those
lists are skipped when the pair is merged, not removed as they go stale; a
list goes whole once no word holds its pair. The lazy heap of candidate
merges is rebuilt once it holds more than twice as many entries as there
are live pairs.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from typing import Iterable

from . import files

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[BOS]", "[EOS]")

# Prefix on word-initial subwords; rendered back to a space when decoding.
WORD_MARK = "▁"

MERGE_SENTINEL = "#MERGES"

DEFAULT_VOCAB_SIZE = 8000


class InvalidCorpus(ValueError):
    """Vocabulary training got an empty corpus, or a vocabulary file is malformed."""


class InvalidSize(ValueError):
    """Requested vocabulary cannot hold the specials plus the alphabet."""


class InvalidTokenId(ValueError):
    """decode() received an id outside the vocabulary."""


class Vocab:
    """Token table plus the ordered merge list that produced it.

    tokens[i] is the string for id i; ids 0..3 are the specials. merges are
    applied in training order when encoding, so the table is part of the
    tokenizer's behavior, not just bookkeeping. The lookup tables `id_of`
    and `_merge_rank` are built by the first `encode`, so a vocabulary that
    only decodes or counts its tokens never holds them. A vocabulary from
    `load_vocab` is given its merges as the checked lines of `merge_text`
    instead, and parses them into `merges` on first use (`encode` or
    `save_vocab`), so one that only decodes never holds the merge list.
    """

    def __init__(
        self, tokens: list[str], merges: list[tuple[str, str]] | None = None, merge_text: str = ""
    ) -> None:
        self.tokens = tokens
        if merges is not None:
            self.merges = merges  # shadows the parse below
        self._merge_text = merge_text
        self._word_cache: dict[str, list[int]] = {}

    @cached_property
    def merges(self) -> list[tuple[str, str]]:
        pairs = []
        for line in self._merge_text.split("\n"):
            if line:
                a, _, b = line.partition(" ")
                pairs.append((a, b))
        return pairs

    @cached_property
    def id_of(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    @cached_property
    def _merge_rank(self) -> dict[tuple[str, str], int]:
        return {pair: r for r, pair in enumerate(self.merges)}

    def __len__(self) -> int:
        return len(self.tokens)


def _normalize(text: str) -> str:
    return text.lower().replace(WORD_MARK, " ")


def _word_counts(lines: Iterable[str]) -> Counter[str]:
    """Count the words of `lines` as they arrive, holding no line past its
    own count."""
    counts: Counter[str] = Counter()
    empty = True
    for line in lines:
        empty = False
        counts.update(_normalize(line).split())
    if empty:
        raise InvalidCorpus("corpus is empty")
    if not counts:
        raise InvalidCorpus("corpus contains no words")
    return counts


def _word_symbols(word: str) -> tuple[str, ...]:
    chars = list(word)
    chars[0] = WORD_MARK + chars[0]
    return tuple(chars)


def train_vocab(corpus: Iterable[str], target_size: int = DEFAULT_VOCAB_SIZE) -> Vocab:
    """Learn a byte-pair vocabulary of at most target_size entries.

    Greedy pair merging over whitespace-split words. Each merge is the pair
    with the highest count; ties go to the smallest merged string, then to
    the smallest pair tuple, so ("a", "bc") beats ("ab", "c"). Training is
    therefore deterministic.

    `corpus` is any iterable of lines, read once: its words are counted as
    the lines arrive, so memory follows the word types, not the corpus.
    Training then holds each word type's count and current symbols, each
    pair's count, and for each pair a list of the words that gained it. No
    word is ever removed from a list, and a word that already held the
    merged symbol (("x", "yz") and ("xy", "z") both spell "xyz") may gain a
    pair it held and be listed twice: a merge rewrites the listed words
    once each, in id order, and skips any that no longer hold the pair. A
    list goes whole when its pair is merged or its count falls to zero.

    A rewrite scans the word left to right and touches only the merge
    sites. Merging (a, b) into ab at a site between symbols left and
    right takes the word's count from (left, a), (a, b) and (b, right) and
    gives it to (left, ab) and (ab, right); two sites side by side
    ("a b a b") share their middle pair, which is counted once.

    The merge is chosen from a lazy max-heap of (-count, merged string,
    pair): an entry whose count is out of date is popped when it reaches the
    top, and pushed back at the current count while the pair still occurs.
    A rewrite pushes each pair whose count it raised; every other count can
    only fall. When the heap holds more than twice as many entries as there
    are live pairs, it is rebuilt from the live counts. Training costs
    O(P log P) heap work for P pushed pairs plus, per merge, a constant
    number of count updates per site in the words listed for the chosen
    pair, instead of a scan over every pair on every merge or a recount of
    every pair of each rewritten word.
    """
    word_counts = _word_counts(corpus)
    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    for word, freq in sorted(word_counts.items()):
        words.append(_word_symbols(word))
        freqs.append(freq)
    del word_counts

    alphabet = sorted({sym for w in words for sym in w})
    if target_size < len(SPECIAL_TOKENS) + len(alphabet):
        raise InvalidSize(
            f"target_size={target_size} cannot hold {len(SPECIAL_TOKENS)} specials "
            f"+ alphabet of {len(alphabet)}"
        )

    # The token table in id order; a dict, which also answers membership.
    tokens = dict.fromkeys([*SPECIAL_TOKENS, *alphabet])
    merges: list[tuple[str, str]] = []

    # pair -> total frequency, and pair -> ids of the words that took it on.
    pair_freq: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], list[int]] = {}
    for wi, w in enumerate(words):
        f = freqs[wi]
        for pair in zip(w, w[1:]):
            pair_freq[pair] = pair_freq.get(pair, 0) + f
            holders = pair_words.get(pair)
            if holders is None:
                pair_words[pair] = [wi]
            elif holders[-1] != wi:
                holders.append(wi)

    heap = [(-f, pair[0] + pair[1], pair) for pair, f in pair_freq.items()]
    heapq.heapify(heap)

    while len(tokens) < target_size and pair_freq:
        while True:
            neg_freq, merged, best = heap[0]
            freq = pair_freq.get(best, 0)
            if -neg_freq == freq:
                break
            if freq:
                heapq.heapreplace(heap, (-freq, merged, best))
            else:
                heapq.heappop(heap)
        merges.append(best)
        tokens.setdefault(merged)

        a, b = best
        raised: set[tuple[str, str]] = set()
        for wi in sorted(set(pair_words.pop(best))):
            w = words[wi]
            n = len(w)
            try:
                j = w.index(a)
            except ValueError:
                continue  # an earlier merge took the pair from this word
            # Sites left to right; of two side by side ("a b a b"), the
            # second's left pair is the first's right pair, counted once.
            lost: list[tuple[str, str]] = []
            gained: list[tuple[str, str]] = []
            out = list(w[:j])
            end = -1  # just past the last site
            while j < n:
                x = w[j]
                if x == a and j + 1 < n and w[j + 1] == b:
                    lost.append(best)
                    if j:
                        lost.append((w[j - 1], a))
                        gained.append((out[-1], merged))
                    out.append(merged)
                    j += 2
                    end = j
                else:
                    if j == end:
                        lost.append((b, x))
                        gained.append((merged, x))
                    out.append(x)
                    j += 1
            if end < 0:
                continue
            words[wi] = tuple(out)
            f = freqs[wi]
            for pair in gained:  # before the losses, so no count dips to zero
                pair_freq[pair] = pair_freq.get(pair, 0) + f
                raised.add(pair)
                holders = pair_words.get(pair)
                if holders is None:
                    pair_words[pair] = [wi]
                elif holders[-1] != wi:
                    holders.append(wi)
            for pair in lost:
                left = pair_freq[pair] - f
                if left:
                    pair_freq[pair] = left
                else:  # no word holds the pair, so its whole list is stale
                    del pair_freq[pair]
                    pair_words.pop(pair, None)
        for pair in raised:
            heapq.heappush(heap, (-pair_freq[pair], pair[0] + pair[1], pair))
        if len(heap) > 2 * len(pair_freq):
            heap = [(-f, pair[0] + pair[1], pair) for pair, f in pair_freq.items()]
            heapq.heapify(heap)

    return Vocab(tokens=list(tokens), merges=merges)


def _apply_merges(symbols: list[str], rank: dict[tuple[str, str], int]) -> list[str]:
    while len(symbols) > 1:
        best_rank = None
        best_idx = -1
        for i, pair in enumerate(zip(symbols, symbols[1:])):
            r = rank.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_idx = i
        if best_rank is None:
            break
        symbols = (
            symbols[:best_idx]
            + [symbols[best_idx] + symbols[best_idx + 1]]
            + symbols[best_idx + 2 :]
        )
    return symbols


def encode(text: str, vocab: Vocab) -> list[int]:
    """Lowercase text, read the word mark as a space, and tokenize it to ids;
    characters the vocabulary never saw become UNK."""
    ids: list[int] = []
    for word in _normalize(text).split():
        cached = vocab._word_cache.get(word)
        if cached is None:
            symbols = _apply_merges(list(_word_symbols(word)), vocab._merge_rank)
            cached = [vocab.id_of.get(sym, UNK_ID) for sym in symbols]
            vocab._word_cache[word] = cached
        ids.extend(cached)
    return ids


def decode(ids: list[int], vocab: Vocab) -> str:
    """Invert encode; special tokens render as nothing."""
    pieces: list[str] = []
    for i in ids:
        if not 0 <= i < len(vocab.tokens):
            raise InvalidTokenId(f"id {i} outside vocabulary of {len(vocab.tokens)}")
        if i in (PAD_ID, UNK_ID, BOS_ID, EOS_ID):
            continue
        pieces.append(vocab.tokens[i])
    return "".join(pieces).replace(WORD_MARK, " ").strip()


def save_vocab(vocab: Vocab, path: str) -> None:
    """Write one token per line (line number = id), then the merge table."""
    with files.replacing(path) as f:
        for tok in vocab.tokens:
            f.write(tok + "\n")
        f.write(MERGE_SENTINEL + "\n")
        for a, b in vocab.merges:
            f.write(f"{a} {b}\n")


def load_vocab(path: str) -> Vocab:
    """Read what `save_vocab` wrote; a malformed file raises InvalidCorpus
    naming `path:line`. Lines 1-4 must be the specials in id order, and no
    token line may hold a space or repeat an earlier one, so each token has
    one id; one loop checks and names each token line, and keeps no table
    past it, so `id_of` is still built on first use. The file is read and
    decoded whole, once; a byte that is not UTF-8 is named by its line and
    its offset in that line, as `files.read_lines` names it."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data.rfind(b"\n", 0, exc.start) + 1  # where the bad byte's line starts
        exc.object, exc.start, exc.end = data[head : exc.end], exc.start - head, exc.end - head
        line = data.count(b"\n", 0, head) + 1
        raise InvalidCorpus(str(files.line_error(path, line, exc))) from None
    del data
    # The lines `files.read_lines` would give, with their line ends stripped.
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    del text
    # Token lines hold no space and merge lines always do, so the sentinel is
    # the last such line even when a learned token is spelled like it.
    if MERGE_SENTINEL not in lines:
        raise InvalidCorpus(f"{path} has no {MERGE_SENTINEL} section")
    sentinel = len(lines) - 1 - lines[::-1].index(MERGE_SENTINEL)
    for n, special in enumerate(SPECIAL_TOKENS, 1):
        if n > sentinel or lines[n - 1] != special:
            raise InvalidCorpus(f"{path}:{n}: expected {special!r}, got {lines[n - 1]!r}")
    tokens = lines[:sentinel]
    seen: set[str] = set()
    for n, tok in enumerate(tokens, 1):
        if " " in tok:
            raise InvalidCorpus(f"{path}:{n}: token line {tok!r} holds a space")
        if tok in seen:
            raise InvalidCorpus(f"{path}:{n}: token {tok!r} repeats line {tokens.index(tok) + 1}")
        seen.add(tok)
    merge_lines = lines[sentinel + 1 :]
    for n, line in enumerate(merge_lines, sentinel + 2):
        if line and " " not in line:
            raise InvalidCorpus(f"{path}:{n}: merge line {line!r} holds no space")
    # No line holds a "\n", so the merges parse from the joined lines alone.
    return Vocab(tokens=tokens, merge_text="\n".join(merge_lines))
