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
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property

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


def _words(corpus: list[str]) -> Counter[str]:
    counts: Counter[str] = Counter()
    for line in corpus:
        counts.update(_normalize(line).split())
    return counts


def _word_symbols(word: str) -> tuple[str, ...]:
    chars = list(word)
    chars[0] = WORD_MARK + chars[0]
    return tuple(chars)


def train_vocab(corpus: list[str], target_size: int = DEFAULT_VOCAB_SIZE) -> Vocab:
    """Learn a byte-pair vocabulary of at most target_size entries.

    Greedy pair merging over whitespace-split words. Each merge is the pair
    with the highest count; ties go to the smallest merged string, then to
    the smallest pair tuple, so ("a", "bc") beats ("ab", "c"). Training is
    therefore deterministic.

    Pair counts and the words holding each pair are updated incrementally, so
    a merge only rewrites the words that contain it. The merge is chosen from
    a lazy max-heap of (-count, merged string, pair): an entry whose count is
    out of date is popped when it reaches the top, and pushed back at the
    current count while the pair still occurs. A merge can raise only the
    counts of pairs holding the merged symbol, and only those are pushed
    after it; every other count can only fall. Training costs O(P log P)
    heap work for P pushed pairs plus, per merge, the rewrite of the words
    holding the chosen pair, instead of a scan over every pair on every
    merge.
    """
    if not corpus:
        raise InvalidCorpus("corpus is empty")

    word_counts = _words(corpus)
    if not word_counts:
        raise InvalidCorpus("corpus contains no words")
    words: list[list[str]] = []
    freqs: list[int] = []
    for word, freq in sorted(word_counts.items()):
        words.append(list(_word_symbols(word)))
        freqs.append(freq)

    alphabet = sorted({sym for w in words for sym in w})
    if target_size < len(SPECIAL_TOKENS) + len(alphabet):
        raise InvalidSize(
            f"target_size={target_size} cannot hold {len(SPECIAL_TOKENS)} specials "
            f"+ alphabet of {len(alphabet)}"
        )

    tokens = list(SPECIAL_TOKENS) + alphabet
    known = set(tokens)
    merges: list[tuple[str, str]] = []

    # pair -> total frequency, and pair -> indices of words containing it.
    pair_freq: Counter[tuple[str, str]] = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, w in enumerate(words):
        f = freqs[wi]
        for a, b in zip(w, w[1:]):
            pair_freq[(a, b)] += f
            pair_words.setdefault((a, b), set()).add(wi)

    heap = [(-f, a + b, (a, b)) for (a, b), f in pair_freq.items()]
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
        if merged not in known:
            tokens.append(merged)
            known.add(merged)

        raised: set[tuple[str, str]] = set()
        for wi in sorted(pair_words.get(best, ())):
            w = words[wi]
            f = freqs[wi]
            # Drop this word's old pair contributions, apply the merge, re-add.
            for a, b in zip(w, w[1:]):
                pair_freq[(a, b)] -= f
                if pair_freq[(a, b)] <= 0:
                    del pair_freq[(a, b)]
                ws = pair_words.get((a, b))
                if ws is not None:
                    ws.discard(wi)
                    if not ws:
                        del pair_words[(a, b)]
            new_w: list[str] = []
            j = 0
            while j < len(w):
                if j + 1 < len(w) and (w[j], w[j + 1]) == best:
                    new_w.append(merged)
                    j += 2
                else:
                    new_w.append(w[j])
                    j += 1
            words[wi] = new_w
            for a, b in zip(new_w, new_w[1:]):
                pair_freq[(a, b)] += f
                pair_words.setdefault((a, b), set()).add(wi)
                if a == merged or b == merged:
                    raised.add((a, b))
        for a, b in raised:
            heapq.heappush(heap, (-pair_freq[(a, b)], a + b, (a, b)))

    return Vocab(tokens=tokens, merges=merges)


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
    naming `path:line`."""
    try:
        lines = files.read_text(path).splitlines()
    except ValueError as exc:
        raise InvalidCorpus(str(exc)) from None
    # Token lines hold no space and merge lines always do, so the sentinel is
    # the last such line even when a learned token is spelled like it.
    if MERGE_SENTINEL not in lines:
        raise InvalidCorpus(f"{path} has no {MERGE_SENTINEL} section")
    sentinel = len(lines) - 1 - lines[::-1].index(MERGE_SENTINEL)
    merge_lines = lines[sentinel + 1 :]
    for n, line in enumerate(merge_lines, sentinel + 2):
        if line and " " not in line:
            raise InvalidCorpus(f"{path}:{n}: merge line {line!r} holds no space")
    # No line holds a "\n", so the merges parse from the joined lines alone.
    return Vocab(tokens=lines[:sentinel], merge_text="\n".join(merge_lines))
