"""Seeded synthetic inputs for the benchmark workloads.

One seed fixes every byte of every file. The seed changes the content of the
inputs, never their size: context and question lengths are spread evenly over
their ranges, in the same order for every seed, so runs on different seeds do
the same amount of work.

Words follow a Zipf law over a seeded list of word types, so BPE training and
the `encode` word cache see natural repetition. The `train` and `generate`
workloads get id-level prepared JSONL and a V=8000 vocabulary file written
directly, so their inputs cost nothing from `textproc`.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

VOCAB_SIZE = 8000
SPECIALS = ("[PAD]", "[UNK]", "[BOS]", "[EOS]")
FIRST_REGULAR_ID = len(SPECIALS)
WORD_MARK = "▁"
LETTERS = "abcdefghijklmnopqrstuvwxyz"
ZIPF_S = 1.1

# train / generate
CONTEXT_TOKENS = (150, 300)
QUESTION_TOKENS = (8, 12)  # about 10
TITLE_TOKENS = 4

# text
WORD_TYPES = 3000  # with WORD_LETTERS, enough merges for ~9400 tokens, so 8000 is reached
WORD_LETTERS = (3, 12)
NQ_CONTEXT_WORDS = (60, 140)
NQ_QUESTION_WORDS = (6, 12)
NEWS_ARTICLE_WORDS = (120, 240)
NO_PARAGRAPH_TAG_EVERY = 20  # one nq record in 20 carries p_tag=false
SETUP_ID = "setup0000"  # the one row of the eval gen set-up input


def spread(lo: int, hi: int, n: int) -> list[int]:
    """n integers evenly covering [lo, hi], mixed in an order that depends
    on n alone. The order is kept out of the seed's reach because it steers
    how the heap grows, and with it peak RSS."""
    if n == 1:
        return [(lo + hi) // 2]
    values = [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]
    random.Random(n).shuffle(values)
    return values


class Zipf:
    """Draws ranks 0..n-1 with probability proportional to 1 / (rank+1)^s."""

    def __init__(self, n: int, rng: random.Random, s: float = ZIPF_S):
        self.rng = rng
        self.ranks = range(n)
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in self.ranks))

    def draw(self, k: int) -> list[int]:
        return self.rng.choices(self.ranks, cum_weights=self.cum, k=k)


def word_types(n: int, rng: random.Random) -> list[str]:
    """n distinct lowercase words of WORD_LETTERS letters, in rank order."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        w = "".join(rng.choice(LETTERS) for _ in range(rng.randint(*WORD_LETTERS)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


# -- id-level inputs: train and generate --------------------------------------


def vocab_tokens(rng: random.Random) -> list[str]:
    """VOCAB_SIZE distinct tokens: specials, the marked and bare alphabet,
    then seeded subword strings."""
    tokens = list(SPECIALS) + [WORD_MARK + c for c in LETTERS] + list(LETTERS)
    seen = set(tokens)
    while len(tokens) < VOCAB_SIZE:
        body = "".join(rng.choice(LETTERS) for _ in range(rng.randint(2, 8)))
        tok = (WORD_MARK + body) if rng.random() < 0.6 else body
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    return tokens


def write_vocab(path: Path, tokens: list[str]) -> None:
    """The vocabulary file format `sqgen.textproc.load_vocab` reads: one
    token per line, the merge sentinel, then one merge per line."""
    lines = list(tokens) + ["#MERGES"]
    for tok in tokens[FIRST_REGULAR_ID + 2 * len(LETTERS) :]:
        cut = 1 + tok.startswith(WORD_MARK)
        lines.append(f"{tok[:cut]} {tok[cut:]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def prepared_examples(n: int, rng: random.Random, prefix: str) -> list[dict]:
    """Prepared rows in the `corpus.write_prepared` schema. Half are short
    answers (a tagged span of 1-5 tokens), half long (the whole context
    after the title tagged). Questions copy some context tokens, so the
    pointer has something to point at."""
    ids = Zipf(VOCAB_SIZE - FIRST_REGULAR_ID, rng)
    id_of_rank = list(range(FIRST_REGULAR_ID, VOCAB_SIZE))
    rng.shuffle(id_of_rank)
    rows = []
    for i, (n_ctx, n_q) in enumerate(
        zip(spread(*CONTEXT_TOKENS, n), spread(*QUESTION_TOKENS, n))
    ):
        context = [id_of_rank[r] for r in ids.draw(n_ctx)]
        short = i % 2 == 0
        if short:
            span = rng.randint(1, 5)
            start = rng.randint(TITLE_TOKENS, n_ctx - span)
            types = [int(start <= j < start + span) for j in range(n_ctx)]
        else:
            types = [int(j >= TITLE_TOKENS) for j in range(n_ctx)]
        question = [
            rng.choice(context) if rng.random() < 0.5 else id_of_rank[r]
            for r in ids.draw(n_q)
        ]
        rows.append(
            {
                "id": f"{prefix}{i:04d}",
                "context_ids": context,
                "type_ids": types,
                "question_ids": question,
                "answer_kind": "short" if short else "long",
            }
        )
    return rows


def make_id_level(out: Path, seed: int, n_train: int, n_dev: int, n_generate: int) -> None:
    """vocab.txt, train.jsonl, dev.jsonl and contexts.jsonl for the model
    workloads."""
    rng = random.Random(f"sqgen-bench-ids-{seed}")
    write_vocab(out / "vocab.txt", vocab_tokens(rng))
    write_jsonl(out / "train.jsonl", prepared_examples(n_train, rng, "t"))
    write_jsonl(out / "dev.jsonl", prepared_examples(n_dev, rng, "d"))
    write_jsonl(out / "contexts.jsonl", prepared_examples(n_generate, rng, "g"))


# -- raw-text inputs: text ----------------------------------------------------


def nq_records(n: int, rng: random.Random, words: list[str], zipf: Zipf) -> list[dict]:
    """Raw nq records with short answers (one word-aligned character span)
    and long answers (no span: the whole context is the answer)."""
    say = lambda k: [words[r] for r in zipf.draw(k)]
    rows = []
    for i, (n_ctx, n_q) in enumerate(
        zip(spread(*NQ_CONTEXT_WORDS, n), spread(*NQ_QUESTION_WORDS, n))
    ):
        ctx_words = say(n_ctx)
        spans = []
        if i % 2 == 0:
            first = rng.randint(0, n_ctx - 4)
            start = len(" ".join(ctx_words[:first])) + (first > 0)
            end = start + len(" ".join(ctx_words[first : first + rng.randint(1, 4)]))
            spans.append([start, end])
        rows.append(
            {
                "id": f"nq{i:05d}",
                "title": " ".join(say(rng.randint(2, 5))),
                "question": " ".join(say(n_q)),
                "context": " ".join(ctx_words),
                "short_spans": spans,
                "p_tag": i % NO_PARAGRAPH_TAG_EVERY != NO_PARAGRAPH_TAG_EVERY - 1,
            }
        )
    return rows


def candidate_questions(records: list[dict], rng: random.Random, words: list[str], zipf: Zipf) -> list[dict]:
    """One candidate per kept nq record: its gold question with about a third
    of the words replaced, so overlap scores land strictly inside (0, 100)."""
    rows = []
    for rec in records:
        if not rec["p_tag"]:
            continue
        q = rec["question"].split()
        out = [words[zipf.draw(1)[0]] if rng.random() < 0.35 else w for w in q]
        rows.append({"id": rec["id"], "question_text": " ".join(out)})
    return rows


def news_records(n: int, rng: random.Random, words: list[str], zipf: Zipf) -> list[dict]:
    """News articles with a `CITY (CNN) --` dateline and `@highlight`
    blocks, the shape `corpus.clean_article` strips."""
    say = lambda k: " ".join(words[r] for r in zipf.draw(k))
    rows = []
    for i, n_words in enumerate(spread(*NEWS_ARTICLE_WORDS, n)):
        highlights = [say(rng.randint(5, 10)) for _ in range(rng.randint(2, 3))]
        body = say(n_words)
        article = f"{say(1).upper()} (CNN) -- {body}\n\n" + "".join(
            f"@highlight\n\n{h}\n\n" for h in highlights
        )
        rows.append({"id": f"news{i:05d}", "article": article, "highlights": " . ".join(highlights)})
    return rows


def news_questions(articles: list[dict], rng: random.Random, words: list[str], zipf: Zipf) -> list[dict]:
    """One question per article: a run of article words plus fresh words."""
    rows = []
    for art in articles:
        body = art["article"].split(" -- ", 1)[1].split("@highlight")[0].split()
        start = rng.randint(0, len(body) - 6)
        q = body[start : start + rng.randint(2, 5)] + [words[r] for r in zipf.draw(rng.randint(2, 5))]
        rows.append({"id": art["id"], "question_text": " ".join(q)})
    return rows


def make_text(out: Path, seed: int, n_nq: int, n_news: int) -> None:
    """raw.jsonl, candidates.jsonl, news.jsonl and questions.jsonl for the
    text workload, plus the smallest inputs each command accepts, for timing
    set-up: one nq record for build-vocab, one candidate with its prepared
    reference for eval gen, an empty file for the rest, and a V=8000
    vocabulary file written directly."""
    rng = random.Random(f"sqgen-bench-text-{seed}")
    words = word_types(WORD_TYPES, rng)
    zipf = Zipf(len(words), rng)
    nq = nq_records(n_nq, rng, words, zipf)
    write_jsonl(out / "raw.jsonl", nq)
    write_jsonl(out / "candidates.jsonl", candidate_questions(nq, rng, words, zipf))
    news = news_records(n_news, rng, words, zipf)
    write_jsonl(out / "news.jsonl", news)
    write_jsonl(out / "questions.jsonl", news_questions(news, rng, words, zipf))

    write_jsonl(out / "setup_raw.jsonl", nq[:1])
    (out / "empty.jsonl").write_text("", encoding="utf-8")
    write_vocab(out / "vocab8000.txt", vocab_tokens(rng))
    write_jsonl(out / "setup_references.jsonl", prepared_examples(1, rng, "setup"))
    write_jsonl(out / "setup_candidates.jsonl", [{"id": SETUP_ID, "question_text": "what"}])
