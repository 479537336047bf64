"""Command-line front end for the whole pipeline.

    sqgen build-vocab   learn a subword vocabulary from raw data
    sqgen prepare       raw records -> model-ready examples (nq or news)
    sqgen train         teacher-forced training with per-epoch checkpoints
    sqgen generate      beam / nucleus / greedy question generation
    sqgen eval          gen (overlap metrics), qa (scorer-based), correlate

Each tunable setting is declared once, in `SETTINGS`, with its type. That
one entry makes the flag of every subcommand taking it and types the key of
the same name in a `--config` JSON file, which must hold a number the type
keeps unchanged; a flag wins over the file, and the file's keys that the
subcommand does not take are ignored. A setting given neither way keeps the
default of the config dataclass or function it feeds. A negative seed is
refused whichever way it is given.

Only the pure-Python modules every command shares are imported at module
level; each command imports the rest in its own body. Importing NumPy and the
model stack takes longer than the rest of a command's start-up, so the
pure-Python commands `build-vocab`, `prepare`, `eval gen` and `eval qa` never
load them.

Every command that succeeds drops a `<output>.manifest.json` recording the
command line, inputs, outputs, seed, settings, wall time, peak memory and
code version.
Exit codes: 0 success, 2 input error, 3 numerical failure.

`python -m sqgen.cli` and the `sqgen` script go through `run()`, which
freezes the collector's objects after `main` so the interpreter's exit-time
collections skip them; in-process callers use `main`.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Container, Iterable, Iterator

# Pure-Python modules only: a command that needs `numerics`, `model`,
# `training` or `decoding` (and so NumPy), `qaeval` or `genmetrics`, imports it
# in its body.
from . import corpus, files, textproc

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _git_describe() -> str:
    """`git describe` of the checkout this code runs from, whatever the
    working directory; "unknown" when it is not in one."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@dataclass
class Done:
    """What a command that succeeded hands `main` for its manifest."""

    output_path: str  # the manifest goes to <output_path>.manifest.json
    inputs: list[str]
    outputs: list[str]
    seed: int | None = None
    settings: dict = field(default_factory=dict)


def write_manifest(
    done: Done, command: str, argv: list[str], wall_seconds: float, peak_rss_mb: float
) -> None:
    manifest = {
        "command": command,
        "argv": argv,
        "inputs": sorted(done.inputs),
        "outputs": sorted(done.outputs),
        "seed": done.seed,
        "settings": done.settings,
        "git": _git_describe(),
        # `time`, not `datetime`, which no text command otherwise loads
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "wall_seconds": wall_seconds,
        "peak_rss_mb": peak_rss_mb,
    }
    files.write_json(done.output_path + ".manifest.json", manifest)


# -- shared plumbing -----------------------------------------------------------

# Every tunable setting and its type: the flag `--max-context` and the
# `--config` key `max_context` both set `args.max_context`, else it stays None.
SETTINGS = {
    "size": int, "max_context": int, "max_question": int, "lr": float,
    "batch_size": int, "epochs": int, "seed": int, "split_ratio": float,
    "d_model": int, "n_heads": int, "encoder_layers": int, "decoder_lm_layers": int,
    "cross_layers": int, "ffn_dim": int, "beam": int, "top_p": float, "temperature": float,
}


def _check_seed(seed: int | None, where: str) -> None:
    """Refuse a negative seed, which NumPy seeds no generator from, naming
    the flag or the config key it came from."""
    if seed is not None and seed < 0:
        raise ValueError(f"{where} must be >= 0, got {seed}")


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return data


def _apply_config(args: argparse.Namespace) -> None:
    """Check the `--seed` flag, and every `--config` value of a setting this
    command takes: a JSON number its type keeps unchanged, and no negative
    seed. Fill each such setting no flag gave, and map its name in
    `args.from_config` to how a message names it."""
    _check_seed(getattr(args, "seed", None), "--seed")
    args.from_config = {}
    if not args.config:
        return
    for key, value in _load_config_file(args.config).items():
        kind = SETTINGS.get(key)
        if kind is None or key not in vars(args):
            continue  # not a setting of this subcommand
        try:
            typed = kind(value) if type(value) in (int, float) else None
        except (OverflowError, ValueError):  # int() of inf or nan
            typed = None
        if typed is None or typed != value:
            raise ValueError(
                f"{args.config}: {key}: {json.dumps(value)} is not a JSON {kind.__name__}"
            )
        if key == "seed":
            _check_seed(typed, f"{args.config}: seed")
        if getattr(args, key) is None:
            setattr(args, key, typed)
            args.from_config[key] = f"{args.config}: {key}"


def _setting(args: argparse.Namespace, name: str, default):
    """The setting's value from a flag or the config file, else `default`."""
    value = getattr(args, name)
    return default if value is None else value


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named settings that a flag or the config file gave."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _question_rows(
    path: str, known: Container[str], kind: str, missing: str
) -> Iterator[tuple[str, str]]:
    """(id, question_text) of each row of `path`, in `generate`'s output
    format. A row whose id is not in `known` fails naming its line, with
    the message "<kind> <id> <missing>"."""
    def row(obj: dict) -> tuple[str, str]:
        rid, text = str(obj["id"]), corpus.text_field(obj, "question_text")
        if rid not in known:
            raise ValueError(f"{kind} {rid} {missing}")
        return rid, text

    return corpus.read_jsonl(path, row)


# -- subcommands -----------------------------------------------------------------


def cmd_build_vocab(args: argparse.Namespace) -> Done:
    size = _setting(args, "size", textproc.DEFAULT_VOCAB_SIZE)
    # Records are streamed into the word counts; a malformed one raises
    # before anything is written.
    if args.kind == "nq":
        lines: Iterable[str] = (
            text for rec in corpus.read_raw_records(args.input)
            for text in (rec.title, rec.context, rec.question)
        )
    elif args.kind == "news":
        lines = (
            text for _, article, highlights in corpus.read_news_records(args.input)
            for text in (corpus.clean_article(article), highlights)
        )
    else:
        lines = files.read_lines(args.input)
    try:
        vocab = textproc.train_vocab(lines, target_size=size)
    except textproc.InvalidCorpus as exc:  # no words in the whole input
        raise textproc.InvalidCorpus(f"{args.input}: {exc}") from None
    textproc.save_vocab(vocab, args.output)
    print(f"vocab of {len(vocab)} tokens -> {args.output}", file=sys.stderr)
    return Done(args.output, [args.input], [args.output],
                settings={"size": size, "kind": args.kind})


def cmd_prepare(args: argparse.Namespace) -> Done:
    max_context = _setting(args, "max_context", corpus.MAX_CONTEXT_TOKENS)
    max_question = _setting(args, "max_question", corpus.MAX_QUESTION_TOKENS)
    for name, value in (("max_context", max_context), ("max_question", max_question)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    vocab = textproc.load_vocab(args.vocab)

    if args.kind == "nq":
        results = [
            corpus.prepare_example(rec, vocab, max_context=max_context, max_question=max_question)
            for rec in corpus.read_raw_records(args.input)
        ]
    else:
        max_tokens = min(max_context, corpus.MAX_NEWS_TOKENS)
        results = [
            corpus.prepare_news(article, vocab, article_id=rid, max_tokens=max_tokens)
            for rid, article, _ in corpus.read_news_records(args.input)
        ]

    kept = [r for r in results if isinstance(r, corpus.PreparedExample)]
    rejected: dict[str, int] = {}
    for r in results:
        if isinstance(r, corpus.Rejected):
            rejected[r.reason] = rejected.get(r.reason, 0) + 1

    corpus.write_prepared(kept, args.output)
    print(
        f"kept {len(kept)} / {len(results)}; rejections: {json.dumps(rejected, sort_keys=True)}",
        file=sys.stderr,
    )
    return Done(
        args.output, [args.input, args.vocab], [args.output],
        settings={
            "kind": args.kind,
            "max_context": max_context,
            "max_question": max_question,
            "kept": len(kept),
            "rejected": rejected,
        },
    )


def cmd_train(args: argparse.Namespace) -> Done:
    from . import training
    from .model import BertPgn, ModelConfig

    cfg = training.TrainConfig(**_given(args, "lr", "batch_size", "epochs", "seed"))
    vocab_size = len(textproc.load_vocab(args.vocab))  # only the size is kept
    config = ModelConfig(
        vocab_size=vocab_size,
        **_given(args, "d_model", "n_heads", "encoder_layers", "decoder_lm_layers",
                 "cross_layers", "ffn_dim", "max_context", "max_question"),
        use_pointer=not args.no_pointer,
        use_type_ids=not args.no_type_ids,
    )
    examples = corpus.read_prepared(args.data)
    if args.dev:
        split = corpus.DatasetSplit(train=examples, dev=corpus.read_prepared(args.dev))
    else:
        ratio = {} if args.split_ratio is None else {"ratio": args.split_ratio}
        try:
            split = corpus.split_dataset(examples, seed=cfg.seed, **ratio)
        except corpus.TooFewToSplit as exc:
            raise ValueError(f"{args.data}: {exc}; give a dev set with --dev") from exc
    for path, part in ((args.data, split.train), (args.dev or args.data, split.dev)):
        if not part:
            raise ValueError(f"{path}: no examples")
        corpus.check_fits(part, path, vocab_size, config.max_context, config.max_question)

    model = BertPgn(config, seed=cfg.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    result = training.train(model, split, cfg, out_dir=args.out_dir)
    print(
        f"best epoch {result.best_epoch} dev_perplexity {result.best_dev_perplexity:.4f} "
        f"train_examples {len(split.train)} dev_examples {len(split.dev)}",
        file=sys.stderr,
    )
    return Done(
        os.path.join(args.out_dir, "train"),
        [args.data, args.vocab] + ([args.dev] if args.dev else []),
        [os.path.join(args.out_dir, name) for name in ("best.ckpt", "train_log.csv")],
        seed=cfg.seed,
        settings={
            "model": asdict(config), "train": asdict(cfg),
            "train_examples": len(split.train), "dev_examples": len(split.dev),
        },
    )


def cmd_generate(args: argparse.Namespace) -> Done:
    from . import decoding
    from . import numerics as nm
    from .model import BertPgn

    vocab = textproc.load_vocab(args.vocab)
    model = BertPgn.from_checkpoint(args.checkpoint)
    if model.config.vocab_size != len(vocab):
        raise ValueError(
            f"{args.vocab}: vocab of {len(vocab)} does not match "
            f"vocab_size={model.config.vocab_size} of checkpoint {args.checkpoint}"
        )
    examples = corpus.read_prepared(args.data)
    corpus.check_fits(examples, args.data, len(vocab), model.config.max_context)
    max_len = _setting(args, "max_question", model.config.max_question)
    if max_len > model.config.max_question + 1:  # the decoder's position table
        raise ValueError(
            f"{args.from_config.get('max_question', '--max-question')} {max_len} exceeds "
            f"max_question+1={model.config.max_question + 1} of checkpoint {args.checkpoint}"
        )
    beam = _setting(args, "beam", decoding.DEFAULT_BEAM)
    top_p = _setting(args, "top_p", decoding.DEFAULT_TOP_P)
    temperature = _setting(args, "temperature", decoding.DEFAULT_TEMPERATURE)
    seed = _setting(args, "seed", decoding.DEFAULT_SEED)
    # every setting goes into the manifest, so each is checked, used by this mode or not
    decoding.check_settings(max_len=max_len, beam=beam, top_p=top_p, temperature=temperature)

    rows = []
    for ex in examples:
        with nm.no_grad():
            enc = model.encode_context(ex.context_ids, ex.type_ids)
        if args.mode == "beam":
            hyp = decoding.beam_search(
                model, enc, beam=beam, max_len=max_len,
                length_normalize=not args.no_length_normalize,
            )[0]
        elif args.mode == "nucleus":
            hyp = decoding.nucleus_sample(
                model, enc, top_p=top_p, temperature=temperature,
                seed=seed, max_len=max_len,
            )
        else:
            hyp = decoding.greedy(model, enc, max_len=max_len)
        rows.append((ex.id, hyp))
    files.write_jsonl(args.output, (
        {"id": rid, "question_text": textproc.decode(hyp.ids, vocab), "logprob": hyp.logprob}
        for rid, hyp in rows
    ))
    return Done(
        args.output, [args.checkpoint, args.data, args.vocab], [args.output],
        seed=seed,
        settings={
            "mode": args.mode, "beam": beam, "top_p": top_p,
            "temperature": temperature, "max_question": max_len,
            "reached_eos": sum(hyp.finished for _, hyp in rows),
        },
    )


def _eval_gen(args: argparse.Namespace) -> Done:
    from . import genmetrics

    vocab = textproc.load_vocab(args.vocab)
    refs_by_id: dict[str, list[list[str]]] = {}
    for ex in corpus.read_prepared(args.references):
        try:
            text = textproc.decode(ex.question_ids, vocab)
        except textproc.InvalidTokenId as exc:
            raise ValueError(f"{args.references}: example {ex.id}: question {exc}") from None
        if text:
            refs_by_id.setdefault(ex.id, []).append(genmetrics.tokenize(text))

    candidates: list[list[str]] = []
    references: list[list[list[str]]] = []
    ids: list[str] = []
    for rid, text in _question_rows(args.candidates, refs_by_id, "candidate",
                                    f"has no reference question in {args.references}"):
        ids.append(rid)
        candidates.append(genmetrics.tokenize(text))
        references.append(refs_by_id[rid])
    if not ids:
        raise ValueError(f"{args.candidates}: no candidate questions")

    report = genmetrics.corpus_report(candidates, references)
    payload = {
        "bleu1": report.bleu1 * 100.0,
        "bleu4": report.bleu4 * 100.0,
        "rouge_l": report.rouge_l * 100.0,
        "meteor_lite": report.meteor_lite * 100.0,
        "n": report.n_examples,
    }
    files.write_json(args.output, payload)
    if args.per_example:
        files.write_csv(args.per_example, ["id", "bleu1", "bleu4", "rouge_l", "meteor_lite"], (
            [rid, *(v * 100.0 for v in row)] for rid, row in zip(ids, report.each)
        ))
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return Done(
        args.output, [args.candidates, args.references, args.vocab],
        [args.output] + ([args.per_example] if args.per_example else []),
        settings=payload,
    )


def _eval_qa(args: argparse.Namespace) -> Done:
    from . import qaeval

    vocab = textproc.load_vocab(args.vocab)
    contexts: dict[str, list[int]] = {}
    for cid, article, highlights in corpus.read_news_records(args.contexts):
        source = corpus.clean_article(article) if args.context_source == "article" else highlights
        contexts[cid] = textproc.encode(source, vocab)

    scorer = qaeval.LexicalOverlapScorer()
    tag = args.model_tag
    rows: list[tuple[str, float, float]] = []
    for rid, text in _question_rows(args.questions, contexts, "question",
                                    f"has no context in {args.contexts}"):
        q_ids = textproc.encode(text, vocab)
        try:
            scores = qaeval.qa_score(scorer, q_ids, contexts[rid])
        except (qaeval.ContextTooShort, qaeval.ScorerError) as exc:
            # the lexical scorer raises ScorerError only on an empty context
            raise ValueError(f"{args.contexts}: article {rid}: {exc}") from None
        rows.append((rid, scores.answerability, scores.granularity))

    scatter_csv = args.output_prefix + "_scatter.csv"
    files.write_csv(
        scatter_csv, ["id", "s_ans", "s_gra", "model_tag"],
        ([rid, ans, gra, tag] for rid, ans, gra in rows),
    )

    means_csv = args.output_prefix + "_means.csv"
    n = len(rows)
    means = [[tag, sum(r[1] for r in rows) / n, sum(r[2] for r in rows) / n, n]] if rows else []
    files.write_csv(means_csv, ["model_tag", "mean_s_ans", "mean_s_gra", "n"], means)

    svg_path = args.output_prefix + "_scatter.svg"
    scatter_svg(
        svg_path,
        [(r[1], r[2]) for r in rows],
        xlabel="answerability",
        ylabel="granularity",
        title=tag,
    )
    return Done(
        scatter_csv, [args.questions, args.contexts, args.vocab],
        [scatter_csv, means_csv, svg_path],
        settings={"scorer": "lexical", "context_source": args.context_source, "n": len(rows)},
    )


def _eval_correlate(args: argparse.Namespace) -> Done:
    from . import qaeval

    scores: dict[str, tuple[float, float]] = {}
    reader = csv.DictReader(files.read_lines(args.scores))
    try:
        for row in reader:
            try:
                scores[row["id"]] = pair = (float(row["s_ans"]), float(row["s_gra"]))
                if not all(map(math.isfinite, pair)):
                    raise ValueError(f"s_ans and s_gra must be finite, got {pair}")
            except (KeyError, TypeError, ValueError) as exc:
                raise files.line_error(args.scores, reader.line_num, exc) from exc
    except csv.Error as exc:  # an over-long field, say
        # DictReader.line_num counts only rows that parsed; its reader counts each line
        raise files.line_error(args.scores, reader.reader.line_num, exc) from exc
    annotations = list(corpus.read_jsonl(
        args.annotations,
        lambda obj: qaeval.AnnotationRecord(
            article_id=str(obj["article_id"]),
            annotator_id=str(obj["annotator_id"]),
            flags={k: bool(v) for k, v in dict(obj["flags"]).items()},
        ),
    ))
    try:
        report = qaeval.correlation_report(scores, annotations)
    except qaeval.InvalidAnnotationSet as exc:
        raise ValueError(f"{args.annotations}: {exc}") from None
    except qaeval.DegenerateInput as exc:  # too few scored articles, or equal scores
        raise ValueError(f"{args.scores}: {exc}") from None
    files.write_json(args.output, report)
    if args.unanimity_output:
        ratios = qaeval.unanimity_ratios(annotations)
        files.write_json(args.unanimity_output, {f: asdict(row) for f, row in ratios.items()})
    return Done(
        args.output, [args.scores, args.annotations],
        [args.output] + ([args.unanimity_output] if args.unanimity_output else []),
    )


# -- plotting -----------------------------------------------------------------


def scatter_svg(
    path: str,
    points: list[tuple[float, float]],
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> None:
    """Write a self-contained static SVG scatter plot (no plotting library)."""
    import html  # here, not at module level: only `eval qa` draws a plot

    xlabel, ylabel, title = (html.escape(t, quote=False) for t in (xlabel, ylabel, title))
    width, height, margin = 640, 480, 60
    # No points frame the origin, which the equal-range rule widens to -1..1.
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymax == ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    xpad = 0.05 * (xmax - xmin)
    ypad = 0.05 * (ymax - ymin)
    xmin, xmax = xmin - xpad, xmax + xpad
    ymin, ymax = ymin - ypad, ymax + ypad

    def px(x: float) -> float:
        return margin + (x - xmin) / (xmax - xmin) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{py(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>'
        )
    # zero axes, when in range
    if xmin < 0.0 < xmax:
        parts.append(
            f'<line x1="{px(0):.1f}" y1="{margin}" x2="{px(0):.1f}" '
            f'y2="{height - margin}" stroke="#cccccc" stroke-dasharray="4"/>'
        )
    if ymin < 0.0 < ymax:
        parts.append(
            f'<line x1="{margin}" y1="{py(0):.1f}" x2="{width - margin}" '
            f'y2="{py(0):.1f}" stroke="#cccccc" stroke-dasharray="4"/>'
        )
    for x, y in points:
        parts.append(
            f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="#4477aa" '
            f'fill-opacity="0.6"/>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>'
    )
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="24" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )
    parts.append("</svg>")
    with files.replacing(path) as f:
        f.write("\n".join(parts) + "\n")


# -- parser ---------------------------------------------------------------------


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=SETTINGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgen", description="Generate questions from passages, and score them.",
        epilog="exit codes: 0 success, 2 input error, 3 numerical failure")
    parser.add_argument("--config", help="JSON object of numeric settings; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="learn a subword vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_settings(p, "size")
    p.add_argument("--kind", choices=("nq", "news", "text"), default="text")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("prepare", help="raw records -> prepared examples")
    p.add_argument("--kind", choices=("nq", "news"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab", required=True)
    _add_settings(p, "max_context", "max_question")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the generator")
    p.add_argument("--data", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_settings(
        p, "lr", "batch_size", "epochs", "seed", "split_ratio", "d_model", "n_heads",
        "encoder_layers", "decoder_lm_layers", "cross_layers", "ffn_dim", "max_context",
        "max_question",
    )
    p.add_argument("--no-pointer", action="store_true")
    p.add_argument("--no-type-ids", dest="no_type_ids", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode questions from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("beam", "nucleus", "greedy"), default="beam")
    _add_settings(p, "beam", "top_p", "temperature", "seed", "max_question")
    p.add_argument(
        "--no-length-normalize", dest="no_length_normalize", action="store_true"
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score generations: gen, qa or correlate")
    esub = p.add_subparsers(dest="eval_kind", required=True)

    g = esub.add_parser("gen", help="overlap metrics against references")
    g.add_argument("--candidates", required=True)
    g.add_argument("--references", required=True)
    g.add_argument("--vocab", required=True)
    g.add_argument("--output", required=True)
    g.add_argument("--per-example", dest="per_example", default=None)
    g.set_defaults(func=_eval_gen)

    q = esub.add_parser("qa", help="answerability/granularity scoring")
    q.add_argument("--questions", required=True)
    q.add_argument("--contexts", required=True)
    q.add_argument("--vocab", required=True)
    q.add_argument("--output-prefix", dest="output_prefix", required=True)
    q.add_argument(
        "--context-source",
        dest="context_source",
        choices=("article", "highlights"),
        default="article",
    )
    q.add_argument("--model-tag", dest="model_tag", default="model")
    q.set_defaults(func=_eval_qa)

    c = esub.add_parser("correlate", help="flags vs scores correlation report")
    c.add_argument("--scores", required=True)
    c.add_argument("--annotations", required=True)
    c.add_argument("--output", required=True)
    c.add_argument("--unanimity-output", dest="unanimity_output", default=None)
    c.set_defaults(func=_eval_correlate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Check the `--config` file, run one command, and on success write its
    manifest, timed from the command's start, its own imports included, to
    its end, with the process's peak RSS at that point."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    command = f"eval {args.eval_kind}" if args.command == "eval" else args.command
    try:
        _apply_config(args)
        t0 = time.monotonic()
        done = args.func(args)
        import resource  # here, not at module level, where it raised build-vocab's peak

        write_manifest(
            done, command, argv, wall_seconds=time.monotonic() - t0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KB on Linux
        )
        return EXIT_OK
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """Exit the process with `main`'s code, skipping the exit-time collection."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
