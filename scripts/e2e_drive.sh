#!/bin/sh
# End-to-end smoke drive of the `sqgen` CLI (installed, or from this checkout).
#
# Runs the whole pipeline on a tiny synthetic corpus in a scratch directory:
# build-vocab -> prepare (nq + news) -> train (with a dev file, on a seeded
# split, and without the decoder LM stack) -> generate (beam, nucleus twice,
# greedy, greedy from the no-LM model, and beam again through --config; the
# beam, nucleus and greedy rows must equal an in-process `cli.main` call's) ->
# eval gen / eval qa / build-vocab from the nq and news records / eval
# correlate, asserting exit codes and artifacts. Malformed and mismatched
# inputs must exit 2 naming their file, with no traceback and nothing
# written. The vocabulary is built a second time from a CRLF copy of the
# corpus, which must give the same bytes.
# Run from a checkout, every manifest must name that checkout's version.
# Finishes in well under a minute on a laptop.
set -eu

# From a checkout without an installed `sqgen`, run the package in src/.
# Its manifests must then record the checkout's `git describe`, though every
# command runs in the scratch directory below.
EXPECT_GIT=""
if ! command -v sqgen >/dev/null 2>&1; then
    REPO="$(cd "$(dirname "$0")/.." && pwd)"
    PYTHONPATH="$REPO/src${PYTHONPATH:+:$PYTHONPATH}"
    export PYTHONPATH
    sqgen() { python3 -m sqgen.cli "$@"; }
    EXPECT_GIT="$(git -C "$REPO" describe --always --dirty 2>/dev/null || true)"
fi
export EXPECT_GIT

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

cat > corpus.txt <<'EOF'
what is the capital of france
paris is the capital of france
which river runs through cairo
the nile runs through cairo
what is the tallest mountain on earth
everest is the tallest mountain on earth
capital cities rivers mountains
the storm closed roads across the coast
EOF

cat > raw.jsonl <<'EOF'
{"id": "r1", "title": "capital cities", "question": "what is the capital of france", "context": "paris is the capital of france", "short_spans": [[0, 5]], "p_tag": true}
{"id": "r2", "title": "rivers", "question": "which river runs through cairo", "context": "the nile runs through cairo", "short_spans": [[4, 8]], "p_tag": true}
{"id": "r3", "title": "mountains", "question": "what is the tallest mountain on earth", "context": "everest is the tallest mountain on earth", "short_spans": [[0, 7]], "p_tag": true}
{"id": "r4", "title": "skipped", "question": "does not matter here at all", "context": "nothing here", "short_spans": [[0, 7]], "p_tag": false}
EOF

echo "== build-vocab"
sqgen build-vocab --input corpus.txt --output vocab.txt --size 120
test -s vocab.txt
test -s vocab.txt.manifest.json
# The same corpus with CRLF line ends learns the same vocabulary.
sed 's/$/\r/' corpus.txt > corpus_crlf.txt
sqgen build-vocab --kind text --input corpus_crlf.txt --output vocab_crlf.txt --size 120
cmp vocab.txt vocab_crlf.txt

echo "== prepare (nq)"
sqgen prepare --kind nq --input raw.jsonl --output prepared.jsonl \
    --vocab vocab.txt --max-context 64 --max-question 16
kept=$(wc -l < prepared.jsonl)
[ "$kept" -eq 3 ] || { echo "expected 3 prepared examples, got $kept"; exit 1; }

echo "== train (2 epochs, tiny model)"
sqgen train --data prepared.jsonl --dev prepared.jsonl --vocab vocab.txt \
    --out-dir run --epochs 2 --batch-size 2 --seed 0 \
    --d-model 16 --n-heads 2 --encoder-layers 1 --decoder-lm-layers 1 \
    --cross-layers 1 --ffn-dim 32 --max-context 64 --max-question 16
test -s run/best.ckpt
test -s run/epoch_001.ckpt
test -s run/epoch_002.ckpt
head -1 run/train_log.csv | grep -q '^epoch,train_loss,dev_perplexity,wall_seconds,grad_norm,tokens_per_s$'
# best.ckpt is the epoch with the lowest dev perplexity (ties: the earliest).
best_epoch=$(python3 -c '
import csv
rows = list(csv.DictReader(open("run/train_log.csv", encoding="utf-8")))
print(min(rows, key=lambda row: float(row["dev_perplexity"]))["epoch"])
')
cmp run/best.ckpt "run/epoch_$(printf %03d "$best_epoch").ckpt"
leftover=$(find run -name '.*.tmp')
[ -z "$leftover" ] || { echo "temporary files left by train: $leftover"; exit 1; }

echo "== train without --dev (a seeded 2/1 split of the 3 examples at the default ratio)"
sqgen train --data prepared.jsonl --vocab vocab.txt \
    --out-dir run_split --epochs 1 --batch-size 2 --seed 0 \
    --d-model 16 --n-heads 2 --encoder-layers 1 --decoder-lm-layers 1 \
    --cross-layers 1 --ffn-dim 32 --max-context 64 --max-question 16
for f in best.ckpt epoch_001.ckpt train_log.csv train.manifest.json; do
    test -s "run_split/$f"
done
[ "$(ls run_split | wc -l)" -eq 4 ] || { echo "unexpected files: $(ls run_split)"; exit 1; }
[ "$(wc -l < run_split/train_log.csv)" -eq 2 ]
cmp run_split/best.ckpt run_split/epoch_001.ckpt
python3 -c '
import json
settings = json.load(open("run_split/train.manifest.json", encoding="utf-8"))["settings"]
assert (settings["train_examples"], settings["dev_examples"]) == (2, 1), settings
'

echo "== generate (beam + nucleus + greedy)"
sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab.txt --output gen_beam.jsonl --max-question 8 \
    --mode beam --beam 2
sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab.txt --output gen_nucleus.jsonl --max-question 8 \
    --mode nucleus --top-p 0.9 --temperature 1.0 --seed 7
# A seeded nucleus run repeats its draws byte for byte.
sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab.txt --output gen_nucleus_again.jsonl --max-question 8 \
    --mode nucleus --top-p 0.9 --temperature 1.0 --seed 7
cmp gen_nucleus.jsonl gen_nucleus_again.jsonl
sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab.txt --output gen_greedy.jsonl --max-question 8 --mode greedy
[ "$(wc -l < gen_beam.jsonl)" -eq 3 ]
[ "$(wc -l < gen_nucleus.jsonl)" -eq 3 ]
[ "$(wc -l < gen_greedy.jsonl)" -eq 3 ]

echo "== generate through cli.main in this process writes the rows the command wrote"
mkdir in_process
python3 - <<'EOF'
from sqgen import cli

common = ["generate", "--checkpoint", "run/best.ckpt", "--data", "prepared.jsonl",
          "--vocab", "vocab.txt", "--max-question", "8"]
for mode, flags in (("beam", ["--beam", "2"]),
                    ("nucleus", ["--top-p", "0.9", "--temperature", "1.0", "--seed", "7"]),
                    ("greedy", [])):
    out = f"in_process/gen_{mode}.jsonl"
    assert cli.main(common + ["--output", out, "--mode", mode] + flags) == cli.EXIT_OK, mode
    with open(out, "rb") as a, open(f"gen_{mode}.jsonl", "rb") as b:
        assert a.read() == b.read(), mode
EOF
rm -r in_process

echo "== train and generate the no-LM ablation (--decoder-lm-layers 0)"
sqgen train --data prepared.jsonl --dev prepared.jsonl --vocab vocab.txt \
    --out-dir run_nolm --epochs 1 --batch-size 2 --seed 0 \
    --d-model 16 --n-heads 2 --encoder-layers 1 --decoder-lm-layers 0 \
    --cross-layers 1 --ffn-dim 32 --max-context 64 --max-question 16
python3 -c '
import json
manifest = json.loads(open("run_nolm/best.ckpt", "rb").readline())
assert manifest["config"]["decoder_lm_layers"] == 0, manifest["config"]
assert "use_decoder_lm" not in manifest["config"], manifest["config"]
lm = [a["name"] for a in manifest["arrays"] if a["name"].startswith("lm.")]
assert not lm, lm
'
sqgen generate --checkpoint run_nolm/best.ckpt --data prepared.jsonl \
    --vocab vocab.txt --output gen_nolm.jsonl --max-question 8 --mode greedy
[ "$(wc -l < gen_nolm.jsonl)" -eq 3 ]

echo "== generate through --config (a typed file, then a string value)"
echo '{"max_question": 8, "beam": 2, "lr": 0.5}' > settings.json
sqgen --config settings.json generate --checkpoint run/best.ckpt \
    --data prepared.jsonl --vocab vocab.txt --output gen_config.jsonl
cmp gen_config.jsonl gen_beam.jsonl
echo '{"beam": "2"}' > bad_settings.json
rc=0
sqgen --config bad_settings.json generate --checkpoint run/best.ckpt \
    --data prepared.jsonl --vocab vocab.txt --output gen_bad.jsonl 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a string beam, got $rc"; exit 1; }
grep -q '^error: bad_settings.json: beam: ' bad.err
if grep -q Traceback bad.err; then echo "traceback for a string beam"; exit 1; fi
test ! -e gen_bad.jsonl
test ! -e gen_bad.jsonl.manifest.json

echo "== eval gen (against the gold questions)"
python3 - <<'EOF'
import json
from sqgen.corpus import read_prepared
from sqgen.textproc import decode, load_vocab

vocab = load_vocab("vocab.txt")
with open("cands.jsonl", "w", encoding="utf-8") as f:
    for ex in read_prepared("prepared.jsonl"):
        row = {"id": ex.id, "question_text": decode(ex.question_ids, vocab)}
        f.write(json.dumps(row) + "\n")
EOF
sqgen eval gen --candidates cands.jsonl --references prepared.jsonl \
    --vocab vocab.txt --output gen_report.json --per-example per_example.csv
python3 - <<'EOF'
import json
report = json.load(open("gen_report.json", encoding="utf-8"))
assert report["n"] == 3, report
assert abs(report["bleu1"] - 100.0) < 1e-9, report
assert abs(report["rouge_l"] - 100.0) < 1e-9, report
EOF

echo "== prepare (news) and eval qa (lexical-overlap scorer)"
cat > news.jsonl <<'EOF'
{"id": "n1", "article": "(CNN) -- the storm closed roads across the coast", "highlights": "roads closed"}
{"id": "n2", "article": "(CNN) -- everest is the tallest mountain on earth", "highlights": "tallest mountain"}
EOF
cat > questions.jsonl <<'EOF'
{"id": "n1", "question_text": "the storm closed roads across the coast"}
{"id": "n2", "question_text": "everest is the tallest mountain on earth"}
EOF
sqgen prepare --kind news --input news.jsonl --output news_prepared.jsonl \
    --vocab vocab.txt
[ "$(wc -l < news_prepared.jsonl)" -eq 2 ]
sqgen eval qa --questions questions.jsonl --contexts news.jsonl \
    --vocab vocab.txt --output-prefix qa --context-source article --model-tag toy
# Each question repeats its article, so both read as answerable.
python3 - <<'EOF'
import csv
rows = list(csv.DictReader(open("qa_scatter.csv", encoding="utf-8", newline="")))
assert [row["id"] for row in rows] == ["n1", "n2"], rows
assert all(float(row["s_ans"]) > 0.0 for row in rows), rows
EOF
test -s qa_means.csv
test -s qa_scatter.svg

echo "== build-vocab from nq and news records (streamed), and reload each"
sqgen build-vocab --kind nq --input raw.jsonl --output vocab_nq.txt --size 120
sqgen build-vocab --kind news --input news.jsonl --output vocab_news.txt --size 120
python3 - <<'EOF'
from sqgen.textproc import SPECIAL_TOKENS, UNK_ID, encode, load_vocab
for path, text in (("vocab_nq.txt", "what is the capital of france"),
                   ("vocab_news.txt", "the storm closed roads")):
    vocab = load_vocab(path)
    assert vocab.tokens[:4] == list(SPECIAL_TOKENS), path
    assert len(set(vocab.tokens)) == len(vocab) <= 120, (path, len(vocab))
    assert vocab.merges and UNK_ID not in encode(text, vocab), path
EOF

echo "== eval correlate"
cat > scores.csv <<'EOF'
id,s_ans,s_gra,model_tag
hi,5.0,1.0,toy
lo,-5.0,-1.0,toy
EOF
python3 - <<'EOF'
import json
FLAGS = ("context", "irrelevant", "contradiction", "peripheral",
         "span", "entire", "none")
rows = []
for article, vote in (("hi", True), ("lo", False)):
    for k in range(3):
        flags = dict.fromkeys(FLAGS, False)
        flags["span"] = vote
        rows.append({"article_id": article, "annotator_id": f"ann{k}",
                     "flags": flags})
with open("annotations.jsonl", "w", encoding="utf-8") as f:
    for row in rows:
        f.write(json.dumps(row) + "\n")
EOF
sqgen eval correlate --scores scores.csv --annotations annotations.jsonl \
    --output corr.json --unanimity-output unanimity.json
python3 - <<'EOF'
import json
corr = json.load(open("corr.json", encoding="utf-8"))
assert abs(corr["span"]["answerability"] - 1.0) < 1e-9, corr
ratios = json.load(open("unanimity.json", encoding="utf-8"))
assert ratios["span"]["n_unanimous"] == 2, ratios
EOF

echo "== every manifest records a numeric wall time, peak RSS and the code version"
python3 -c '
import glob, json, os
paths = sorted(glob.glob("**/*.manifest.json", recursive=True))
assert len(paths) == 18, paths
for added in ("vocab_crlf.txt.manifest.json", "run_split/train.manifest.json",
              "gen_greedy.jsonl.manifest.json",
              "news_prepared.jsonl.manifest.json", "vocab_nq.txt.manifest.json",
              "vocab_news.txt.manifest.json"):
    assert added in paths, (added, paths)
for path in paths:
    manifest = json.load(open(path, encoding="utf-8"))
    for key in ("wall_seconds", "peak_rss_mb"):
        value = manifest[key]
        assert isinstance(value, (int, float)) and value > 0, (path, key, value)
    if os.environ["EXPECT_GIT"]:
        assert manifest["git"] == os.environ["EXPECT_GIT"], (path, manifest["git"])
'

echo "== no write left a temporary file behind"
leftover=$(find . -name '.*.tmp')
[ -z "$leftover" ] || { echo "temporary files left: $leftover"; exit 1; }

echo "== exit codes"
rc=0; sqgen build-vocab --input missing.txt --output v.txt || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for missing input, got $rc"; exit 1; }

printf 'what is the capital\nparis is \377\n' > bad_corpus.txt
rc=0; sqgen build-vocab --kind text --input bad_corpus.txt --output bad_vocab.txt \
    2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a non-UTF-8 corpus, got $rc"; exit 1; }
grep -q '^error: bad_corpus.txt:2: ' bad.err
if grep -q Traceback bad.err; then echo "traceback for a non-UTF-8 corpus"; exit 1; fi
test ! -e bad_vocab.txt

# A corpus with no words fails naming the file, before anything is written.
printf '\n  \n\t\n' > blank_corpus.txt
rc=0; sqgen build-vocab --kind text --input blank_corpus.txt --output blank_vocab.txt \
    > blank.out 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a blank corpus, got $rc"; exit 1; }
grep -q '^error: blank_corpus.txt: corpus contains no words$' bad.err
if grep -q Traceback bad.err; then echo "traceback for a blank corpus"; exit 1; fi
test ! -s blank.out
test ! -e blank_vocab.txt
test ! -e blank_vocab.txt.manifest.json

# An id past the csv module's field limit is an input error, not a crash.
python3 -c '
print("id,s_ans,s_gra,model_tag")
print("\"" + "x" * 200000 + "\",5.0,1.0,toy")
' > scores_long.csv
rc=0; sqgen eval correlate --scores scores_long.csv --annotations annotations.jsonl \
    --output corr_long.json > long.out 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for an over-long csv field, got $rc"; exit 1; }
grep -q '^error: scores_long.csv:2: field larger than field limit' bad.err
if grep -q Traceback bad.err; then echo "traceback for an over-long csv field"; exit 1; fi
test ! -s long.out
test ! -e corr_long.json
test ! -e corr_long.json.manifest.json

# p_tag is a JSON boolean; the string "false" is not one.
sed 's/"p_tag": false/"p_tag": "false"/' raw.jsonl > raw_ptag.jsonl
rc=0; sqgen prepare --kind nq --input raw_ptag.jsonl --output ptag_prepared.jsonl \
    --vocab vocab.txt 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a string p_tag, got $rc"; exit 1; }
grep -q "^error: raw_ptag.jsonl:4: record r4: field 'p_tag' must be true or false$" bad.err
if grep -q Traceback bad.err; then echo "traceback for a string p_tag"; exit 1; fi
test ! -e ptag_prepared.jsonl
test ! -e ptag_prepared.jsonl.manifest.json

rc=0; sqgen prepare --kind nq --input raw.jsonl --output bad_prepared.jsonl \
    --vocab vocab.txt --max-context -1 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for --max-context -1, got $rc"; exit 1; }
grep -q '^error: max_context must be >= 1' bad.err
if grep -q Traceback bad.err; then echo "traceback for --max-context -1"; exit 1; fi
test ! -e bad_prepared.jsonl
leftover=$(find . -name '.*.tmp')
[ -z "$leftover" ] || { echo "temporary files left: $leftover"; exit 1; }

rc=0; sqgen train --data prepared.jsonl --dev prepared.jsonl --vocab vocab.txt \
    --out-dir run_neg --epochs 1 --seed -1 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for --seed -1, got $rc"; exit 1; }
grep -q '^error: --seed must be >= 0' bad.err
if grep -q Traceback bad.err; then echo "traceback for --seed -1"; exit 1; fi
test ! -e run_neg

rc=0; sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab.txt --output gen_nan.jsonl --mode nucleus --temperature nan \
    2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for --temperature nan, got $rc"; exit 1; }
grep -q '^error: temperature must be >= 0' bad.err
if grep -q Traceback bad.err; then echo "traceback for --temperature nan"; exit 1; fi
test ! -e gen_nan.jsonl
test ! -e gen_nan.jsonl.manifest.json

# A merge line without a space fails when the vocabulary loads, though
# generate itself never parses the merges.
cp vocab.txt vocab_badmerge.txt
echo 'abc' >> vocab_badmerge.txt
bad_line=$(grep -c '' vocab_badmerge.txt)
rc=0; sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab_badmerge.txt --output gen_badvocab.jsonl 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a merge line without a space, got $rc"; exit 1; }
grep -q "^error: vocab_badmerge.txt:$bad_line: merge line 'abc' holds no space" bad.err
if grep -q Traceback bad.err; then echo "traceback for a merge line without a space"; exit 1; fi
test ! -e gen_badvocab.jsonl
test ! -e gen_badvocab.jsonl.manifest.json

# A token line that repeats an earlier one would give its token two ids.
{ head -n 6 vocab.txt; sed -n 5p vocab.txt; tail -n +7 vocab.txt; } > vocab_dup.txt
rc=0; sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab_dup.txt --output gen_dupvocab.jsonl 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a repeated token line, got $rc"; exit 1; }
grep -q "^error: vocab_dup.txt:7: token .* repeats line 5$" bad.err
if grep -q Traceback bad.err; then echo "traceback for a repeated token line"; exit 1; fi
test ! -e gen_dupvocab.jsonl
test ! -e gen_dupvocab.jsonl.manifest.json

# The vocabulary is decoded whole, yet a token line that is not UTF-8 is
# named by its line.
{ head -n 4 vocab.txt; printf '\342\226a\n'; tail -n +6 vocab.txt; } > vocab_bytes.txt
rc=0; sqgen prepare --kind nq --input raw.jsonl --output bytes_prepared.jsonl \
    --vocab vocab_bytes.txt > bytes.out 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a non-UTF-8 token line, got $rc"; exit 1; }
grep -q '^error: vocab_bytes.txt:5: ' bad.err
if grep -q Traceback bad.err; then echo "traceback for a non-UTF-8 token line"; exit 1; fi
test ! -s bytes.out
test ! -e bytes_prepared.jsonl
test ! -e bytes_prepared.jsonl.manifest.json

# run/best.ckpt has max_question 16, so a decode of up to 17 tokens fits.
rc=0; sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab.txt --output gen_long.jsonl --max-question 18 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for --max-question 18, got $rc"; exit 1; }
grep -q '^error: --max-question 18 exceeds max_question+1=17 of checkpoint run/best.ckpt$' bad.err
if grep -q Traceback bad.err; then echo "traceback for --max-question 18"; exit 1; fi
test ! -e gen_long.jsonl
test ! -e gen_long.jsonl.manifest.json

python3 - <<'EOF'
import json
rows = [json.loads(line) for line in open("prepared.jsonl", encoding="utf-8")]
rows[1]["id"] = "neg"
rows[1]["context_ids"][0] = -3
with open("bad_prepared.jsonl", "w", encoding="utf-8") as f:
    for row in rows:
        f.write(json.dumps(row) + "\n")
EOF
rc=0; sqgen generate --checkpoint run/best.ckpt --data bad_prepared.jsonl \
    --vocab vocab.txt --output gen_neg.jsonl 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a negative context id, got $rc"; exit 1; }
grep -q '^error: bad_prepared.jsonl:2: example neg: ' bad.err
if grep -q Traceback bad.err; then echo "traceback for a negative context id"; exit 1; fi
test ! -e gen_neg.jsonl
test ! -e gen_neg.jsonl.manifest.json

# Inputs that do not fit their partner fail naming the file, before any
# output, manifest or run directory is made.
{ head -n 10 vocab.txt; echo '#MERGES'; } > vocab_small.txt
rc=0; sqgen generate --checkpoint run/best.ckpt --data prepared.jsonl \
    --vocab vocab_small.txt --output gen_small.jsonl 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a vocab of the wrong size, got $rc"; exit 1; }
head -n 1 bad.err | grep -q \
    '^error: vocab_small.txt: vocab of 10 does not match vocab_size=[0-9]* of checkpoint run/best.ckpt$'
if grep -q Traceback bad.err; then echo "traceback for a vocab of the wrong size"; exit 1; fi
test ! -e gen_small.jsonl
test ! -e gen_small.jsonl.manifest.json

python3 - <<'PY'
import json
rows = [json.loads(line) for line in open("prepared.jsonl", encoding="utf-8")]
for path, rid, question in (("refs_big.jsonl", "big", [100000]),
                            ("pad_prepared.jsonl", "pad", [5, 0, 6])):
    bad = [dict(row) for row in rows]
    bad[1].update(id=rid, question_ids=question)
    with open(path, "w", encoding="utf-8") as f:
        for row in bad:
            f.write(json.dumps(row) + "\n")
PY
rc=0; sqgen eval gen --candidates cands.jsonl --references refs_big.jsonl \
    --vocab vocab.txt --output big_report.json 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for a reference id beyond the vocab, got $rc"; exit 1; }
head -n 1 bad.err | grep -q '^error: refs_big.jsonl: example big: question id 100000 outside '
if grep -q Traceback bad.err; then echo "traceback for a reference id beyond the vocab"; exit 1; fi
test ! -e big_report.json
test ! -e big_report.json.manifest.json

rc=0; sqgen train --data pad_prepared.jsonl --dev prepared.jsonl --vocab vocab.txt \
    --out-dir run_pad --epochs 1 --d-model 16 --n-heads 2 --encoder-layers 1 \
    --decoder-lm-layers 1 --cross-layers 1 --ffn-dim 32 --max-context 64 \
    --max-question 16 2> bad.err || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for PAD in a question, got $rc"; exit 1; }
head -n 1 bad.err | grep -q '^error: pad_prepared.jsonl: example pad: PAD (id 0) in question$'
if grep -q Traceback bad.err; then echo "traceback for PAD in a question"; exit 1; fi
test ! -e run_pad

# An article too short to hold a span fails naming the contexts file and the
# article: one that cleans to nothing, and one that encodes to one token.
printf '%s\n' '{"id": "n1", "question_text": "the storm"}' > short_questions.jsonl
for case in \
    'empty context|{"id": "n1", "article": "@highlight the storm", "highlights": "x"}' \
    'need >= 2 context positions, got 1|{"id": "n1", "article": "(CNN) -- the", "highlights": "x"}'
do
    message="${case%%|*}"
    printf '%s\n' "${case#*|}" > short_news.jsonl
    rc=0; sqgen eval qa --questions short_questions.jsonl --contexts short_news.jsonl \
        --vocab vocab.txt --output-prefix qa_short > short.out 2> bad.err || rc=$?
    [ "$rc" -eq 2 ] || { echo "expected exit 2 for a short context ($message), got $rc"; exit 1; }
    head -n 1 bad.err | grep -qF "error: short_news.jsonl: article n1: $message" \
        || { echo "wrong message for a short context: $(head -n 1 bad.err)"; exit 1; }
    if grep -q Traceback bad.err; then echo "traceback for a short context ($message)"; exit 1; fi
    test ! -s short.out
    if ls qa_short* >/dev/null 2>&1; then echo "output written for a short context"; exit 1; fi
done

leftover=$(find . -name '.*.tmp')
[ -z "$leftover" ] || { echo "temporary files left: $leftover"; exit 1; }

echo "e2e drive OK"
