from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from helpers import interrupt_writes, temp_files, zipf_corpus
from sqgen import files, textproc
from sqgen.textproc import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    InvalidCorpus,
    InvalidSize,
    InvalidTokenId,
    Vocab,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_vocab,
)


class TestTrainVocab:
    def test_specials_occupy_first_four_ids(self, tiny_vocab):
        assert tiny_vocab.tokens[:4] == ["[PAD]", "[UNK]", "[BOS]", "[EOS]"]
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)

    def test_ids_contiguous_and_invertible(self, tiny_vocab):
        for i, tok in enumerate(tiny_vocab.tokens):
            assert tiny_vocab.id_of[tok] == i

    def test_single_merge_is_highest_frequency_pair(self):
        # alphabet {a, b, word-initial a} + 4 specials + 1 merge slot
        vocab = train_vocab(["aaab", "aaab"], target_size=8)
        assert vocab.merges == [("a", "a")]

    def test_size_at_alphabet_floor_forces_zero_merges(self):
        vocab = train_vocab(["aa aa ab"], target_size=4 + 3)
        assert vocab.merges == []
        assert len(vocab) == 7

    def test_single_symbol_corpus(self):
        vocab = train_vocab(["z"], target_size=5)
        assert len(vocab) == 5
        assert vocab.tokens[4] == "▁z"

    def test_vocab_never_exceeds_target(self):
        vocab = train_vocab(["the cat sat on the mat"] * 3, target_size=30)
        assert len(vocab) <= 30

    def test_deterministic(self):
        corpus = ["some words repeat some words", "words repeat again"]
        a = train_vocab(corpus, target_size=40)
        b = train_vocab(corpus, target_size=40)
        assert a.tokens == b.tokens
        assert a.merges == b.merges

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidCorpus):
            train_vocab([], target_size=10)
        with pytest.raises(InvalidCorpus):
            train_vocab(["   ", ""], target_size=10)

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidCorpus, match="corpus is empty"):
            train_vocab(iter([]), target_size=10)
        with pytest.raises(InvalidCorpus, match="corpus contains no words"):
            train_vocab((line for line in ["   ", ""]), target_size=10)

    def test_undersized_target_rejected(self):
        with pytest.raises(InvalidSize):
            train_vocab(["abcdefg"], target_size=6)

    def test_lowercases_by_default(self):
        vocab = train_vocab(["The Cat"], target_size=30)
        assert all(tok == tok.lower() for tok in vocab.tokens[4:])


@st.composite
def _merge_corpus(draw):
    """Lines of a few words over 2-4 letters, the word mark among them, and
    a target size with room for merges: the lines `TestMergeOrder` trains on."""
    letters = draw(st.lists(st.sampled_from("abc" + textproc.WORD_MARK),
                            min_size=2, max_size=4, unique=True))
    word = st.text(st.sampled_from(letters), min_size=1, max_size=6)
    lines = draw(st.lists(st.lists(word, min_size=1, max_size=6).map(" ".join),
                          min_size=1, max_size=5))
    return lines, draw(st.integers(4 + len(letters) * 2, 60))


class TestStreamedCorpus:
    @settings(max_examples=200, deadline=None)
    @given(case=_merge_corpus())
    def test_one_shot_generator_trains_as_the_list(self, case):
        lines, target = case
        assume(any(line.replace(textproc.WORD_MARK, " ").split() for line in lines))
        listed = train_vocab(lines, target_size=target)
        streamed = train_vocab((line for line in lines), target_size=target)
        assert (streamed.tokens, streamed.merges) == (listed.tokens, listed.merges)


class TestMergeOrder:
    """The heap's merge choice against a full scan, and pinned vocab bytes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_merges_match_a_full_scan(self, data):
        # A word mark inside a line is a word break, so training on the line
        # is training on it with spaces in place of the marks.
        letters = data.draw(st.lists(st.sampled_from("abc" + textproc.WORD_MARK),
                                     min_size=2, max_size=4, unique=True))
        word = st.text(st.sampled_from(letters), min_size=1, max_size=6)
        lines = data.draw(st.lists(st.lists(word, min_size=1, max_size=6).map(" ".join),
                                   min_size=1, max_size=5))
        target = data.draw(st.integers(4 + len(letters) * 2, 60))
        spaced = [line.replace(textproc.WORD_MARK, " ") for line in lines]
        assume(any(line.split() for line in spaced))
        vocab = train_vocab(lines, target_size=target)
        assert (vocab.tokens, vocab.merges) == oracles.scan_train_vocab(spaced, target)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_site_rewrites_match_a_full_scan(self, data):
        # Repeated units put merge sites side by side ("abab", "aaaa"), and
        # targets up to 400 merge every word whole, so two merges that spell
        # one token ("a"+"bc", "ab"+"c") meet in one word.
        unit = st.text(st.sampled_from("abc"), min_size=1, max_size=3)
        word = st.one_of(
            st.builds(lambda u, k: u * k, unit, st.integers(1, 5)),
            st.text(st.sampled_from("abc"), min_size=1, max_size=8),
        )
        lines = data.draw(st.lists(st.lists(word, min_size=1, max_size=6).map(" ".join),
                                   min_size=1, max_size=6))
        target = data.draw(st.integers(10, 400))
        vocab = train_vocab(lines, target_size=target)
        assert (vocab.tokens, vocab.merges) == oracles.scan_train_vocab(lines, target)

    def test_word_mark_cannot_respell_a_known_token(self):
        # With the mark read as a letter, "▁a▁▁▁" would start with the symbol
        # "▁▁" that the merge ("▁", "▁") spells again mid-word. Read as a
        # word break, it is the one word "a", with nothing to merge.
        vocab = train_vocab(["▁a▁▁▁"], target_size=15)
        assert vocab.merges == []
        assert (vocab.tokens, vocab.merges) == oracles.scan_train_vocab([" a   "], 15)

    def test_vocab_bytes_are_pinned(self, tmp_path):
        # sha256 as the per-merge full scan of the parent commit wrote it
        path = tmp_path / "vocab.txt"
        save_vocab(train_vocab(zipf_corpus(), target_size=3000), str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "6f3c17d28a52efb64a720b57dc8e647b35600cd322b247feca80bb7dcaebfcbe"

    def test_whole_word_vocab_bytes_are_pinned(self, tmp_path):
        # A target past the last merge, where late merges mostly rewrite one
        # word each. sha256 as the per-word recount of the parent commit wrote it.
        path = tmp_path / "vocab.txt"
        save_vocab(train_vocab(zipf_corpus(), target_size=8000), str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "8f64036787b29da8393aa593f5eefb01f87a0c055f1ca42035a5d9ace31b1469"


class TestEncode:
    def test_empty_string(self, tiny_vocab):
        assert encode("", tiny_vocab) == []

    def test_unknown_character_maps_to_unk(self, tiny_vocab):
        assert encode("é", tiny_vocab) == [UNK_ID]

    def test_ids_in_range_and_no_specials(self, tiny_vocab):
        rng = np.random.default_rng(42)
        words = ["the", "cat", "dog", "capital", "water", "story"]
        for _ in range(20):
            text = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            ids = encode(text, tiny_vocab)
            assert all(0 <= i < len(tiny_vocab) for i in ids)
            assert not any(i in (PAD_ID, BOS_ID, EOS_ID) for i in ids)

    def test_case_insensitive(self, tiny_vocab):
        assert encode("The CAT", tiny_vocab) == encode("the cat", tiny_vocab)


class TestLazyTables:
    """`id_of` and the merge ranks are built by the first `encode`, and so is
    a loaded vocabulary's merge list."""

    def test_decode_only_vocab_builds_neither_table(self, tiny_vocab, tmp_path):
        path = str(tmp_path / "vocab.txt")
        save_vocab(tiny_vocab, path)
        vocab = load_vocab(path)
        assert decode(list(range(len(vocab))), vocab) == decode(
            list(range(len(tiny_vocab))), tiny_vocab
        )
        assert "id_of" not in vars(vocab)
        assert "_merge_rank" not in vars(vocab)

    def test_loaded_merges_are_parsed_by_the_first_encode(self, tiny_vocab, tmp_path):
        path = str(tmp_path / "vocab.txt")
        save_vocab(tiny_vocab, path)
        vocab = load_vocab(path)
        decode(list(range(len(vocab))), vocab)
        assert vocab.id_of["[EOS]"] == EOS_ID
        assert "merges" not in vars(vocab)
        assert encode("the capital of france", vocab) == encode("the capital of france",
                                                                tiny_vocab)
        assert "merges" in vars(vocab)
        lines = open(path, encoding="utf-8").read().splitlines()
        full_parse = [tuple(line.split(" ", 1)) for line in lines[len(vocab) + 1 :]]
        assert vocab.merges == full_parse == tiny_vocab.merges

    def test_encode_ids_are_pinned(self):
        # sha256 of the ids as the parent commit, which built both tables in
        # the constructor, encoded them
        corpus = zipf_corpus()
        vocab = train_vocab(corpus, target_size=3000)
        assert "id_of" not in vars(vocab)
        ids = [encode(line.upper() + " zqé", vocab) for line in corpus]
        digest = hashlib.sha256(repr(ids).encode()).hexdigest()
        assert digest == "ef8bf515ad2ab67f40056a9b7484c99e49ba41a1eadad8913f948d641c042d3c"
        assert vocab.id_of == {tok: i for i, tok in enumerate(vocab.tokens)}


class TestDecode:
    def test_empty(self, tiny_vocab):
        assert decode([], tiny_vocab) == ""

    def test_specials_render_empty(self, tiny_vocab):
        assert decode([BOS_ID, EOS_ID], tiny_vocab) == ""
        assert decode([PAD_ID], tiny_vocab) == ""

    def test_round_trip(self, tiny_vocab):
        for text in [
            "the cat sat on the mat",
            "paris is the capital of france",
            "where did the dog go",
            "a bird can fly",
        ]:
            assert decode(encode(text, tiny_vocab), tiny_vocab) == text

    def test_round_trip_normalizes_whitespace(self, tiny_vocab):
        assert decode(encode("  the   cat  ", tiny_vocab), tiny_vocab) == "the cat"

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.text(alphabet="abAB \t" + textproc.WORD_MARK, max_size=16),
                          min_size=1, max_size=4))
    def test_word_mark_reads_as_a_space(self, lines):
        # Trained on the same lines, so every character is known: the round
        # trip gives the words of the lowercased text split at the mark, and
        # no token holds the mark past its first character.
        vocab = train_vocab(["a b ab ba"] + lines, target_size=40)
        assert all(textproc.WORD_MARK not in tok[1:] for tok in vocab.tokens[4:])
        for text in lines:
            words = text.lower().replace(textproc.WORD_MARK, " ").split()
            assert encode(text, vocab) == encode(" ".join(words), vocab)
            assert decode(encode(text, vocab), vocab) == " ".join(words)

    def test_out_of_range_id_rejected(self, tiny_vocab):
        with pytest.raises(InvalidTokenId):
            decode([len(tiny_vocab)], tiny_vocab)
        with pytest.raises(InvalidTokenId):
            decode([-1], tiny_vocab)


class TestSaveLoad:
    def test_file_round_trip(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, str(path))
        loaded = load_vocab(str(path))
        assert loaded.tokens == tiny_vocab.tokens
        assert loaded.merges == tiny_vocab.merges
        text = "the capital of france"
        assert encode(text, loaded) == encode(text, tiny_vocab)

    def test_crlf_copy_loads_the_same_vocab(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, str(path))
        crlf = tmp_path / "vocab_crlf.txt"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        loaded = load_vocab(str(crlf))
        assert loaded.tokens == tiny_vocab.tokens
        assert loaded.merges == tiny_vocab.merges

    def test_token_spelled_like_the_sentinel_round_trips(self, tmp_path):
        vocab = Vocab(
            tokens=list(textproc.SPECIAL_TOKENS) + ["#", "M", "#M", "#MERGES", "ERGES"],
            merges=[("#", "M"), ("#M", "ERGES")],
        )
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, str(path))
        loaded = load_vocab(str(path))
        assert loaded.tokens == vocab.tokens
        assert loaded.merges == vocab.merges

    def test_interrupted_save_keeps_the_previous_file(self, tiny_vocab, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        save_vocab(train_vocab(["a b c"], target_size=10), str(path))
        before = path.read_bytes()
        interrupt_writes(monkeypatch, writes=20)
        with pytest.raises(KeyboardInterrupt):
            save_vocab(tiny_vocab, str(path))
        assert path.read_bytes() == before
        assert temp_files(tmp_path) == []

    # BPE tokens hold no whitespace: training splits words on it.
    _token = st.text(
        st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6
    )
    # Each token has one id, so a token table repeats no token.
    _learned = _token.filter(lambda tok: tok not in textproc.SPECIAL_TOKENS)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tokens=st.lists(_learned, max_size=12, unique=True),
           merges=st.lists(st.tuples(_token, _token), max_size=8))
    def test_round_trip_of_any_tokens_and_merges(self, tmp_path, tokens, merges):
        vocab = Vocab(tokens=list(textproc.SPECIAL_TOKENS) + tokens, merges=merges)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, str(path))
        loaded = load_vocab(str(path))
        assert loaded.tokens == vocab.tokens
        assert loaded.merges == vocab.merges

    @pytest.mark.parametrize("token_lines, line, message", [
        ([*textproc.SPECIAL_TOKENS, "▁a", "a", "▁a"], 7, "token '▁a' repeats line 5"),
        (["x", "y", "[BOS]", "[EOS]", "▁a"], 1, "expected '[PAD]', got 'x'"),
        ([*textproc.SPECIAL_TOKENS, "▁a b"], 5, "token line '▁a b' holds a space"),
    ], ids=["repeated_token", "specials_replaced", "token_with_space"])
    def test_malformed_token_line_names_file_and_line(self, tmp_path, token_lines, line,
                                                       message):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(token_lines + ["#MERGES"]) + "\n", encoding="utf-8")
        with pytest.raises(InvalidCorpus) as err:
            load_vocab(str(path))
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_vocab_without_a_merges_section_rejected_naming_the_file(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(tiny_vocab.tokens) + "\n", encoding="utf-8")
        with pytest.raises(InvalidCorpus) as err:
            load_vocab(str(path))
        assert str(err.value) == f"{path} has no #MERGES section"

    def test_non_utf8_byte_in_a_crlf_file_names_its_line(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, str(path))
        lines = path.read_bytes().split(b"\n")
        lines[6] = b"\xff" + lines[6]
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(InvalidCorpus, match=f"^{re.escape(str(path))}:7: "):
            load_vocab(str(path))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.binary(max_size=6), min_size=1, max_size=8),
           ends=st.sampled_from([b"\n", b"\r\n"]))
    def test_non_utf8_byte_is_named_as_read_lines_names_it(self, tmp_path, lines, ends):
        path = tmp_path / "vocab.txt"
        path.write_bytes(ends.join(lines) + ends)
        try:
            list(files.read_lines(str(path)))
        except ValueError as exc:
            expected = str(exc)
        else:
            return  # the file is UTF-8
        with pytest.raises(InvalidCorpus) as err:
            load_vocab(str(path))
        assert str(err.value) == expected

    def test_loaded_vocab_decodes_identically(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, str(path))
        loaded = load_vocab(str(path))
        ids = encode("the dog ran to the park", tiny_vocab)
        assert decode(ids, loaded) == decode(ids, tiny_vocab)
