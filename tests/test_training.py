from __future__ import annotations

import hashlib
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import TOY, copy_task, params_digest, toy_model
from oracles import per_parameter_adam_step, summed_graph_step
from sqgen import numerics as nm
from sqgen import training
from sqgen.corpus import DatasetSplit, PreparedExample
from sqgen.model import save_checkpoint
from sqgen.training import (
    AdamState,
    InvalidDataset,
    InvalidTarget,
    InvalidTrainConfig,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    nll_loss,
    perplexity,
    select_best,
    train,
    write_log_csv,
)


def example(question=(5, 6)):
    return PreparedExample(
        id="e", context_ids=[5, 6, 7], type_ids=[0, 1, 0],
        question_ids=list(question), answer_kind="short",
    )


def uniform_model():
    """Zeroed output head and no pointer: every step is exactly uniform."""
    m = toy_model(use_pointer=False)
    m.params["out.w"].data[:] = 0.0
    m.params["out.b"].data[:] = 0.0
    return m


class TestNllLoss:
    def test_uniform_model_loss_is_log_vocab(self):
        m = uniform_model()
        loss = nll_loss(m, example())
        assert loss.item() == pytest.approx(math.log(TOY["vocab_size"]), rel=1e-12)

    def test_loss_nonnegative(self):
        for seed in range(3):
            m = toy_model(seed=seed)
            assert nll_loss(m, example()).item() >= 0.0

    def test_empty_question_rejected(self):
        with pytest.raises(InvalidTarget):
            nll_loss(toy_model(), example(question=()))

    def test_pad_in_target_rejected(self):
        with pytest.raises(InvalidTarget):
            nll_loss(toy_model(), example(question=(5, 0)))


class TestPinnedGradients:
    """sha256 of grad_map over the summed loss of four copy-task examples,
    as the commit before the one-gather-op autodiff computed it."""

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({}, "8ebfdc0bd69e9b71237144d849263d5870ad072c409e1408825f4c081b0e2e09"),
            ({"use_pointer": False},
             "feaaaa98061901f21f79d29866a7f2d96edf5172ff94ca0bab3d6ab95d71d4be"),
        ],
        ids=["pointer", "no_pointer"],
    )
    def test_grad_map_bytes_are_pinned(self, overrides, digest):
        m = toy_model(seed=9, **overrides)
        losses = [nll_loss(m, ex) for ex in copy_task(4, vocab_size=20)]
        total = losses[0]
        for extra in losses[1:]:
            total = total + extra
        grads = nm.grad_map(total, m.params)
        assert params_digest({k: nm.Tensor(g) for k, g in grads.items()}) == digest


class TestPinnedCheckpoint:
    """sha256 of the checkpoint a tiny model writes after two epochs of
    Adam steps. Its arrays are the bytes the commit before the in-place Adam
    step wrote; its manifest line carries no `use_decoder_lm` key."""

    def test_trained_checkpoint_bytes_are_pinned(self, tmp_path):
        examples = copy_task(6, vocab_size=TOY["vocab_size"], seed=3)
        split = DatasetSplit(train=examples, dev=examples)
        cfg = TrainConfig(lr=1e-3, batch_size=2, epochs=2, seed=1)
        train(toy_model(seed=4), split, cfg, out_dir=str(tmp_path))
        digest = hashlib.sha256((tmp_path / "epoch_002.ckpt").read_bytes()).hexdigest()
        assert digest == "776a63d69359728a63a066c345b7c4efdceaed6ca14553e484e3c17cbfcc7031"


class TestTrainConfig:
    @pytest.mark.parametrize("overrides", [
        {"batch_size": 0}, {"epochs": -1}, {"lr": 0.0}, {"lr": -1e-3},
        {"lr": math.inf}, {"lr": math.nan},
    ])
    def test_out_of_range_setting_rejected(self, overrides):
        with pytest.raises(InvalidTrainConfig):
            TrainConfig(**overrides)

    def test_zero_epochs_is_valid(self):
        assert TrainConfig(epochs=0).epochs == 0


class TestAdamStep:
    def test_first_step_is_signed_lr(self):
        cfg = TrainConfig(lr=1e-3)
        params = {"p": nm.Tensor(np.zeros(4), requires_grad=True)}
        grads = {"p": np.array([0.5, -0.5, 2.0, -2.0])}
        adam_step(params, grads, AdamState(), cfg)
        assert_allclose(params["p"].data, -cfg.lr * np.sign(grads["p"]), rtol=1e-6)

    def test_zero_gradient_keeps_parameters(self):
        cfg = TrainConfig(lr=1e-3)
        params = {"p": nm.Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        state = AdamState()
        for _ in range(5):
            adam_step(params, {"p": np.zeros(2)}, state, cfg)
        assert_allclose(params["p"].data, [1.0, 2.0], atol=0.0)

    def test_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(42)
            params = {"a": nm.Tensor(rng.normal(size=3), requires_grad=True),
                      "b": nm.Tensor(rng.normal(size=3), requires_grad=True)}
            state = AdamState()
            for step in range(10):
                grads = {k: np.sin(p.data + step) for k, p in params.items()}
                adam_step(params, grads, state, TrainConfig(lr=1e-2))
            return {k: p.data.copy() for k, p in params.items()}

        a, b = run(), run()
        assert all(np.array_equal(a[k], b[k]) for k in a)


    def test_bytes_equal_a_fresh_scratch_pair_per_parameter(self):
        # the largest parameter sorts neither first nor last, so the shared
        # scratch is both wider and narrower than the parameters around it
        shapes = {"a": (3,), "b": (2, 3, 4), "c": (40, 30), "d": (), "e": (5, 1)}
        rng = np.random.default_rng(11)
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        cfg = TrainConfig(lr=1e-2)

        def run(step):
            params = {k: nm.Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
            state = AdamState()
            for i in range(3):
                step(params, {k: np.cos(p.data * (i + 2)) for k, p in params.items()}, state, cfg)
            return params, state

        params, state = run(adam_step)
        want_params, want_state = run(per_parameter_adam_step)
        for name in shapes:
            assert params[name].data.tobytes() == want_params[name].data.tobytes(), name
            assert state.m[name].tobytes() == want_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == want_state.v[name].tobytes(), name
        assert state.step == want_state.step == 3


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        m = uniform_model()
        ppl = perplexity(m, [example()])
        assert ppl == pytest.approx(TOY["vocab_size"], rel=1e-9)

    def test_matches_exp_of_token_weighted_mean(self):
        m = toy_model(seed=2)
        examples = [example((5, 6)), example((7,))]
        with nm.no_grad():
            weighted = sum(
                nll_loss(m, ex).item() * (len(ex.question_ids) + 1) for ex in examples
            )
        tokens = sum(len(ex.question_ids) + 1 for ex in examples)
        assert perplexity(m, examples) == pytest.approx(math.exp(weighted / tokens))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidDataset):
            perplexity(toy_model(), [])


class TestSelectBest:
    def test_argmin(self):
        assert select_best([3.1, 2.5, 2.9]) == 1

    def test_tie_goes_to_earliest(self):
        assert select_best([2.5, 2.5, 3.0]) == 0


class TestTrain:
    def _tiny_split(self):
        examples = copy_task(4, vocab_size=TOY["vocab_size"], min_len=5, max_len=6, seed=0)
        return DatasetSplit(train=examples, dev=examples)

    def test_epochs_zero_returns_initial_model(self, tmp_path):
        m = toy_model(seed=1)
        result = train(m, self._tiny_split(), TrainConfig(epochs=0), out_dir=str(tmp_path))
        assert result.log == []
        assert result.best_epoch == 0
        assert os.path.exists(tmp_path / "best.ckpt")
        assert not os.path.exists(tmp_path / "epoch_001.ckpt")

    def test_loss_strictly_decreases_over_first_five_steps(self):
        # one batch per epoch on a fixed batch: epoch losses = per-step losses
        split = self._tiny_split()
        for seed in range(5):
            m = toy_model(seed=seed)
            cfg = TrainConfig(lr=1e-3, batch_size=len(split.train), epochs=5, seed=seed)
            losses = [row.train_loss for row in train(m, split, cfg).log]
            assert all(b < a for a, b in zip(losses, losses[1:])), (seed, losses)

    def test_every_parameter_receives_gradient(self):
        m = toy_model(seed=3)
        examples = copy_task(6, vocab_size=TOY["vocab_size"], min_len=5, max_len=6, seed=1)
        reached = {name: False for name in m.params}
        for ex in examples:
            grads = nm.grad_map(nll_loss(m, ex), m.params)
            for name, g in grads.items():
                if np.abs(g).max() > 0.0:
                    reached[name] = True
        missing = [name for name, ok in reached.items() if not ok]
        assert not missing, missing

    def test_checkpoints_and_log_written(self, tmp_path):
        m = toy_model(seed=1)
        result = train(
            m, self._tiny_split(), TrainConfig(epochs=2, batch_size=2, lr=1e-3),
            out_dir=str(tmp_path),
        )
        assert os.path.exists(tmp_path / "epoch_001.ckpt")
        assert os.path.exists(tmp_path / "epoch_002.ckpt")
        assert os.path.exists(tmp_path / "best.ckpt")
        lines = open(tmp_path / "train_log.csv").read().splitlines()
        assert lines[0] == "epoch,train_loss,dev_perplexity,wall_seconds,grad_norm,tokens_per_s"
        assert len(lines) == 3
        assert len(result.log) == 2

    def test_best_selection_prefers_lowest_dev_perplexity(self):
        split = self._tiny_split()
        m = toy_model(seed=1)
        result = train(m, split, TrainConfig(epochs=4, batch_size=2, lr=1e-3))
        ppls = [row.dev_perplexity for row in result.log]
        assert result.best_epoch == ppls.index(min(ppls)) + 1
        assert result.best_dev_perplexity == min(ppls)

    def test_identical_seeds_identical_runs(self):
        split = self._tiny_split()

        def run():
            m = toy_model(seed=7)
            log = train(m, split, TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=11)).log
            return log, {k: p.data.tobytes() for k, p in m.params.items()}

        (log_a, params_a), (log_b, params_b) = run(), run()
        assert [r.train_loss for r in log_a] == [r.train_loss for r in log_b]
        assert params_a == params_b

    def test_tied_dev_perplexity_keeps_the_earliest_epoch(self, monkeypatch):
        monkeypatch.setattr(training, "perplexity", lambda model, examples: 7.0)
        result = train(toy_model(seed=1), self._tiny_split(), TrainConfig(epochs=3, lr=1e-3))
        assert result.best_epoch == 1
        assert result.best_dev_perplexity == 7.0

    def test_no_gradient_is_left_behind(self):
        m = toy_model(seed=1)
        train(m, self._tiny_split(), TrainConfig(epochs=2, batch_size=3, lr=1e-3))
        assert [name for name, p in m.params.items() if p.grad is not None] == []

    def test_empty_train_split_rejected(self):
        with pytest.raises(InvalidDataset):
            train(toy_model(), DatasetSplit([], []), TrainConfig(epochs=1))

    def test_empty_dev_split_rejected(self, tmp_path):
        # the training examples are never scored in place of a dev set
        split = DatasetSplit(train=self._tiny_split().train, dev=[])
        with pytest.raises(InvalidDataset):
            train(toy_model(), split, TrainConfig(epochs=0), out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_divergence_detected(self):
        m = toy_model(seed=1)
        m.params["enc.word_emb"].data[:] = np.nan
        with pytest.raises(TrainingDiverged):
            train(m, self._tiny_split(), TrainConfig(epochs=1, batch_size=2))

    def test_non_finite_loss_detected(self):
        # sigmoid and log pass a NaN gate through to the loss without raising
        m = toy_model(seed=1)
        m.params["gate.w"].data[:] = np.nan
        with pytest.raises(TrainingDiverged, match="^non-finite loss at epoch 1$"):
            train(m, self._tiny_split(), TrainConfig(epochs=1, batch_size=2))

    def test_non_finite_dev_perplexity_detected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "perplexity", lambda model, examples: math.inf)
        with pytest.raises(TrainingDiverged, match="^non-finite dev perplexity at epoch 1$"):
            train(toy_model(seed=1), self._tiny_split(), TrainConfig(epochs=2),
                  out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    # With an output directory, best.ckpt is a byte copy of the best
    # epoch's file; no copy of the parameters is held while training.

    def test_best_epoch_before_the_last_is_copied(self, tmp_path, monkeypatch):
        def dev_perplexities(*values):
            it = iter(values)
            monkeypatch.setattr(training, "perplexity", lambda model, examples: next(it))

        cfg = TrainConfig(epochs=3, batch_size=2, lr=1e-3)
        dev_perplexities(5.0, 3.0, 4.0)
        result = train(toy_model(seed=1), self._tiny_split(), cfg, out_dir=str(tmp_path))
        assert result.best_epoch == 2
        best = (tmp_path / "best.ckpt").read_bytes()
        assert best == (tmp_path / "epoch_002.ckpt").read_bytes()
        assert best != (tmp_path / "epoch_003.ckpt").read_bytes()

    def test_epochs_zero_saves_the_initial_params(self, tmp_path):
        m = toy_model(seed=1)
        save_checkpoint(str(tmp_path / "initial.ckpt"), m.config, m.params)
        train(m, self._tiny_split(), TrainConfig(epochs=0), out_dir=str(tmp_path))
        assert (tmp_path / "best.ckpt").read_bytes() == (tmp_path / "initial.ckpt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["best.ckpt", "initial.ckpt", "train_log.csv"]

    def test_peak_memory_holds_no_copy_of_the_params(self, tmp_path):
        examples = copy_task(8, vocab_size=400)

        def peak(out_dir):
            m = toy_model(seed=1, vocab_size=400)
            cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=2)
            tracemalloc.start()
            try:
                train(m, DatasetSplit(train=examples, dev=examples), cfg, out_dir=out_dir)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        param_bytes = sum(p.data.nbytes for p in toy_model(vocab_size=400).params.values())
        in_memory, on_disk = peak(None), peak(str(tmp_path))
        assert abs(in_memory - on_disk) <= 0.1 * param_bytes, (in_memory, on_disk, param_bytes)


class TestPerExampleBackward:
    """train runs one example's graph at a time; its step must be the one a
    single graph over the whole batch gives, to the bit."""

    def test_epoch_matches_the_summed_graph_step(self):
        examples = copy_task(4, vocab_size=TOY["vocab_size"], seed=3)
        assert any(len(set(ex.context_ids)) < len(ex.context_ids) for ex in examples)
        cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=1, seed=5)
        order = list(range(len(examples)))
        random.Random(training._epoch_seed(cfg.seed, 1)).shuffle(order)

        oracle = toy_model(seed=2)
        grads, batch_loss = summed_graph_step(oracle, [examples[i] for i in order])
        adam_step(oracle.params, grads, AdamState(), cfg)
        norm = math.sqrt(sum(float((grads[k] ** 2).sum()) for k in sorted(grads)))

        m = toy_model(seed=2)
        row = train(m, DatasetSplit(train=examples, dev=examples), cfg).log[0]
        for name, p in m.params.items():
            assert p.data.tobytes() == oracle.params[name].data.tobytes(), name
        assert row.train_loss == batch_loss * len(examples) / len(examples)
        assert row.grad_norm == pytest.approx(norm, rel=1e-12)
        assert row.tokens_per_s > 0.0

    def test_peak_memory_does_not_grow_with_the_batch(self):
        examples = copy_task(8, vocab_size=400)

        def peak(batch_size):
            m = toy_model(seed=1, vocab_size=400)
            cfg = TrainConfig(lr=1e-3, batch_size=batch_size, epochs=1)
            tracemalloc.start()
            try:
                train(m, DatasetSplit(train=examples, dev=examples), cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = peak(1), peak(8)
        assert eight <= 1.25 * one, (one, eight)


class TestLogCsv:
    def test_round_trippable_floats(self, tmp_path):
        path = str(tmp_path / "log.csv")
        rows = [training.EpochLog(1, 1.2345678901234567, 3.4, 0.01, 0.5, 1000.0)]
        write_log_csv(rows, path)
        line = open(path).read().splitlines()[1].split(",")
        assert int(line[0]) == 1
        assert float(line[1]) == 1.2345678901234567  # repr round-trips exactly
