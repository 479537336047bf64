"""Teacher-forced NLL training with Adam and perplexity-based selection.

The decoder input is BOS followed by the gold question; the targets are the
gold question followed by EOS, so the model must learn to terminate. Batches
are gradient-accumulated per example (equal example weight), which gives the
same averaged step as padded batching without any mask bookkeeping. Each
example's loss is scaled by 1/batch and run backward before the next example
is built, so only one example's graph is alive at a time; the parameter
gradients sum in example order, the order one summed-batch graph would use,
and are released as soon as the Adam step has used them.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import files
from . import numerics as nm
from .corpus import DatasetSplit, PreparedExample
from .model import BertPgn, save_checkpoint
from .numerics import Tensor
from .textproc import BOS_ID, EOS_ID, PAD_ID


class InvalidTarget(ValueError):
    """Question is empty or contains PAD; nothing valid to teacher-force."""


class InvalidDataset(ValueError):
    """Perplexity over an empty dataset is undefined."""


class InvalidTrainConfig(ValueError):
    """A training setting is out of range."""


class TrainingDiverged(ArithmeticError):
    """Loss became non-finite."""


# Adam's moment decay rates and the guard added to the denominator.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 10
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise InvalidTrainConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise InvalidTrainConfig(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise InvalidTrainConfig(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class EpochLog:
    """One row of train_log.csv. grad_norm is the mean over the epoch's steps
    of the global L2 norm of the batch gradient; tokens_per_s counts target
    tokens (question + EOS) over the time spent in those steps, without the
    dev perplexity and checkpoints that wall_seconds also covers."""

    epoch: int
    train_loss: float
    dev_perplexity: float
    wall_seconds: float
    grad_norm: float
    tokens_per_s: float


@dataclass
class TrainResult:
    """What `train` returns; the best parameters are in `best.ckpt` when an
    output directory was given."""

    best_epoch: int
    best_dev_perplexity: float
    log: list[EpochLog]


def _teacher_forced(example: PreparedExample) -> tuple[list[int], list[int]]:
    q = example.question_ids
    if not q:
        raise InvalidTarget(f"example {example.id}: empty question")
    targets = list(q) + [EOS_ID]
    if PAD_ID in targets:
        raise InvalidTarget(f"example {example.id}: PAD in target")
    return [BOS_ID] + list(q), targets


def nll_loss(model: BertPgn, example: PreparedExample) -> Tensor:
    """Mean negative log likelihood of the gold question under the mixture."""
    prefix, targets = _teacher_forced(example)
    enc = model.encode_context(example.context_ids, example.type_ids)
    dist = model.sequence_distributions(prefix, enc)
    gold = nm.take_per_row(dist, np.asarray(targets, dtype=np.intp))
    return nm.mul(nm.mean(nm.log(gold)), -1.0)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place. Each parameter's update is
    lr * m_hat / (sqrt(v_hat) + eps), worked out in two scratch arrays with
    the operations and operand order of that expression, so the bytes are
    those of the plain NumPy arithmetic. The step allocates the scratch pair
    once, at the largest gradient's size, and views it per parameter."""
    state.step += 1
    t = state.step
    size = max((grads[name].size for name in params), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name in sorted(params):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        a = scratch_a[: g.size].reshape(g.shape)
        b = scratch_b[: g.size].reshape(g.shape)
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


def grad_norm(grads: dict[str, np.ndarray]) -> float:
    """Global L2 norm, squares summed in sorted parameter-name order."""
    return math.sqrt(sum(float((grads[name] * grads[name]).sum()) for name in sorted(grads)))


def _apply_gradients(model: BertPgn, state: AdamState, cfg: TrainConfig) -> float:
    """Adam step on the batch gradient the backward calls left in the
    parameters' .grad, which it releases; returns the gradient's global norm."""
    grads = {}
    for name, p in model.params.items():
        grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
    norm = grad_norm(grads)
    adam_step(model.params, grads, state, cfg)
    return norm


def perplexity(model: BertPgn, examples: list[PreparedExample]) -> float:
    """exp of the token-weighted mean NLL over the dataset."""
    if not examples:
        raise InvalidDataset("perplexity over an empty dataset")
    total_nll = 0.0
    total_tokens = 0
    with nm.no_grad():
        for ex in examples:
            n = len(ex.question_ids) + 1  # + EOS
            total_nll += float(nll_loss(model, ex).item()) * n
            total_tokens += n
    return math.exp(total_nll / total_tokens)


def select_best(dev_perplexities: list[float]) -> int:
    """Index of the lowest dev perplexity; ties go to the earliest epoch."""
    return min(range(len(dev_perplexities)), key=lambda i: dev_perplexities[i])


def _epoch_seed(seed: int, epoch: int) -> int:
    return seed * 1_000_003 + epoch


def train(
    model: BertPgn,
    split: DatasetSplit,
    cfg: TrainConfig,
    out_dir: str | None = None,
) -> TrainResult:
    """Run the full loop; the model ends at the last epoch's parameters, and
    the best (dev-perplexity) epoch is picked once the loop is done.

    With out_dir (an existing directory), every epoch is saved there as
    epoch_NNN.ckpt, best.ckpt is a byte copy of the winner's file (a save of
    the initial parameters when no epoch ran) and the log is train_log.csv;
    no copy of the parameters is held. Without it, nothing is written.
    """
    if not split.train or not split.dev:
        raise InvalidDataset("empty training or dev split")

    state = AdamState()
    log: list[EpochLog] = []
    tokens = sum(len(ex.question_ids) + 1 for ex in split.train)  # + EOS
    for p in model.params.values():
        p.grad = None  # the first batch must not add to gradients left by a caller

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.monotonic()
        order = list(range(len(split.train)))
        random.Random(_epoch_seed(cfg.seed, epoch)).shuffle(order)

        epoch_loss = 0.0
        norms = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [split.train[i] for i in order[start : start + cfg.batch_size]]
            total = 0.0
            for ex in batch:
                try:
                    loss = nll_loss(model, ex)
                except nm.NumericalError as exc:
                    raise TrainingDiverged(f"epoch {epoch}: {exc}") from exc
                if not np.isfinite(loss.data).all():
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                total += loss.item()
                nm.mul(loss, 1.0 / len(batch)).backward()
            norms.append(_apply_gradients(model, state, cfg))
            batch_loss = total * (1.0 / len(batch))
            epoch_loss += batch_loss * len(batch)
        train_loss = epoch_loss / len(order)
        step_seconds = time.monotonic() - t0

        dev_ppl = perplexity(model, split.dev)
        if not math.isfinite(dev_ppl):
            raise TrainingDiverged(f"non-finite dev perplexity at epoch {epoch}")
        wall = time.monotonic() - t0
        log.append(EpochLog(
            epoch, train_loss, dev_ppl, wall, sum(norms) / len(norms), tokens / step_seconds
        ))

        if out_dir is not None:
            save_checkpoint(f"{out_dir}/epoch_{epoch:03d}.ckpt", model.config, model.params)

    best_epoch = select_best([row.dev_perplexity for row in log]) + 1 if log else 0
    best_ppl = log[best_epoch - 1].dev_perplexity if log else math.inf
    if out_dir is not None:
        best_path = f"{out_dir}/best.ckpt"
        if best_epoch:
            with open(f"{out_dir}/epoch_{best_epoch:03d}.ckpt", "rb") as src:
                with files.replacing(best_path, binary=True) as dst:
                    shutil.copyfileobj(src, dst)
        else:
            save_checkpoint(best_path, model.config, model.params)
        write_log_csv(log, f"{out_dir}/train_log.csv")
    return TrainResult(best_epoch, best_ppl, log)


def write_log_csv(log: list[EpochLog], path: str) -> None:
    files.write_csv(path, [f.name for f in fields(EpochLog)], map(astuple, log))
