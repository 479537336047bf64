"""Answer-aware subword question generation with a pointer mixture.

The package covers the full pipeline: subword vocabulary training
(`textproc`), dataset preparation for answer-tagged contexts and news
articles (`corpus`), a transformer encoder/decoder with a copy mechanism
built on a small reverse-mode autodiff core (`numerics`, `model`),
teacher-forced training (`training`), beam/nucleus/greedy decoding
(`decoding`), n-gram overlap metrics (`genmetrics`), and QA-based
answerability/granularity scoring with human-annotation correlation
(`qaeval`). The `sqgen` command line ties the stages together.

Each public name is imported from its submodule on first access, so
`import sqgen` loads no submodule and no NumPy until a name needs it.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "DatasetSplit": "corpus",
    "PreparedExample": "corpus",
    "RawRecord": "corpus",
    "prepare_example": "corpus",
    "split_dataset": "corpus",
    "beam_search": "decoding",
    "greedy": "decoding",
    "nucleus_sample": "decoding",
    "BertPgn": "model",
    "ModelConfig": "model",
    "LexicalOverlapScorer": "qaeval",
    "qa_score": "qaeval",
    "Vocab": "textproc",
    "decode": "textproc",
    "encode": "textproc",
    "load_vocab": "textproc",
    "save_vocab": "textproc",
    "train_vocab": "textproc",
    "TrainConfig": "training",
    "train": "training",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
