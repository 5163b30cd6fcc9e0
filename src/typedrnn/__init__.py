"""Strongly-typed recurrent cells with verifiable semantics.

The library implements typed recurrent architectures (T-RNN, T-LSTM, T-GRU,
T-MR) whose recurrences apply only coordinatewise operations to state, next
to classical baselines (RNN, LSTM without an input gate, GRU); every cell
kind is a trainable layer, and the SCRN context step is a native step
function beside its cell description. It ships three independent routes
through the same math (the step recurrences, a dynamic average-pooling
closed form, and analytic gradients) plus a small cell-description language
whose type checker separates the two families mechanically, and a
character/word language-model training loop with a binary checkpoint format.
"""

from .autodiff import (
    Grads,
    bptt,
    clip_global_norm,
    finite_diff,
    global_norm,
    sequence_backward,
    stack_backward,
    state_jacobian,
)
from .cells import (
    CellKind,
    CellParams,
    LayerState,
    T_CELL_KINDS,
    TRAINABLE_KINDS,
    init_params,
    param_shapes,
    sequence_forward,
    stack_forward,
)
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    DataError,
    EncodedCorpus,
    Vocab,
    batch_iter,
    build_vocab,
    encode_and_split,
    encode_pre_split,
    synthetic_corpus,
)
from .semantics import (
    closed_form_gradients,
    pooling_weights,
    tgru_forward_pooled,
    tlstm_forward_pooled,
    trnn_forward_pooled,
)
from .training import (
    Metrics,
    Model,
    TrainConfig,
    TrainingDiverged,
    build_model,
    cross_entropy,
    evaluate,
    model_from_checkpoint,
    model_to_checkpoint,
    sample,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CellKind",
    "CellParams",
    "Checkpoint",
    "CheckpointError",
    "DataError",
    "EncodedCorpus",
    "Grads",
    "LayerState",
    "Metrics",
    "Model",
    "T_CELL_KINDS",
    "TRAINABLE_KINDS",
    "TrainConfig",
    "TrainingDiverged",
    "Vocab",
    "batch_iter",
    "bptt",
    "build_model",
    "build_vocab",
    "clip_global_norm",
    "closed_form_gradients",
    "cross_entropy",
    "encode_and_split",
    "encode_pre_split",
    "evaluate",
    "finite_diff",
    "global_norm",
    "init_params",
    "load_checkpoint",
    "model_from_checkpoint",
    "model_to_checkpoint",
    "param_shapes",
    "pooling_weights",
    "sample",
    "save_checkpoint",
    "sequence_backward",
    "sequence_forward",
    "stack_backward",
    "stack_forward",
    "state_jacobian",
    "synthetic_corpus",
    "tgru_forward_pooled",
    "tlstm_forward_pooled",
    "train",
    "trnn_forward_pooled",
    "__version__",
]
