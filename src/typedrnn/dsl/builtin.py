"""Shipped cell descriptions and the adapter onto native cell parameters.

Each native architecture has a ``.cell`` file under ``cells/`` expressing the
same one-step dataflow; ``interp_params`` rewraps a native ``CellParams``
into the interpreter's per-affine-node keying so spec execution can be
cross-checked against ``cells.sequence_forward``. ``scrn_state`` has no
``CellKind``: its native counterpart is the step function
``cells.scrn_state_step(alpha, W_s, s, x)``, whose two parameters are the
interpreter's ``affine#1.W0`` and ``alpha``. ``rnn_symmetric`` exists only
for the checker (a vanilla recurrence whose recurrent matrix is declared
symmetric); it has no native counterpart.
"""

from __future__ import annotations

from importlib import resources

from ..cells import CellKind, CellParams
from .nodes import CellSpec
from .parser import parse_spec

BUILTIN_CELLS = (
    "rnn",
    "lstm",
    "gru",
    "t_rnn",
    "t_lstm",
    "t_gru",
    "t_mr",
    "scrn_state",
    "rnn_symmetric",
)


def builtin_text(name: str) -> str:
    if name not in BUILTIN_CELLS:
        raise KeyError(f"no builtin cell named {name!r}")
    return (
        resources.files(__package__).joinpath("cells", f"{name}.cell").read_text()
    )


def builtin_spec(name: str) -> CellSpec:
    return parse_spec(builtin_text(name))


def port_names(kind: CellKind) -> tuple[list[str], list[str]]:
    """(state port names, input port names) of the builtin spec for a kind."""
    spec = builtin_spec(kind.value)
    return [p.name for p in spec.states()], [p.name for p in spec.inputs()]


def interp_params(params: CellParams) -> dict:
    """Interpreter parameter dict equivalent to a native parameter set."""
    kind = params.kind
    t = params.tensors
    if kind == CellKind.T_RNN:
        return {
            "affine#1.W0": t["W"],
            "affine#2.W0": t["V"],
            "affine#2.b": t["b"],
        }
    if kind in (CellKind.T_LSTM, CellKind.T_GRU, CellKind.LSTM, CellKind.GRU):
        out = {}
        for i, g in enumerate(("z", "f", "o"), start=1):
            out[f"affine#{i}.W0"] = t[f"V_{g}"]
            out[f"affine#{i}.W1"] = t[f"W_{g}"]
            out[f"affine#{i}.b"] = t[f"b_{g}"]
        return out
    if kind == CellKind.RNN:
        return {
            "affine#1.W0": t["V"],
            "affine#1.W1": t["W"],
            "affine#1.b": t["b"],
        }
    # T-MR
    return {
        "affine#1.d": t["b"],
        "affine#1.b": t["c"],
        "affine#2.W0": t["W"],
    }
