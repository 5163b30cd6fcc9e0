"""A small description language for one-step recurrent cell dataflow.

A ``.cell`` file declares state and input ports and a sequence of bindings
over a fixed op vocabulary (affine maps tagged by matrix kind, coordinatewise
unaries, coordinatewise binaries, the gating product). The checker assigns
dimensional types to every binding and rejects recurrences that feed state
through a type-mixing (general or orthogonal) matrix; the interpreter
executes specs numerically so they can be cross-checked against the native
cell implementations.
"""
