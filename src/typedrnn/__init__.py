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
Each name is imported from the module that defines it.
"""
