"""Convolutional residual memory networks on numpy.

A residual trunk feeds every block output ("tap") through a meanpool/pad
adapter into a peephole LSTM running along depth; the final hidden state
joins the global-pool features in front of a dense classifier. The package
also provides exact parameter/operation accounting, gradient verification,
a patience-based training protocol with optional round-robin per-component
learning rates, and dataset plumbing.
"""

__version__ = "0.1.0"
