"""Span tracer that wraps the crmn package's public names from outside.

The package modules import each other by name (``from .tensor import relu``),
so a wrapper only takes effect where it is installed on the module or class
that performs the lookup at call time. ``TARGETS`` lists every such site the
benchmark traces, with the span name it records.

While active, each wrapped call records an aggregated span (calls, inclusive
seconds, self seconds, and the parent span it ran under). Every backward
closure handed to ``Tape.record`` while a span is open is wrapped too, so its
time is charged as backward time to each span that was open when it was
recorded. When inactive, every wrapped name is the original object and
nothing is recorded; installing and removing the wrappers is the only cost.
"""

from __future__ import annotations

import time
from collections import defaultdict

import crmn.gradcheck
import crmn.layers
import crmn.lstm
import crmn.model
import crmn.resnet
import crmn.tensor
import crmn.training

# (owner, attribute, span name). Owners are modules (module-level names)
# or classes (methods). A span name of None marks a specially wrapped target.
TARGETS = (
    (crmn.training, "train", "training.train"),
    (crmn.training, "evaluate_model", "training.evaluate_model"),
    (crmn.gradcheck, "check_full", "gradcheck.check_full"),
    (crmn.gradcheck, "numeric_gradient", None),
    (crmn.gradcheck, "build_crmn", None),
    (crmn.model.CrmnModel, "forward", "model.forward"),
    (crmn.model.ResnetModel, "forward", "model.forward"),
    (crmn.model, "trunk_forward", "resnet.trunk"),
    (crmn.gradcheck, "trunk_forward", "resnet.trunk"),
    (crmn.resnet.ResidualBlock, "forward", None),
    (crmn.layers, "conv2d", "layers.conv2d"),
    (crmn.layers, "batch_norm", "layers.batch_norm"),
    (crmn.layers.Dense, "forward", "layers.dense"),
    (crmn.model, "adapt_tap", "model.adapt_tap"),
    (crmn.gradcheck, "adapt_tap", "model.adapt_tap"),
    (crmn.model, "run_sequence", "lstm.run_sequence"),
    (crmn.gradcheck, "run_sequence", "lstm.run_sequence"),
    (crmn.lstm, "lstm_step", "lstm.step"),
    (crmn.training, "softmax_cross_entropy", "tensor.softmax_cross_entropy"),
    (crmn.gradcheck, "softmax_cross_entropy", "tensor.softmax_cross_entropy"),
    (crmn.training, "augment", "data.augment"),
    (crmn.training.SgdOptimizer, "step", "training.sgd_step"),
    (crmn.training.SgdOptimizer, "zero_grads", "training.zero_grads"),
    (crmn.tensor.Tape, "backward", "tensor.tape.backward"),
    (crmn.tensor.Tape, "record", None),
)


def _lookup(owner, attr):
    # vars() on a class returns the plain function, not a bound method
    return vars(owner)[attr]


class SpanStats:
    __slots__ = ("calls", "incl_s", "self_s", "bwd_s", "bwd_calls", "ops")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.bwd_s = 0.0
        self.bwd_calls = 0
        self.ops = 0

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Aggregating span recorder; use as a context manager to activate.

    With ``counter`` set to an active ``crmn.tensor.OpCounter``, each span
    also accumulates the forward operations counted inside it.
    """

    def __init__(self, counter=None):
        self.counter = counter
        self.stats = defaultdict(SpanStats)
        self.edges = defaultdict(float)  # (parent, child) -> inclusive seconds
        self.tape_entries = 0
        self.gradcheck_trunk_ids = set()
        self._stack = []
        self._saved = None

    @property
    def active(self):
        return self._saved is not None

    def __enter__(self):
        if self._saved is not None:
            raise RuntimeError("tracer is already active")
        self._saved = [(owner, attr, _lookup(owner, attr)) for owner, attr, _ in TARGETS]
        for (owner, attr, name), (_, _, original) in zip(TARGETS, self._saved):
            setattr(owner, attr, self._wrap(attr, name, original))
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = None
        self._stack.clear()
        return False

    def _wrap(self, attr, name, fn):
        if name is not None:
            return self._span(name, fn)
        if attr == "forward":  # ResidualBlock.forward: one span per stage
            names = {s: f"resnet.stage{s}" for s in (1, 2, 3)}
            return self._span(None, fn, lambda block, *a: names[block.spec.stage])
        if attr == "record":
            return self._record(fn)
        if attr == "numeric_gradient":
            return self._numeric_gradient(fn)
        if attr == "build_crmn":
            return self._build_crmn(fn)
        raise ValueError(f"no wrapper for {attr}")

    def _span(self, name, fn, namer=None):
        """Wrap fn in a span called ``name``, or ``namer(*args)`` per call."""
        stack, stats, edges = self._stack, self.stats, self.edges
        clock = time.perf_counter
        counter = self.counter

        def wrapped(*args, **kwargs):
            span = name if namer is None else namer(*args)
            frame = [span, 0.0]
            ops0 = counter.total if counter is not None else 0
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[span]
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - frame[1]
                if counter is not None:
                    st.ops += counter.total - ops0
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    edges[(parent[0], span)] += dt
                else:
                    edges[("", span)] += dt

        return wrapped

    def _record(self, fn):
        stack, stats = self._stack, self.stats
        clock = time.perf_counter
        tracer = self

        def record(tape, out, backward_fn):
            tracer.tape_entries += 1
            if stack:
                names = tuple(dict.fromkeys(frame[0] for frame in stack))
                inner = backward_fn

                def backward_fn(g, accum):
                    t0 = clock()
                    try:
                        inner(g, accum)
                    finally:
                        dt = clock() - t0
                        for n in names:
                            st = stats[n]
                            st.bwd_s += dt
                            st.bwd_calls += 1
                        if stack:
                            stack[-1][1] += dt

            return fn(tape, out, backward_fn)

        return record

    def _numeric_gradient(self, fn):
        trunk_ids = self.gradcheck_trunk_ids
        outer = self._span("gradcheck.numeric_gradient", fn)

        def numeric_gradient(f, tensor, *args, **kwargs):
            # trunk parameters are checked through full-model evaluations,
            # all others through the cached back half
            name = ("gradcheck.full_eval" if id(tensor) in trunk_ids
                    else "gradcheck.back_half_eval")
            return outer(self._span(name, f), tensor, *args, **kwargs)

        return numeric_gradient

    def _build_crmn(self, fn):
        trunk_ids = self.gradcheck_trunk_ids
        span = self._span("model.build_crmn", fn)

        def build_crmn(*args, **kwargs):
            model = span(*args, **kwargs)
            trunk_ids.update(id(t) for _, t in model.trunk.named_params())
            return model

        return build_crmn

    def report(self):
        return {
            "spans": {name: st.as_dict() for name, st in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "incl_s": s}
                      for (p, c), s in sorted(self.edges.items())],
            "tape_entries": self.tape_entries,
        }
