"""Model assembly: tap adaptation, widths, head wiring, snapshots."""

import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crmn.layers
import crmn.lstm
import crmn.model
from crmn.checkpoint import load_model, save_model
from crmn.data import ImageDataset
from crmn.errors import DimensionError
from crmn.gradcheck import check_full
from crmn.layers import batch_norm, conv2d, global_avg_pool, meanpool2x2
from crmn.lstm import initial_state, lstm_step, run_sequence
from crmn.model import (
    CrmnModel, TAP_FLATTEN_ORDER, adapt_tap, build_crmn,
    build_resnet, max_lstm_width,
)
from crmn.resnet import NetworkConfig, ResidualBlock, trunk_forward
from crmn.tensor import (Tape, Tensor, add, concat_cols, count_ops, pad_cols, pad_maps, relu,
                         reshape, softmax_cross_entropy, space_subsample)
from crmn.training import GROUPS, SgdOptimizer, evaluate_model


def cfg_for(n, base, **kw):
    kw.setdefault("classes", 10)
    return NetworkConfig(n=n, base_maps=base, **kw).validate()


def test_max_width_is_stage_one_pooled_width():
    assert max_lstm_width(cfg_for(3, 16)) == 16 * 256  # 4096
    assert max_lstm_width(cfg_for(3, 64)) == 64 * 256
    assert max_lstm_width(cfg_for(3, 16, input_extent=16)) == 16 * 64


def test_adapt_tap_flattens_map_major_without_padding():
    # two maps, 2x2 each: pooled means land in (map, row, col) order; nothing
    # pads a row narrower than the LSTM's input width, whose step multiplies
    # it by W_x's first rows
    tap = Tensor(np.zeros((1, 2, 2, 2)), dtype=np.float64)
    tap.data[0, 0] = [[1.0, 2.0], [3.0, 4.0]]   # mean 2.5
    tap.data[0, 1] = [[-4.0, 0.0], [0.0, 0.0]]  # mean -1.0
    out = adapt_tap(tap)
    assert TAP_FLATTEN_ORDER == "map,row,col"
    assert np.array_equal(out.data, [[2.5, -1.0]])


def test_adapt_tap_spatial_order_is_row_then_col():
    tap = Tensor(np.zeros((1, 1, 4, 4)), dtype=np.float64)
    # fill each 2x2 pooling block with a distinct constant
    for r in range(2):
        for c in range(2):
            tap.data[0, 0, 2 * r:2 * r + 2, 2 * c:2 * c + 2] = 10 * r + c
    out = adapt_tap(tap)
    assert np.array_equal(out.data, [[0.0, 1.0, 10.0, 11.0]])


def test_adapt_tap_refuses_what_the_pool_refused():
    with pytest.raises(DimensionError):
        adapt_tap(Tensor(np.zeros((1, 2, 3, 4))))  # odd extent
    with pytest.raises(DimensionError):
        adapt_tap(Tensor(np.zeros((2, 4, 4))))
    # a pooled row wider than the LSTM's input width is the step's to refuse
    p = crmn.lstm.init_lstm(11, 2, None)
    with pytest.raises(DimensionError):
        lstm_step(p, adapt_tap(Tensor(np.zeros((1, 3, 4, 4)))), initial_state(p, 1))


def test_pad_weight_rows_are_inert_exactly_on_padded_steps():
    # stage-2/3 taps carry zero tails, so the matching input-weight rows
    # cannot move those steps; stage-1 taps fill the width and do react
    cfg = cfg_for(1, 8, hidden_size=6)
    model = build_crmn(cfg, seed=2)
    x = Tensor(np.random.default_rng(3).random((2, 3, 32, 32), dtype=np.float32))
    _, parts = model.forward(x, return_parts=True)
    width = max_lstm_width(cfg)
    vecs = [adapt_tap(t) for t in parts["taps"]]  # one tap per stage
    state = initial_state(model.lstm, batch=2)

    def step_h(vec):
        return lstm_step(model.lstm, vec, state).h.data.copy()

    before = [step_h(v) for v in vecs]
    for gate in "ifco":
        getattr(model.lstm, f"w_x{gate}").data[width // 2:, :] += 0.5
    after = [step_h(v) for v in vecs]
    assert not np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    assert np.array_equal(before[2], after[2])


def test_head_width_is_pool_plus_hidden():
    cfg = cfg_for(1, 16, hidden_size=100)
    model = build_crmn(cfg, seed=0)
    assert model.head.weight.shape == (164, 10)
    resnet = build_resnet(cfg, seed=0)
    assert resnet.head.weight.shape == (64, 10)


def test_forward_shapes_and_parts():
    cfg = cfg_for(1, 8, hidden_size=7)
    model = build_crmn(cfg, seed=1)
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32))
    logits, parts = model.forward(x, training=False, return_parts=True)
    assert logits.shape == (2, 10)
    assert parts["pool_out"].shape == (2, 32)
    assert parts["hidden"].shape == (2, 7)
    assert len(parts["taps"]) == 3


def test_resnet_is_the_model_without_a_memory_path():
    cfg = cfg_for(1, 8, hidden_size=7)
    model = build_resnet(cfg, seed=1)
    assert model.kind == "resnet" and model.lstm is None
    assert build_crmn(cfg, seed=1).kind == "crmn"
    assert not any(n.startswith("lstm.") for n, _, _ in model.named_params())
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32))
    _, parts = model.forward(x, return_parts=True)
    assert set(parts) == {"pool_out", "taps"}
    assert crmn.model.ResnetModel is CrmnModel


def test_trunk_is_blind_to_the_memory_path():
    # identical seeds build identical trunks; activations must agree bit for
    # bit whether or not the recurrent reader is attached
    cfg = cfg_for(2, 8, hidden_size=9)
    crmn = build_crmn(cfg, seed=3)
    resnet = build_resnet(cfg, seed=3)
    x = Tensor(np.random.default_rng(4).random((2, 3, 32, 32), dtype=np.float32))
    _, crmn_parts = crmn.forward(x, return_parts=True)
    _, resnet_parts = resnet.forward(x, return_parts=True)
    assert crmn_parts["pool_out"].data.tobytes() == resnet_parts["pool_out"].data.tobytes()
    for a, b in zip(crmn_parts["taps"], resnet_parts["taps"]):
        assert a.data.tobytes() == b.data.tobytes()


def test_zeroing_hidden_head_rows_recovers_pool_only_logits():
    cfg = cfg_for(1, 8, hidden_size=6)
    model = build_crmn(cfg, seed=5)
    model.head.weight.data[32:, :] = 0.0  # silence the memory columns
    x = Tensor(np.random.default_rng(6).random((2, 3, 32, 32), dtype=np.float32))
    logits, parts = model.forward(x, return_parts=True)
    manual = parts["pool_out"].data @ model.head.weight.data[:32] + model.head.bias.data
    assert np.allclose(logits.data, manual, atol=1e-6)


def test_named_params_prefixes_and_decay_flags():
    model = build_crmn(cfg_for(1, 8, hidden_size=5), seed=0)
    rows = model.named_params()
    names = [n for n, _, _ in rows]
    assert len(names) == len(set(names))
    assert any(n.startswith("trunk.stem") for n in names)
    assert any(n.startswith("lstm.w_xi") for n in names)
    assert any(n.startswith("head.") for n in names)
    decay = {n: d for n, _, d in rows}
    assert decay["head.weight"] is True
    assert decay["head.bias"] is False
    assert decay["lstm.b_f"] is False
    assert decay["lstm.h0"] is False
    assert decay["lstm.w_hi"] is True
    assert all(not d for n, _, d in rows if n.endswith(".shift"))
    assert all(d for n, _, d in rows if n.endswith(".scale"))


def test_frozen_c0_drops_out_of_named_params():
    model = build_crmn(cfg_for(1, 4, hidden_size=5, learn_c0=False), seed=0)
    names = [n for n, _, _ in model.named_params()]
    assert "lstm.c0" not in names
    assert "lstm.h0" in names


def test_snapshot_restore_roundtrip_is_bit_exact():
    cfg = cfg_for(1, 8, hidden_size=5)
    model = build_crmn(cfg, seed=7)
    x = Tensor(np.random.default_rng(8).random((4, 3, 32, 32), dtype=np.float32))
    model.forward(x, training=True)  # move the running stats off their defaults
    snap = model.snapshot()
    before = model.forward(x).data.copy()

    for _, t, _ in model.named_params():
        t.data += 0.25
    for _, a in model.named_state():
        a += 1.0
    assert not np.allclose(model.forward(x).data, before)

    model.restore(snap)
    assert model.forward(x).data.tobytes() == before.tobytes()


def test_builders_are_seed_deterministic():
    cfg = cfg_for(1, 8, hidden_size=5)
    a = build_crmn(cfg, seed=11)
    b = build_crmn(cfg, seed=11)
    for (na, ta, _), (nb, tb, _) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()
    c = build_crmn(cfg, seed=12)
    assert c.trunk.stem.weight.data.tobytes() != a.trunk.stem.weight.data.tobytes()


def test_config_roundtrips_through_dict():
    cfg = cfg_for(2, 16, hidden_size=50, variant="preactivation",
                  shortcut="projection", output_gate="sigmoid", learn_c0=False)
    clone = NetworkConfig.from_dict(cfg.as_dict())
    assert clone.as_dict() == cfg.as_dict()


@pytest.mark.parametrize("kw", [{"variant": v, "shortcut": s}
                                for v in ("original", "preactivation")
                                for s in ("pad", "projection")],
                         ids=lambda kw: f"{kw['variant']}-{kw['shortcut']}")
def test_a_taped_forward_calls_conv2d_and_batch_norm_through_the_layers_module(
        monkeypatch, kw):
    """Every conv and norm of the trunk is a call-time lookup a profiler can wrap;
    a norm run inside a conv is counted as its ``conv2d`` call with a norm."""
    calls = {"conv2d": 0, "batch_norm": 0}

    def counting(name):
        original = getattr(crmn.layers, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if kwargs.get("norm") is not None:
                calls["batch_norm"] += 1
            return original(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(crmn.layers, name, counting(name))
    cfg = cfg_for(2, 4, hidden_size=3, input_extent=8, **kw)
    model = build_crmn(cfg, seed=5)
    x = Tensor(np.random.default_rng(6).random((2, 3, 8, 8), dtype=np.float32))
    with Tape():
        model.forward(x, training=True)
    projections = 2 if kw["shortcut"] == "projection" else 0  # stages 2 and 3
    assert calls == {"conv2d": 1 + 6 * cfg.n + projections,
                     "batch_norm": 1 + 6 * cfg.n + projections}


SWITCHES = pytest.mark.parametrize("kw", [{"variant": v, "shortcut": s}
                                          for v in ("original", "preactivation")
                                          for s in ("pad", "projection")],
                                   ids=lambda kw: f"{kw['variant']}-{kw['shortcut']}")


@pytest.mark.parametrize("build", [build_crmn, build_resnet])
def test_an_untaped_forward_holds_no_tap_list(build):
    """Each tap is dropped once the next block and the LSTM have read it.

    A batch-100 eval forward of the 32-layer x1 models peaks at about four
    stage-1 maps; holding every tap (and every adapted tap) took 78.5 MiB for
    the CRMN and 57.9 MiB for the ResNet, against a bound of 31.25 MiB.
    """
    model = build(cfg_for(5, 16, hidden_size=100), seed=0)
    x = Tensor(np.random.default_rng(0).random((100, 3, 32, 32), dtype=np.float32))
    model.forward(x)  # first calls allocate the convolution's kept buffers
    stage1_map = 100 * 16 * 32 * 32 * 4
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 5 * stage1_map


def _composed_logits(model, x, training):
    """The whole trunk, then every tap adapted, then the LSTM and the head, in that order."""
    pool_out, taps = trunk_forward(model.trunk, x, training)
    if model.lstm is None:
        return model.head.forward(pool_out)
    hidden = run_sequence(model.lstm, [adapt_tap(t) for t in taps])
    return model.head.forward(concat_cols(pool_out, hidden))


def _taped_step(model, logits_of, x, labels):
    with count_ops() as counter, Tape() as tape:
        loss = softmax_cross_entropy(logits_of(x), labels)
        tape.backward(loss)
    return ([loss.data] + [t.grad for _, t, _ in model.named_params()]
            + [a for _, a in model.named_state()], counter.total)


@SWITCHES
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", [build_crmn, build_resnet])
def test_the_depthwise_loop_keeps_the_composed_tape_order(kw, dtype, build):
    """Loss, every gradient, the batch-norm state and the op count are bit-identical.

    A tap's gradient sums three terms (its adapter, the next block's shortcut
    and its first op); reading the tap right after its own block, not after
    the next one, would sum them in another order.
    """
    cfg = cfg_for(2, 4, hidden_size=5, classes=3, **kw)
    rng = np.random.default_rng(7)
    x = Tensor(rng.random((3, 3, 32, 32)).astype(dtype))
    labels = rng.integers(0, 3, 3)
    loop = build(cfg, seed=2, dtype=dtype)
    composed = build(cfg, seed=2, dtype=dtype)
    got, ops = _taped_step(loop, lambda x: loop.forward(x, training=True), x, labels)
    want, want_ops = _taped_step(composed, lambda x: _composed_logits(composed, x, True),
                                 x, labels)
    assert ops == want_ops
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@SWITCHES
@pytest.mark.parametrize("build", [build_crmn, build_resnet])
def test_the_loop_looks_up_the_adapter_step_and_blocks_at_call_time(monkeypatch, kw, build):
    """Wrappers on ``model.adapt_tap``, ``lstm.lstm_step`` and ``ResidualBlock.forward``
    see every call: at k = 1 and 2 slices, a batch-2 eval forward enters every block and
    (CRMN) adapter once per slice, and the LSTM steps 3n times on the whole batch; the
    ResNet has no adapter or step."""
    calls = {"adapt_tap": [], "lstm_step": [], "forward": []}  # appends are thread-safe

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name].append(None)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    counting(crmn.model, "adapt_tap")
    counting(crmn.lstm, "lstm_step")
    counting(ResidualBlock, "forward")
    cfg = cfg_for(2, 4, hidden_size=3, input_extent=8, **kw)
    model = build(cfg, seed=5)
    memory = 3 * cfg.n if build is build_crmn else 0
    for slices in (1, 2):
        monkeypatch.setattr(crmn.model, "_cpus", lambda: slices)
        for seen in calls.values():
            seen.clear()
        model.forward(Tensor(np.random.default_rng(6).random((2, 3, 8, 8), dtype=np.float32)))
        assert {name: len(seen) for name, seen in calls.items()} == {
            "adapt_tap": memory * slices, "lstm_step": memory, "forward": 3 * cfg.n * slices}


@SWITCHES
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", [build_crmn, build_resnet])
def test_a_sliced_eval_equals_the_serial_one_bit_for_bit(monkeypatch, kw, dtype, build):
    """Eval logits, and ``evaluate_model``'s loss and accuracy, are the same at 1, 2
    and 3 slices, for batches of 1, 2, 7 and 100 images."""
    cfg = cfg_for(1, 4, hidden_size=5, classes=3, input_extent=16, **kw)
    model = build(cfg, seed=8, dtype=dtype)
    rng = np.random.default_rng(9)
    for name, a in model.named_state():  # running estimates off their initial zeros and ones
        var = name.endswith("var")
        a[...] = rng.uniform(0.5, 1.5, a.shape) if var else rng.normal(0.0, 0.1, a.shape)
    for b in (1, 2, 7, 100):
        ds = ImageDataset(rng.random((b, 3, 16, 16), dtype=np.float32),
                          rng.integers(0, 3, b), 3, "val")
        x = Tensor(ds.images.astype(dtype))
        seen = set()
        for slices in (1, 2, 3):
            monkeypatch.setattr(crmn.model, "_cpus", lambda: slices)
            logits = model.forward(x).data
            seen.add((logits.dtype.name, logits.tobytes(), evaluate_model(model, ds, b)))
        assert len(seen) == 1, b


def test_no_thread_starts_outside_a_sliced_eval(monkeypatch, tmp_path):
    """Importing crmn, building, loading, a training step, the full gradient check and
    every eval forward that does not slice (batch 1, counted, taped) start no thread."""
    code = ("import pkgutil, threading; n = threading.active_count(); import crmn; "
            "[__import__(f'crmn.{m.name}') for m in pkgutil.iter_modules(crmn.__path__)]; "
            "assert threading.active_count() == n, threading.enumerate()")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(Path(crmn.__file__).parents[1])))
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 2)
    threads = threading.active_count()
    model = build_crmn(cfg_for(1, 4, hidden_size=3, input_extent=8), seed=0)
    save_model(model, tmp_path / "m.crmn")
    model = load_model(tmp_path / "m.crmn")
    x = Tensor(np.random.default_rng(0).random((2, 3, 8, 8), dtype=np.float32))
    opt = SgdOptimizer(model.named_params())
    with Tape() as tape:
        tape.backward(softmax_cross_entropy(model.forward(x, training=True), [0, 1]))
    opt.step({group: 0.1 for group in GROUPS})
    check_full()
    model.forward(Tensor(x.data[:1]))
    with count_ops():
        model.forward(x)
    with Tape():
        model.forward(x)
    assert threading.active_count() == threads


@pytest.mark.parametrize("slices", [2, 3])
def test_each_sliced_eval_runs_its_own_threads_and_ends_them(monkeypatch, slices):
    """Each of two back-to-back sliced evals runs k - 1 threads of its own at once (a
    barrier holds each until all have started, and counts the live threads), and
    none is left when ``forward`` returns."""
    monkeypatch.setattr(crmn.model, "_cpus", lambda: slices)
    threads = threading.active_count()
    running = []
    together = threading.Barrier(slices - 1, lambda: running.append(threading.active_count()),
                                 timeout=30)
    feed = CrmnModel._feed

    def feed_together(*args):
        try:
            together.wait()
        finally:  # a broken barrier still feeds: too few threads fail the count, not hang
            feed(*args)

    monkeypatch.setattr(CrmnModel, "_feed", feed_together)
    model = build_crmn(cfg_for(1, 4, hidden_size=3, input_extent=8), seed=0)
    x = Tensor(np.random.default_rng(0).random((5, 3, 8, 8), dtype=np.float32))
    for _ in range(2):
        model.forward(x)
        assert threading.active_count() == threads
    assert running == [threads + slices - 1] * 2


def test_more_slices_than_cpus_under_fast_thread_switches_stay_bit_identical(monkeypatch):
    """Four slices on three threads of their own, the interpreter switching threads
    every microsecond: every run's logits are the serial ones."""
    model = build_crmn(cfg_for(1, 4, hidden_size=5, input_extent=16), seed=1)
    x = Tensor(np.random.default_rng(2).random((9, 3, 16, 16), dtype=np.float32))
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 1)
    want = model.forward(x).data.tobytes()
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert all(model.forward(x).data.tobytes() == want for _ in range(5))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    """A child forked after a sliced eval runs its own sliced eval to the same logits:
    the parent's eval left no thread behind for the child to wait on."""
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 2)
    model = build_crmn(cfg_for(1, 4, hidden_size=3, input_extent=8), seed=0)
    x = Tensor(np.random.default_rng(0).random((3, 3, 8, 8), dtype=np.float32))
    want = model.forward(x).data
    pid = os.fork()
    if pid == 0:  # the child leaves at once, whatever happens
        ok = False
        try:
            ok = np.array_equal(model.forward(x).data, want)
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_one_cpu_takes_the_serial_path(monkeypatch):
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 1)
    monkeypatch.setattr(CrmnModel, "_sliced", None)  # calling it would raise
    model = build_crmn(cfg_for(1, 4, hidden_size=3, input_extent=8), seed=0)
    model.forward(Tensor(np.random.default_rng(0).random((5, 3, 8, 8), dtype=np.float32)))


def test_a_sliced_eval_keeps_no_memory_after_it_returns(monkeypatch):
    """A 2-slice eval, after a serial one has grown this thread's convolution buffers,
    leaves no NumPy data behind but its logits: the other slice's thread took its own
    buffers (0.63 MiB here) with it when it ended."""
    model = build_resnet(cfg_for(1, 16, input_extent=32), seed=0)
    x = Tensor(np.random.default_rng(0).random((6, 3, 32, 32), dtype=np.float32))
    monkeypatch.setattr(crmn.layers, "_scratch", threading.local())  # no thread's buffers yet
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 1)
    model.forward(x)
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 2)
    tracemalloc.start()
    try:
        logits = model.forward(x)
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert logits.data.nbytes <= sum(t.size for t in arrays.traces) < 2**14


def test_a_pool_threads_error_reaches_the_caller_after_every_slice_ends(monkeypatch):
    """The caller waits for every slice thread, then raises a failed slice's exception
    as it was, its type unchanged."""
    monkeypatch.setattr(crmn.model, "_cpus", lambda: 3)
    model = build_crmn(cfg_for(1, 4, hidden_size=3, input_extent=8), seed=0)
    run, ended = CrmnModel.run, []

    def failing_run(self, x, ops, *args):
        if isinstance(ops, crmn.model._Feed) and x.shape[0] == 2:
            raise DimensionError("slice 1")
        out = run(self, x, ops, *args)
        ended.append(x.shape[0])
        return out

    monkeypatch.setattr(CrmnModel, "run", failing_run)
    with pytest.raises(DimensionError, match="slice 1"):
        model.forward(Tensor(np.random.default_rng(0).random((7, 3, 8, 8), dtype=np.float32)))
    assert sorted(ended) == [3]  # slice 2 (3 images) ran to its end; slice 0 stopped


def _unfused_norm(bn, x, training):
    return batch_norm(x, bn.scale, bn.shift, bn.running_mean, bn.running_var, training,
                      bn.momentum)


def _unfused_block(block, x, training):
    """The block as separate taped ops: every norm, shortcut add and ReLU its own op,
    the shortcut after the branch's last norm."""
    conv = lambda layer, y: conv2d(y, layer.weight, layer.stride)
    norm = lambda bn, y: _unfused_norm(bn, y, training)
    if block.variant == "original":
        y = norm(block.bn1, conv(block.conv1, x))
        y = norm(block.bn2, conv(block.conv2, relu(y)))
    else:
        y = conv(block.conv1, relu(norm(block.bn1, x)))
        y = conv(block.conv2, relu(norm(block.bn2, y)))
    if block.proj is not None:
        y = add(y, norm(block.proj_bn, conv(block.proj, x)))
    elif block.spec.changes_shape:
        kept = space_subsample(x) if block.spec.stride == 2 else x
        y = add(y, pad_maps(kept, block.spec.out_maps))
    else:
        y = add(y, x)
    return relu(y) if block.variant == "original" else y


def _unfused_logits(model, x, training):
    """The model with no fused op: the trunk, each tap pooled, flattened and padded
    as three ops, then the LSTM and the head."""
    trunk = model.trunk
    y = conv2d(x, trunk.stem.weight)
    if trunk.stem_bn is not None:
        y = relu(_unfused_norm(trunk.stem_bn, y, training))
    taps = []
    for block in trunk.blocks:
        y = _unfused_block(block, y, training)
        taps.append(y)
    if trunk.final_bn is not None:
        y = relu(_unfused_norm(trunk.final_bn, y, training))
    pool = global_avg_pool(y)
    if model.lstm is None:
        return model.head.forward(pool)
    adapted = [pad_cols(reshape(meanpool2x2(t), (t.shape[0], -1)), model.lstm.input_width)
               for t in taps]
    return model.head.forward(concat_cols(pool, run_sequence(model.lstm, adapted)))


@SWITCHES
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", [build_crmn, build_resnet])
def test_the_fused_forward_equals_the_unfused_oracle_over_three_sgd_steps(kw, dtype, build):
    """Losses, every gradient, the batch-norm state and the op counts of three
    training steps, then the eval logits, are bit-identical to the unfused model's."""
    cfg = cfg_for(2, 4, hidden_size=5, classes=3, **kw)
    fused, oracle = build(cfg, seed=4, dtype=dtype), build(cfg, seed=4, dtype=dtype)
    optimizers = [SgdOptimizer(m.named_params()) for m in (fused, oracle)]
    lrs = {"trunk": 0.1, "lstm": 0.1, "head": 0.1}
    rng = np.random.default_rng(8)
    for _ in range(3):
        x = Tensor(rng.standard_normal((3, 3, 32, 32)).astype(dtype))
        labels = rng.integers(0, 3, 3)
        got, ops = _taped_step(fused, lambda x: fused.forward(x, training=True), x, labels)
        want, want_ops = _taped_step(oracle, lambda x: _unfused_logits(oracle, x, True),
                                     x, labels)
        assert ops == want_ops
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for model, opt in zip((fused, oracle), optimizers):
            opt.step(lrs)
            opt.zero_grads()
    x = Tensor(rng.standard_normal((5, 3, 32, 32)).astype(dtype))
    assert fused.forward(x).data.tobytes() == _unfused_logits(oracle, x, False).data.tobytes()


def test_a_taped_training_step_keeps_one_map_per_fused_norm():
    """A CRMN-32x1 training step at batch 10 peaks at about 69 stage-1 maps under
    tracemalloc; keeping each norm's output, pre-ReLU sum and ReLU output apart
    (three ops, not one) peaked at about 97."""
    model = build_crmn(cfg_for(5, 16, hidden_size=100), seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((10, 3, 32, 32), dtype=np.float32))
    labels = rng.integers(0, 10, 10)

    def step():
        with Tape() as tape:
            tape.backward(softmax_cross_entropy(model.forward(x, training=True), labels))

    step()  # first calls allocate the convolution's kept buffers
    stage1_map = 10 * 16 * 32 * 32 * 4
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 80 * stage1_map
