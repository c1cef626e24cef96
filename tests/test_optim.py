"""Parameter store, Adam, and gradient clipping."""

import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from seq2label.errors import ConfigError, NumericError, ShapeError
from seq2label.numerics import ParameterStore, RngStream, adam_step, clip_gradients, early_adam_step
from seq2label.numerics import params, pool
from seq2label.numerics.params import ADAM_BLOCK


def in_a_fresh_thread(fn):
    """``fn()`` called on a new thread, whose scratch buffer starts empty."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def make_store(values: dict[str, np.ndarray]) -> ParameterStore:
    store = ParameterStore()
    for name, arr in values.items():
        t = store.add(name, arr.shape, RngStream(0))
        t.data = arr.astype(np.float64)
    return store


class TestStore:
    def test_add_and_order(self):
        store = ParameterStore()
        store.add("b", (2,), RngStream(0))
        store.add("a", (3,), RngStream(0))
        assert store.names() == ["b", "a"]  # insertion order, not alphabetical
        assert len(store) == 2 and "a" in store

    def test_init_range(self):
        store = ParameterStore()
        t = store.add("w", (50, 50), RngStream(0), scale=0.1)
        assert np.all(np.abs(t.data) <= 0.1)
        assert t.data.std() > 0.01

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", (2,), RngStream(0))
        with pytest.raises(ConfigError, match="duplicate"):
            store.add("w", (2,), RngStream(0))

    def test_copy_and_load_round_trip(self):
        store = make_store({"w": np.arange(4.0)})
        snap = store.copy_values()
        store["w"].data += 1.0
        store.load_values(snap)
        assert np.array_equal(store["w"].data, np.arange(4.0))

    def test_load_rejects_mismatched_names(self):
        store = make_store({"w": np.arange(4.0)})
        with pytest.raises(ConfigError, match="mismatch"):
            store.load_values({"v": np.arange(4.0)})

    def test_zero_grads(self):
        store = make_store({"w": np.ones(3)})
        store["w"].grad = np.ones(3)
        store.zero_grads()
        assert store["w"].grad is None


def whole_array_adam(p, g, m, v, t, lr, beta1, beta2, eps):
    """The update as one whole-array expression: the oracle for the blocked sweep."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def whole_array_clip(grads, max_norm):
    """Clipping through ``(g * g).sum()``: the oracle for the reused square buffer."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if norm <= max_norm * (1.0 + 1e-12):
        return 1.0
    factor = max_norm / norm
    for g in grads:
        g *= factor
    return factor


EQUIVALENCE_SHAPES = [(), (1,), (ADAM_BLOCK - 1,), (ADAM_BLOCK,), (ADAM_BLOCK + 1,), (50002, 64)]


class TestAdam:
    def test_first_step_magnitude(self):
        # with g = 0.5 and defaults, the bias-corrected first step is
        # lr * g/|g| up to the eps correction, so very nearly -0.001
        store = make_store({"w": np.zeros(1)})
        store["w"].grad = np.array([0.5])
        adam_step(store)
        delta = store["w"].data[0]
        assert math.isclose(delta, -0.001, rel_tol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        store = make_store({"w": np.arange(3.0)})
        store["w"].grad = np.zeros(3)
        for _ in range(5):
            adam_step(store)
        assert np.array_equal(store["w"].data, np.arange(3.0))

    def test_none_gradient_is_skipped(self):
        store = make_store({"w": np.arange(3.0), "v": np.ones(2)})
        store["v"].grad = np.full(2, 0.5)
        adam_step(store)
        assert np.array_equal(store["w"].data, np.arange(3.0))
        assert np.all(store["v"].data < 1.0)

    def test_converges_on_quadratic(self):
        store = make_store({"w": np.array([5.0])})
        for _ in range(4000):
            store["w"].grad = 2.0 * store["w"].data
            adam_step(store, lr=0.01)
        assert abs(store["w"].data[0]) < 1e-3

    def test_step_count_and_state(self):
        store = make_store({"w": np.ones(2)})
        store["w"].grad = np.ones(2)
        adam_step(store)
        adam_step(store)
        assert store.step_count == 2
        state = store.adam_state()
        assert state["step"] == 2 and state["m"]["w"].shape == (2,)

    def test_bitwise_equal_to_whole_array_update(self):
        rng = np.random.default_rng(0)
        shapes = {f"p{i}": shape for i, shape in enumerate(EQUIVALENCE_SHAPES)}
        shapes["skipped"] = (3, 5)  # no gradient in any step
        store = make_store({name: rng.normal(size=shape) for name, shape in shapes.items()})
        oracle = {name: [store[name].data.copy(), np.zeros(shape), np.zeros(shape)]
                  for name, shape in shapes.items()}
        hyper = dict(lr=0.003, beta1=0.85, beta2=0.995, eps=1e-7)
        for step in range(1, 6):
            for name, shape in shapes.items():
                if name == "skipped":
                    continue
                g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                if g.ndim == 2:
                    g[rng.random(shape[0]) < 0.9] = 0.0  # mostly untouched rows, like a lookup table
                store[name].grad = g
                p, m, v = oracle[name]
                whole_array_adam(p, g, m, v, step, **hyper)
            adam_step(store, **hyper)
            state = store.adam_state()
            for name, (p, m, v) in oracle.items():
                assert np.array_equal(store[name].data, p), (name, step)
                assert np.array_equal(state["m"][name], m), (name, step)
                assert np.array_equal(state["v"][name], v), (name, step)
        assert np.array_equal(state["m"]["skipped"], np.zeros((3, 5)))

    def test_zero_gradient_still_moves_with_momentum(self):
        store = make_store({"w": np.arange(3.0)})
        store["w"].grad = np.ones(3)
        adam_step(store)
        before = store["w"].data.copy()
        store["w"].grad = np.zeros(3)
        adam_step(store)
        assert np.all(store["w"].data < before)

    def test_gradient_shape_mismatch_names_the_parameter(self):
        store = make_store({"ok": np.ones(2), "w": np.ones((3, 4))})
        store["ok"].grad = np.ones(2)
        store["w"].grad = np.ones(4)  # would broadcast over every row
        with pytest.raises(ShapeError, match="'w'"):
            adam_step(store)
        assert store.step_count == 0
        assert np.array_equal(store["ok"].data, np.ones(2))
        store["w"].grad = np.ones((4, 3))  # same size, different shape
        with pytest.raises(ShapeError, match="'w'"):
            adam_step(store)

    def test_no_parameter_sized_temporaries(self):
        store = make_store({"table": np.zeros((50002, 64))})
        store["table"].grad = np.random.default_rng(0).normal(size=(50002, 64))
        adam_step(store)  # warm-up
        tracemalloc.start()
        try:
            adam_step(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # one 50002x64 float64 array is 25.6 MB

    def test_rejects_bad_hyperparameters(self):
        store = make_store({"w": np.ones(1)})
        store["w"].grad = np.ones(1)
        for hyper in (dict(lr=0.0), dict(lr=math.nan), dict(lr=math.inf), dict(beta1=1.0), dict(beta2=math.nan),
                      dict(eps=0.0), dict(eps=math.nan), dict(eps=math.inf)):
            with pytest.raises(ConfigError):
                adam_step(store, **hyper)
            with pytest.raises(ConfigError):
                with early_adam_step(store, "w", [0], **hyper):
                    pass
        assert store.step_count == 0 and np.array_equal(store["w"].data, np.ones(1))

    @pytest.mark.parametrize("edit, match", [
        (lambda s: s.update(step=-1), "step"),
        (lambda s: s["m"].pop("w"), "Adam m name mismatch"),
        (lambda s: s["v"].update(extra=np.ones(1)), "Adam v name mismatch"),
        (lambda s: s["m"].update(w=np.ones(1)), "Adam m shape mismatch for 'w'"),
        (lambda s: s["v"].update(w=np.ones((3, 4))), "Adam v shape mismatch for 'w'"),
    ], ids=["negative-step", "missing-name", "extra-name", "short-moment", "transposed-moment"])
    def test_bad_adam_state_is_refused_before_loading(self, edit, match):
        # a negative step would divide by 1 - beta1**0 = 0 at the next update,
        # and a moment of the wrong shape would fail inside it
        store = make_store({"w": np.zeros((4, 3)), "b": np.zeros(2)})
        before = store.adam_state()
        state = {"step": 3, **{key: {"w": np.ones((4, 3)), "b": np.ones(2)} for key in ("m", "v")}}
        edit(state)
        with pytest.raises(ConfigError, match=match):
            store.load_adam_state(state)
        after = store.adam_state()
        assert after["step"] == before["step"] == 0
        for key in ("m", "v"):
            assert all(np.array_equal(after[key][n], before[key][n]) for n in ("w", "b"))


class TestClip:
    def test_scales_to_max_norm(self):
        store = make_store({"w": np.zeros(4)})
        store["w"].grad = np.full(4, 10.0)  # norm 20
        factor = clip_gradients(store, 10.0)
        assert math.isclose(factor, 0.5, rel_tol=1e-12)
        norm = math.sqrt(float((store["w"].grad ** 2).sum()))
        assert norm <= 10.0 + 1e-9

    def test_global_norm_across_parameters(self):
        store = make_store({"a": np.zeros(1), "b": np.zeros(1)})
        store["a"].grad = np.array([3.0])
        store["b"].grad = np.array([4.0])  # joint norm 5
        clip_gradients(store, 1.0)
        assert math.isclose(store["a"].grad[0], 0.6, rel_tol=1e-12)
        assert math.isclose(store["b"].grad[0], 0.8, rel_tol=1e-12)

    def test_within_bound_untouched(self):
        store = make_store({"w": np.zeros(2)})
        store["w"].grad = np.array([1.0, 2.0])
        assert clip_gradients(store, 10.0) == 1.0
        assert np.array_equal(store["w"].grad, [1.0, 2.0])

    def test_idempotent(self):
        store = make_store({"w": np.zeros(3)})
        store["w"].grad = np.full(3, 100.0)
        clip_gradients(store, 10.0)
        after_first = store["w"].grad.copy()
        assert clip_gradients(store, 10.0) == 1.0
        assert np.array_equal(store["w"].grad, after_first)

    @pytest.mark.parametrize("max_norm", [10.0, 1e-3, 1e6])
    def test_bitwise_equal_to_whole_array_clip(self, max_norm):
        rng = np.random.default_rng(1)
        values = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(EQUIVALENCE_SHAPES)}
        values["none"] = np.ones(4)
        store = make_store(values)
        for name, arr in values.items():
            if name != "none":
                store[name].grad = rng.normal(size=arr.shape)
        expected = [store[n].grad.copy() for n in values if n != "none"]
        factor = clip_gradients(store, max_norm)
        assert factor == whole_array_clip(expected, max_norm)
        for name, g in zip([n for n in values if n != "none"], expected):
            assert np.array_equal(store[name].grad, g), name
        assert store["none"].grad is None

    def test_overflowing_square_sum_still_clips(self):
        store = make_store({"w": np.zeros(2)})
        store["w"].grad = np.array([1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = clip_gradients(store, 10.0)
        assert factor > 0.0
        assert math.isclose(math.hypot(*store["w"].grad), 10.0, rel_tol=1e-12)
        assert store["w"].grad[0] == store["w"].grad[1]

    def test_gradient_shape_mismatch_names_the_parameter(self):
        store = make_store({"ok": np.ones(2), "w": np.ones((3, 4))})
        store["ok"].grad = np.full(2, 100.0)
        store["w"].grad = np.ones(4)
        with pytest.raises(ShapeError, match="'w'"):
            clip_gradients(store, 1.0)
        assert np.array_equal(store["ok"].grad, np.full(2, 100.0))

    def test_no_parameter_sized_temporaries(self):
        store = make_store({"table": np.zeros((50002, 64))})
        grad = np.random.default_rng(0).normal(size=(50002, 64))
        store["table"].grad = grad
        clip_gradients(store, 1.0)  # warm-up
        store["table"].grad = grad * 1e3
        tracemalloc.start()
        try:
            factor = clip_gradients(store, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor < 1.0
        assert peak < 1_000_000

    def test_scratch_stays_two_blocks(self):
        # a table-sized gradient is squared a block at a time, not all at once,
        # into the calling thread's own buffer
        store = make_store({"table": np.zeros((50002, 64))})
        store["table"].grad = np.random.default_rng(0).normal(size=(50002, 64))

        def clip():
            assert clip_gradients(store, 1.0) < 1.0
            return params._local.buffer.size

        assert in_a_fresh_thread(clip) <= 2 * ADAM_BLOCK

    def test_rejects_nonfinite_and_bad_norm(self):
        store = make_store({"w": np.zeros(2)})
        store["w"].grad = np.array([1.0, np.nan])
        with pytest.raises(NumericError, match="w"):
            clip_gradients(store, 10.0)
        store["w"].grad = np.ones(2)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError):
                clip_gradients(store, bad)
        assert np.array_equal(store["w"].grad, np.ones(2))

    def test_inf_norm_never_clips(self):
        store = make_store({"w": np.zeros(2)})
        store["w"].grad = np.array([1e200, -1e200])  # the sum of squares overflows
        assert clip_gradients(store, math.inf) == 1.0
        assert np.array_equal(store["w"].grad, [1e200, -1e200])


@pytest.fixture(params=[1, 2, 3])
def worker_count(request, monkeypatch, fresh_pool):
    """The sweeps' worker count set to 1, 2 and 3, whatever the host has, with
    a pool of that size; returns it with the list of piece counts
    ``params.run`` is given."""
    monkeypatch.setattr(pool, "workers", lambda: request.param)
    calls = []
    monkeypatch.setattr(params, "run", lambda pieces: calls.append(len(pieces)) or pool.run(pieces))
    return request.param, calls


class TestWorkerCount:
    """The optimizer's sweeps give the same bits at every worker count."""

    def test_adam_bits_do_not_depend_on_it(self, worker_count):
        count, calls = worker_count
        TestAdam().test_bitwise_equal_to_whole_array_update()
        assert max(calls) == count  # the sweeps over every shape did split

    @pytest.mark.parametrize("max_norm", [10.0, 1e-3, 1e6])
    def test_clip_bits_do_not_depend_on_it(self, worker_count, max_norm):
        _, calls = worker_count
        TestClip().test_bitwise_equal_to_whole_array_clip(max_norm)
        assert calls == []  # the norm is summed on the calling thread

    def test_buffers_are_kept_between_calls(self, worker_count, monkeypatch):
        # a fresh pool, whose threads hold no buffer yet; each sweeping thread
        # keeps its own from the first step to the second
        count, _ = worker_count
        calls, scratch = [], params._scratch

        def recorded(size):
            buf = scratch(size)
            calls.append((threading.current_thread(), buf))
            return buf

        monkeypatch.setattr(params, "_scratch", recorded)
        store = make_store({"table": np.zeros((50002, 64))})
        store["table"].grad = np.random.default_rng(0).normal(size=(50002, 64))

        def two_steps():
            steps = []
            for _ in range(2):
                calls.clear()
                clip_gradients(store, 1.0)
                adam_step(store)
                steps.append(list(calls))
            return steps

        first, second = in_a_fresh_thread(two_steps)
        kept = {thread: buf.base for thread, buf in first}
        assert len({id(b) for b in kept.values()}) == count and all(b.size == 2 * ADAM_BLOCK for b in kept.values())
        assert second and all(thread in kept and buf.base is kept[thread] for thread, buf in second)

    def test_many_threads_update_every_block_once(self, monkeypatch, fresh_pool):
        # more threads than CPUs, switching as often as the interpreter allows:
        # a block updated twice or skipped would move the weights off the oracle
        monkeypatch.setattr(pool, "workers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = np.random.default_rng(5)
            shapes = [(ADAM_BLOCK // 4,)] * 40 + [(3, ADAM_BLOCK + 7)]
            store = make_store({f"p{i}": rng.normal(size=s) for i, s in enumerate(shapes)})
            oracle = [[store[f"p{i}"].data.copy(), np.zeros(s), np.zeros(s)] for i, s in enumerate(shapes)]
            for step in (1, 2, 3):
                for i, s in enumerate(shapes):
                    g = rng.normal(size=s)
                    store[f"p{i}"].grad = g
                    p, m, v = oracle[i]
                    whole_array_adam(p, g, m, v, step, 0.001, 0.9, 0.999, 1e-8)
                done = threading.Thread(target=adam_step, args=(store,))
                done.start()
                done.join(timeout=60)
                assert not done.is_alive()
                for i, (p, m, v) in enumerate(oracle):
                    assert np.array_equal(store[f"p{i}"].data, p), (i, step)
                    assert np.array_equal(store._adam_m[f"p{i}"], m), (i, step)
        finally:
            sys.setswitchinterval(interval)
        assert pool._pool._max_workers == 8  # the sweeps had eight threads


class TestWorkerErrors:
    def test_errstate_reaches_the_pool_threads(self, sweeps_on_pool_threads):
        # a pool thread without the caller's errstate would only warn
        store = make_store({"table": np.zeros((4 * ADAM_BLOCK,))})
        store["table"].grad = np.full(4 * ADAM_BLOCK, 10.0)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                adam_step(store, lr=1e308)
        # the pool is free again: a later sweep runs and keeps its bits
        TestAdam().test_bitwise_equal_to_whole_array_update()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal down to the sign of zero, which ``np.array_equal`` ignores."""
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


# first moments and values of every kind: signed zeros, subnormals, normals
SIGNED = [s * x for x in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-8, 0.3, 7.0, 1e150) for s in (1.0, -1.0)]
# second moments are sums of squares from +0.0: never negative, never -0.0
SQUARES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-16, 0.09, 49.0]


@pytest.fixture
def early_starts(monkeypatch):
    """The early updates ``early_adam_step`` hands the pool, counted."""
    starts = []
    monkeypatch.setattr(params, "start", lambda piece: starts.append(piece) or pool.start(piece))
    return starts


class TestEarlyStep:
    """``early_adam_step``: the table's unreached blocks, updated on the pool
    (two or three workers) or inside ``adam_step`` (one), keep the dense bits."""

    @pytest.mark.parametrize("step", [1, 150])
    def test_zero_gradient_rule_has_the_dense_bits(self, worker_count, early_starts, step):
        count, _ = worker_count
        m, v, p = (np.resize(a, (4096, 64)) for a in np.array(list(itertools.product(SIGNED, SQUARES, SIGNED))).T)
        for a in (m, p):  # each combination's -0.0 and subnormals fall in the table
            assert (np.signbit(a) & (a == 0.0)).any() and ((a != 0.0) & (np.abs(a) < 2.2250738585072014e-308)).any()
        store = make_store({"table": p, "w": np.ones(5)})
        store.load_adam_state({"step": step - 1, "m": {"table": m, "w": np.zeros(5)},
                               "v": {"table": v, "w": np.zeros(5)}})
        rows = [0, 511, 512, 3000]  # blocks 0, 1 and 5 of 8
        g = np.zeros(p.shape)
        g[rows] = np.random.default_rng(2).normal(size=(len(rows), 64))
        hyper = dict(lr=0.003, beta1=0.85, beta2=0.995, eps=1e-7)
        p, m, v = p.copy(), m.copy(), v.copy()
        whole_array_adam(p, g, m, v, step, **hyper)
        with early_adam_step(store, "table", rows, **hyper):
            store["table"].grad = g
            store["w"].grad = np.ones(5)
            adam_step(store, **hyper)
        state = store.adam_state()
        assert same_bits(store["table"].data, p)
        assert same_bits(state["m"]["table"], m)
        assert same_bits(state["v"]["table"], v)
        assert len(early_starts) == (count > 1)

    def test_norm_and_clip_skip_unreached_blocks(self, worker_count):
        rng = np.random.default_rng(3)
        # 100 wide: rows 327 and 1310 alone reach blocks 0 and 1, and 3 and 4,
        # across the blocks' edges; 2999 ends the last, short block
        rows = [327, 1310, 2999]
        for max_norm in (1e-3, 1e6):
            g = np.zeros((3000, 100))
            g[rows] = rng.normal(size=(len(rows), 100))
            other = rng.normal(size=7)
            store = make_store({"table": np.zeros(g.shape), "w": np.zeros(7)})
            with early_adam_step(store, "table", rows):
                store["table"].grad, store["w"].grad = g.copy(), other.copy()
                assert store.grad_norm() == float(np.sqrt(float((g * g).sum()) + float((other * other).sum())))
                expected = [g, other]
                factor = clip_gradients(store, max_norm)
                assert factor == whole_array_clip(expected, max_norm)
                assert (factor < 1.0) == (max_norm < 1.0)
                assert same_bits(store["table"].grad, g) and same_bits(store["w"].grad, other)
                adam_step(store)

    def test_a_table_no_row_reaches_adds_nothing(self):
        # the table's gradient is never read: NaN there would poison any pass
        other = np.random.default_rng(4).normal(size=7)
        store = make_store({"table": np.zeros((3000, 100)), "w": np.zeros(7)})
        with early_adam_step(store, "table", []):
            store["table"].grad, store["w"].grad = np.full((3000, 100), np.nan), other.copy()
            assert store.grad_norm() == float(np.sqrt(float((other * other).sum())))

    def test_adam_step_must_match_the_early_step(self):
        store = make_store({"table": np.zeros((3000, 100))})
        store["table"].grad = np.zeros((3000, 100))
        with early_adam_step(store, "table", [1], lr=0.01):
            with pytest.raises(ConfigError, match="early step"):
                adam_step(store, lr=0.02)
        with pytest.raises(ShapeError, match="'table'"):
            with early_adam_step(store, "table", [3000]):
                pass
