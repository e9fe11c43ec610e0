import multiprocessing
import threading
import warnings

import numpy as np
import pytest

from knewimp import lanes
from knewimp import score as score_mod
from knewimp.imputer import WgfConfig, knewimp
from knewimp.kernel import KernelConfig, gram_matmul
from knewimp.score import DsmConfig, TrainingDivergence, forward, init_network, train
from knewimp.tabular import from_complete


def blas_thread_counts():
    """The thread count of every OpenBLAS loaded in the process."""
    return [get() for get, _ in lanes._openblas()]


@pytest.fixture
def blas_threads():
    """Every OpenBLAS at 2 threads for the test, so a count left at the
    lanes' 1 shows; the counts found are restored afterwards. Yields a
    reader of the current counts."""
    found = lanes._openblas()
    if not found:
        pytest.skip("no OpenBLAS thread setter in this process")
    before = [get() for get, _ in found]
    for _, set_ in found:
        set_(2)
    yield blas_thread_counts
    for (_, set_), count in zip(found, before):
        set_(count)


def serial_run(fn, blocks):
    """lanes.run with each lane on the caller, one after the other, under
    the same one-thread pin; block c still goes to lane c % 2."""
    if len(blocks) < 2:
        return [fn(0, blocks)]
    with lanes._pinned():
        return [fn(k, blocks[k::2]) for k in range(2)]


class TestRun:
    def test_second_lane_runs_on_a_thread_that_is_joined(self, blas_threads):
        idents = {}
        alive = threading.active_count()
        lanes.run(lambda k, _: idents.setdefault(k, threading.get_ident()), range(2))
        assert idents[0] == threading.get_ident() != idents[1]
        assert threading.active_count() == alive
        assert blas_threads() == [2] * len(blas_threads())

    @pytest.mark.parametrize("blocks, dealt", [
        (range(7), [[0, 2, 4, 6], [1, 3, 5]]),
        (range(0, 700, 256), [[0, 512], [256]]),
        (range(5, 6), [[5]]),
    ])
    def test_block_c_reaches_lane_c_mod_2(self, blocks, dealt):
        assert lanes.run(lambda k, own: (k, list(own)), blocks) == list(enumerate(dealt))

    def test_results_come_back_in_lane_order(self, blas_threads):
        # Lane 0 returns only after lane 1 has finished.
        done = threading.Event()

        def fn(k, _):
            if k == 1:
                done.set()
            else:
                assert done.wait(timeout=30)
            return f"lane {k}"

        assert lanes.run(fn, range(4)) == ["lane 0", "lane 1"]

    def test_one_lane_runs_on_the_caller_unpinned(self, blas_threads):
        # Zero blocks or one: fn(0, blocks) alone, and its result alone.
        for blocks in (range(0), range(1), range(0, 200, 256)):
            seen = []

            def fn(k, own):
                seen.append((k, own, threading.get_ident(), blas_threads()))
                return "only"

            assert lanes.run(fn, blocks) == ["only"]
            assert seen == [(0, blocks, threading.get_ident(), [2] * len(blas_threads()))]

    def test_lanes_run_in_order_without_openblas(self, monkeypatch):
        monkeypatch.setattr(lanes, "_openblas", lambda: ())
        seen = []

        def fn(k, own):
            seen.append((k, list(own), threading.get_ident()))
            return k

        assert lanes.run(fn, range(3)) == [0, 1]
        me = threading.get_ident()
        assert seen == [(0, [0, 2], me), (1, [1], me)]

    def test_second_lane_error_reaches_the_caller(self, blas_threads):
        def fn(k, _):
            if k == 1:
                raise KeyError("lane 1")

        alive = threading.active_count()
        with pytest.raises(KeyError, match="lane 1"):
            lanes.run(fn, range(2))
        assert threading.active_count() == alive
        assert blas_threads() == [2] * len(blas_threads())

    def test_nested_pins_restore_once(self, blas_threads):
        n = len(blas_threads())
        with lanes._pinned() as found:
            assert found and blas_threads() == [1] * n
            with lanes._pinned():
                assert blas_threads() == [1] * n
            assert blas_threads() == [1] * n
        assert blas_threads() == [2] * n


class TestEach:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the CPUs the process may run on to n, and records the width
        of every pool lanes makes."""
        widths = []

        class Recorded(lanes.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(lanes, "ThreadPoolExecutor", Recorded)

        def set_cpus(n):
            monkeypatch.setattr(lanes.os, "sched_getaffinity", lambda pid: set(range(n)),
                                raising=False)
            monkeypatch.setattr(lanes.os, "cpu_count", lambda: n)
            return widths

        return set_cpus

    def test_results_come_back_in_item_order(self, cpus):
        # Each item returns only after the item behind it has, so the items
        # finish in reverse order.
        cpus(3)
        done = [threading.Event() for _ in range(3)]

        def fn(i):
            if i < 2:
                assert done[i + 1].wait(timeout=30)
            done[i].set()
            return f"item {i}"

        assert lanes.each(fn, range(3)) == ["item 0", "item 1", "item 2"]

    @pytest.mark.parametrize("n_items, n_cpus, width", [(3, 1, 1), (3, 2, 2), (2, 4, 2)])
    def test_pool_is_as_wide_as_items_or_cpus(self, cpus, n_items, n_cpus, width):
        widths = cpus(n_cpus)
        idents = lanes.each(lambda _: threading.get_ident(), range(n_items))
        assert widths == [width]
        assert threading.get_ident() not in idents

    def test_cpu_count_without_affinity(self, cpus, monkeypatch):
        widths = cpus(2)
        monkeypatch.delattr(lanes.os, "sched_getaffinity", raising=False)
        assert lanes.each(abs, [-1, -2, -3]) == [1, 2, 3]
        assert widths == [2]

    def test_blas_at_one_thread_inside_and_restored_after(self, blas_threads):
        n = len(blas_threads())
        alive = threading.active_count()
        assert lanes.each(lambda _: blas_threads(), range(2)) == [[1] * n] * 2
        assert blas_threads() == [2] * n
        assert threading.active_count() == alive

    def test_first_failing_item_error_reaches_the_caller(self, blas_threads, cpus):
        cpus(3)

        def fn(i):
            if i:
                raise KeyError(f"item {i}")
            return i

        alive = threading.active_count()
        with pytest.raises(KeyError, match="item 1"):
            lanes.each(fn, range(3))
        assert blas_threads() == [2] * len(blas_threads())
        assert threading.active_count() == alive

    def test_one_item_or_none(self, cpus):
        widths = cpus(2)
        assert lanes.each(lambda x: 2 * x, [5]) == [10]
        assert lanes.each(lambda x: 2 * x, []) == []
        assert widths == [1, 1]


def lane_workload():
    """train(), forward() and gram_matmul() at shapes that deal work to both
    lanes: 700 rows are three chunks of 256, 300 rows three tiles of 128.
    train() runs full-batch on the 700 rows, and on minibatches of
    _BATCH_ROWS drawn from 1500 rows."""
    rng = np.random.default_rng(64)
    x = rng.standard_normal((700, 5))
    net = init_network(5, 32, seed=1)
    trained, history = train(net, x, DsmConfig(epochs=3), seed=2)
    batched, batched_history = train(net, rng.standard_normal((1500, 5)),
                                     DsmConfig(epochs=3), seed=3)
    xg, rhs = rng.standard_normal((300, 5)), rng.standard_normal((300, 10))
    return (trained.parameters() + batched.parameters(), history + batched_history,
            forward(net, x), gram_matmul(xg, rhs, 1.3))


def test_concurrent_and_serial_lanes_are_bit_identical(monkeypatch):
    assert 1500 > score_mod._BATCH_ROWS > 700 > 2 * score_mod._CHUNK_ROWS
    concurrent = lane_workload()
    monkeypatch.setattr(lanes, "run", serial_run)
    serial = lane_workload()
    (c_params, c_hist, *c_arrays), (s_params, s_hist, *s_arrays) = concurrent, serial
    assert c_hist == s_hist
    for a, b in zip(c_params + c_arrays, s_params + s_arrays):
        assert np.array_equal(a, b)


class TestThreadCountRestored:
    def test_after_train_and_knewimp(self, blas_threads):
        n = len(blas_threads())
        rng = np.random.default_rng(65)
        train(init_network(4, 16, seed=0), rng.standard_normal((600, 4)),
              DsmConfig(epochs=2), seed=0)
        assert blas_threads() == [2] * n
        truth = rng.standard_normal((300, 3))
        ds = from_complete(truth, (rng.random((300, 3)) > 0.4).astype(float))
        assert (ds.mask == 0.0).any(axis=1).sum() > 128  # two Gram tiles
        kcfg = KernelConfig(bandwidth=1.0, use_median_heuristic=False)
        knewimp(ds, DsmConfig(epochs=2), kcfg, WgfConfig(num_steps=2, num_loops=1),
                hidden=16, seed=0)
        assert blas_threads() == [2] * n

    def test_after_divergence_in_the_second_lane(self, blas_threads, monkeypatch):
        # Rows 7-13 are the second chunk of 7, lane 1's only one.
        monkeypatch.setattr(score_mod, "_CHUNK_ROWS", 7)
        x = np.random.default_rng(66).standard_normal((20, 2))
        x[7:14] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence, match="training diverged at epoch 0"):
                train(init_network(2, 4, seed=0), x, DsmConfig(epochs=3), seed=0)
        assert blas_threads() == [2] * len(blas_threads())

    def test_after_an_error_in_the_second_lane(self, blas_threads, monkeypatch):
        chunk = score_mod._dsm_chunk

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("injected in lane 1")
            return chunk(*args)

        monkeypatch.setattr(score_mod, "_dsm_chunk", failing)
        x = np.random.default_rng(67).standard_normal((600, 3))
        with pytest.raises(RuntimeError, match="injected in lane 1"):
            train(init_network(3, 8, seed=0), x, DsmConfig(epochs=2), seed=0)
        assert blas_threads() == [2] * len(blas_threads())


def _train_and_send(conn, net, x):
    conn.send(train(net, x, DsmConfig(epochs=3), seed=0)[1])
    conn.close()


def test_fork_child_trains_after_the_parent_used_lanes(monkeypatch):
    # No lane thread or pool outlives a call, so a child forked after the
    # parent ran its lanes starts and joins lanes of its own.
    monkeypatch.setattr(score_mod, "_CHUNK_ROWS", 16)
    net = init_network(3, 16, seed=0)
    x = np.random.default_rng(68).standard_normal((64, 3))
    want = train(net, x, DsmConfig(epochs=3), seed=0)[1]
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_train_and_send, args=(send, net, x))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not finish train() within 60 s"
        assert recv.recv() == want
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
