"""``map_chunks``: contiguous runs of chunks on plain threads, joined in
chunk order, with the lowest failing chunk's exception raised."""

import sys
import threading

import pytest

from bellsim.rng import CHUNK, map_chunks


def bounds(chunk_index, start, stop):
    return chunk_index, start, stop


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 10 * CHUNK + 5])
@pytest.mark.parametrize("workers", [1, 2, 3, 16])
def test_results_in_chunk_order_for_any_worker_count(n, workers):
    want = [(c, c * CHUNK, min(n, (c + 1) * CHUNK)) for c in range(-(-n // CHUNK))]
    assert map_chunks(bounds, n, workers=workers) == want


def test_more_workers_than_cores_under_fast_switching():
    """Every chunk's result lands in its slot while 8 threads switch every
    microsecond; the runs finish within a minute."""
    want = [sum(range(c * CHUNK, (c + 1) * CHUNK)) for c in range(37)]
    got = []

    def runs():
        for _ in range(20):
            got.append(map_chunks(lambda c, start, stop: sum(range(start, stop)),
                                  37 * CHUNK, workers=8))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=runs, daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [want] * 20


class ChunkFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 10, 16])
def test_lowest_failing_chunk_raises_at_every_worker_count(workers):
    calls = []

    def fn(chunk_index, start, stop):
        calls.append(chunk_index)
        if chunk_index in (3, 7):
            raise ChunkFailed(chunk_index)
        return chunk_index

    with pytest.raises(ChunkFailed) as excinfo:
        map_chunks(fn, 10 * CHUNK, workers=workers)
    assert excinfo.value.args == (3,)
    assert 3 in calls
