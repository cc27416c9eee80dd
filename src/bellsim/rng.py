"""Deterministic, parallel-safe random number streams.

Every stochastic operation takes a single integer master seed.  Work is cut
into fixed-size chunks and each chunk gets an independent generator derived
from ``SeedSequence(master_seed, spawn_key=(purpose, *labels, chunk_index))``.
A trial's randomness is therefore a pure function of the master seed, the
stream labels and the trial index, so chunks may be computed serially or on
threads, in any grouping, and the assembled result is bit-identical.

``map_chunks`` hands each of its worker threads one contiguous run of
chunks, which the thread computes in order, and joins the runs in chunk
order.  Each chunk is short Python and numpy work that holds the
interpreter lock for most of its time, so one run per thread keeps the
threads from handing the lock and the work back and forth chunk by chunk.

CHUNK is frozen: changing it changes every generated dataset.
"""

from __future__ import annotations

import threading

import numpy as np

CHUNK = 4096

# The purpose tag leads every spawn key; stream generation's tag is frozen
# with CHUNK.
PURPOSE_STREAMS = 2


def chunk_generator(master_seed: int, labels: tuple[int, ...], chunk_index: int) -> np.random.Generator:
    """Independent generator for one chunk of one labelled stream."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(*labels, chunk_index))
    return np.random.Generator(np.random.PCG64(seq))


def n_chunks(n: int) -> int:
    return (n + CHUNK - 1) // CHUNK


def map_chunks(fn, n: int, workers: int = 1) -> list:
    """Apply ``fn(chunk_index, start, stop)`` to every chunk of an n-item range.

    Results come back ordered by chunk index for any ``workers`` count.
    With several workers, thread k computes the k-th of ``workers``
    contiguous runs of chunks, in order, and stops at its first exception;
    the exception of the lowest failing chunk is raised, the one a serial
    pass would raise.
    """
    chunks = n_chunks(n)
    workers = max(1, min(workers, chunks))
    # Run k covers chunks edges[k] .. edges[k + 1] - 1.
    edges = [chunks * k // workers for k in range(workers + 1)]
    results = [None] * workers
    failures = [None] * workers

    def run(k):
        out = []
        try:
            for c in range(edges[k], edges[k + 1]):
                out.append(fn(c, c * CHUNK, min(n, (c + 1) * CHUNK)))
        except BaseException as exc:      # re-raised below, in the caller's thread
            failures[k] = exc
        results[k] = out

    if workers == 1:
        run(0)
    else:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for failure in failures:
        if failure is not None:
            raise failure
    return [result for out in results for result in out]
