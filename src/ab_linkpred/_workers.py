"""Forked worker processes, the one place this package forks.

_fork_workers decides how many processes a job may run on, and _fork_map
runs [fn(i) for i in range(count)] on them, inputs inherited through fork.
An index is a batch of a forest's trees (model._train_forest) or a row
chunk of a completion step (predict._step). The result never depends on the
worker count. An error that fn raises in a worker is raised here, as if fn
had run in this process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from contextlib import suppress


def _fork_workers(row_trees: int, crossover: int) -> int:
    """Worker processes for a job of row_trees rows x trees; 1 means run it
    in this process.

    More than one only when row_trees reaches crossover, the platform
    reports usable CPUs (all such can fork), and only the main thread runs
    (forking a multi-threaded process is unsafe, and _fork_map sets a SIGINT
    handler); then one per usable CPU.
    """
    if row_trees < crossover or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() != 1 or threading.get_ident() != threading.main_thread().ident:
        return 1
    return len(os.sched_getaffinity(0))


def _fork_map(fn, count: int, workers: int) -> list:
    """[fn(i) for i in range(count)], computed in min(workers, count) forked
    processes.

    Worker w computes the indices i = w (mod workers) on inputs inherited
    through fork, sends its list once over a pipe and exits, so the result
    does not depend on the worker count; this process only collects the
    lists. A worker checks that its parent still runs before each index,
    and returns without sending once it is gone. One worker computes the
    indices here, without a fork. An Exception that fn raises in a worker
    is sent in place of the list and raised here; a worker that dies
    without sending raises ChildProcessError. Whatever ends the call (an
    error, a failed fork, Ctrl-C), the processes it started are stopped.
    """
    workers = min(workers, count)
    if workers <= 1:
        return [fn(i) for i in range(count)]

    def work(indices: range, writer) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent, which stops the workers
        share = []
        try:
            for i in indices:
                if os.getppid() != multiprocessing.parent_process().pid:
                    return  # the parent is gone, and nobody wants the share
                share.append(fn(i))
        except Exception as err:  # raised by the parent, with the message it would have had here
            share = err
        with suppress(BrokenPipeError):
            writer.send(share)

    out = [None] * count
    started = []  # (process, reader) per worker
    # A Ctrl-C while the workers are forked waits until each is recorded in
    # started: one raised inside Process.start could lose a forked worker.
    held = []
    previous = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
    try:
        for w in range(workers):
            reader, writer = multiprocessing.Pipe(duplex=False)
            args = (range(w, count, workers), writer)
            process = multiprocessing.get_context("fork").Process(target=work, args=args, daemon=True)
            process.start()
            started.append((process, reader))
            writer.close()
        signal.signal(signal.SIGINT, previous)
        if held:
            signal.raise_signal(signal.SIGINT)
        for w, (process, reader) in enumerate(started):
            try:
                share = reader.recv()
            except EOFError:
                process.join()
                raise ChildProcessError(f"a worker process died with exit code {process.exitcode}") from None
            if isinstance(share, Exception):
                raise share
            out[w::workers] = share
    finally:
        signal.signal(signal.SIGINT, previous)
        for process, reader in started:
            process.terminate()
            process.join()
            reader.close()
    return out
