"""Shared concurrency primitives for the multi-threaded serving path.

Concurrent serving threads (one per GPU, say) read the cache's
routing structures while the background :class:`~repro.core.refresher.Refresher`
mutates them.  The coordination contract is a classic reader/writer lock:

* **readers** (extraction planning, ``cache.lookup``, integrity scans)
  share the structures freely with each other;
* **writers** (refresh steps, placement swaps, rollbacks) get exclusive
  access, and are *preferred* — a waiting writer blocks new readers so a
  steady read load cannot starve a refresh forever.

The lock is reentrant per thread in both directions: a thread holding the
write lock may take it again (the refresher's rollback path re-enters
through ``restore_location_state``) and may also acquire the read lock
(``check_integrity`` runs read-side validation from inside a write
section).  Plain read reentrancy is supported too.
"""

from __future__ import annotations

import threading

__all__ = ["ReadWriteLock"]


class _Guard:
    """``with`` form of one acquire/release pair.  Stateless — the lock
    keeps the hold counts — so one guard serves every thread and nesting."""

    def __init__(self, lock: "ReadWriteLock", acquire, release) -> None:
        self._lock, self._acquire, self._release = lock, acquire, release

    def __enter__(self) -> "ReadWriteLock":
        self._acquire()
        return self._lock

    def __exit__(self, *exc_info) -> None:
        self._release()


class ReadWriteLock:
    """Writer-preferring reader/writer lock, reentrant per thread.

    ``acquire_read``/``release_read`` and ``acquire_write``/``release_write``
    are the primitive surface; the :meth:`read_locked` / :meth:`write_locked`
    context managers are what call sites should use.
    """

    def __init__(self) -> None:
        #: guards every field below; ``_cond`` waits and notifies on it.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        #: thread ident → read-hold count (readers currently inside).
        self._readers: dict[int, int] = {}
        #: ident of the thread holding the write lock, if any.
        self._writer: int | None = None
        self._writer_depth = 0
        #: writers parked waiting; positive blocks *new* readers.
        self._writers_waiting = 0
        self._read_guard = _Guard(self, self.acquire_read, self.release_read)
        self._write_guard = _Guard(self, self.acquire_write, self.release_write)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            # The writer may re-enter read-side (integrity checks inside a
            # refresh step); a thread already reading may nest freely.
            if self._writer == me or me in self._readers:
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._writers_waiting > 0:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            count = self._readers.get(me)
            if count is None:
                raise RuntimeError("release_read without matching acquire")
            if count == 1:
                del self._readers[me]
                if self._writers_waiting and not self._readers:
                    self._cond.notify_all()  # only a parked writer waits on readers
            else:
                self._readers[me] = count - 1

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                # Upgrading read → write deadlocks against other readers;
                # fail loudly instead of hanging the serving threads.
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._writer != me:
                raise RuntimeError("release_write by a non-holding thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Context-manager surface
    # ------------------------------------------------------------------
    def read_locked(self) -> _Guard:
        """``with lock.read_locked():`` — shared access."""
        return self._read_guard

    def write_locked(self) -> _Guard:
        """``with lock.write_locked():`` — exclusive access."""
        return self._write_guard
