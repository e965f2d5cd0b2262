"""Host operating-system substrate.

Models the kernel half of the paper's I/O datapath (Fig. 3):

* :mod:`repro.oskernel.cache` -- the write-back page cache with dirty
  aging, the substrate the buffered-write predictor scans.
* :mod:`repro.oskernel.flusher` -- the periodic flusher thread with the
  two Linux flush conditions (``tau_expire`` age, ``tau_flush`` volume).
* :mod:`repro.oskernel.iopath` -- the I/O dispatcher: buffered writes go
  through the cache (with dirty throttling); ``O_SYNC``-style direct
  writes bypass it; reads are served cache-first.
* :mod:`repro.oskernel.files` -- a minimal extent-based file layer so
  file-oriented workloads (Postmark, Filebench) generate realistic
  create/append/delete traffic including journal-style direct writes.
"""

from repro.oskernel.cache import PageCache
from repro.oskernel.flusher import FlusherThread
from repro.oskernel.iopath import IoDispatcher, WriteTrafficStats
from repro.oskernel.files import SimpleFileSystem, FsError

__all__ = [
    "PageCache",
    "FlusherThread",
    "IoDispatcher",
    "WriteTrafficStats",
    "SimpleFileSystem",
    "FsError",
]
