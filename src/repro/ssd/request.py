"""Host I/O requests.

An :class:`IoRequest` addresses a contiguous LPN extent.  The ``kind``
records how the request entered the device -- directly from the
application (``DIRECT``), from the page-cache flusher (``WRITEBACK``) or
as a read/trim -- which the experiments use to attribute traffic (the
paper's Table 1 write-type breakdown) and which the predictors use to
separate their two estimation paths.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, List, Optional

_request_ids = itertools.count()


class IoKind(enum.Enum):
    """How a request entered the device."""

    READ = "read"
    DIRECT_WRITE = "direct_write"      #: O_SYNC / O_DIRECT application write
    WRITEBACK = "writeback"            #: page-cache flusher write
    TRIM = "trim"


#: Hoisted members: attribute access on an ``Enum`` class goes through a
#: descriptor and costs an order of magnitude more than a global load.
READ = IoKind.READ
DIRECT_WRITE = IoKind.DIRECT_WRITE
WRITEBACK = IoKind.WRITEBACK
TRIM = IoKind.TRIM


class IoRequest:
    """One host command against a contiguous logical extent.

    Attributes:
        kind: request class, see :class:`IoKind`.
        lpn: first logical page number.
        page_count: extent length in pages.
        on_complete: optional callback invoked with this request when the
            device finishes service.
        request_id: process-wide serial number, in construction order.
        submit_time / start_time / complete_time: filled by the device for
            latency accounting (integer nanoseconds; -1 = not yet).
    """

    __slots__ = ("kind", "lpn", "page_count", "on_complete", "request_id",
                 "submit_time", "start_time", "complete_time")

    def __init__(
        self,
        kind: IoKind,
        lpn: int,
        page_count: int,
        on_complete: Optional[Callable[["IoRequest"], None]] = None,
    ) -> None:
        if page_count <= 0:
            raise ValueError(f"page_count must be positive, got {page_count}")
        if lpn < 0:
            raise ValueError(f"lpn must be >= 0, got {lpn}")
        self.kind = kind
        self.lpn = lpn
        self.page_count = page_count
        self.on_complete = on_complete
        self.request_id = next(_request_ids)
        self.submit_time = -1
        self.start_time = -1
        self.complete_time = -1

    @property
    def lpns(self) -> List[int]:
        """The logical pages touched, in order."""
        return list(range(self.lpn, self.lpn + self.page_count))

    @property
    def is_write(self) -> bool:
        kind = self.kind
        return kind is DIRECT_WRITE or kind is WRITEBACK

    def latency(self) -> int:
        """Submit-to-complete latency; valid after completion."""
        if self.complete_time < 0 or self.submit_time < 0:
            raise ValueError("request not completed yet")
        return self.complete_time - self.submit_time

    def bytes_size(self, page_size: int) -> int:
        return self.page_count * page_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<IoRequest #{self.request_id} {self.kind.value} "
            f"lpn={self.lpn}+{self.page_count}>"
        )
