"""Generator-based sequential processes.

Closed-loop workload actors are most naturally written as straight-line
code: *issue a write, wait for completion, think, repeat*.  :class:`Process`
lets such code be an ordinary Python generator that ``yield``\\ s commands
to the simulator:

* ``yield Timeout(delay)`` -- sleep for ``delay`` ticks.
* ``yield WaitFor()`` -- park until something calls
  :meth:`Process.wake` (e.g. an I/O-completion callback).  ``wake`` may
  carry a value, which becomes the result of the ``yield``.

Example::

    def actor(sim, device):
        while True:
            waiter = WaitFor()
            device.submit(req, on_complete=waiter.wake)
            yield waiter                 # blocks until completion
            yield Timeout(10 * MILLISECOND)   # think time

    Process(sim, actor(sim, device)).start()
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.engine import Simulator


class ProcessExit(Exception):
    """Thrown into a generator to terminate it from outside."""


class Timeout:
    """Yield command: sleep for ``delay`` ticks."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class WaitFor:
    """Yield command: park the process until :meth:`wake` is called.

    A ``WaitFor`` is single-shot: it connects exactly one ``yield`` to one
    ``wake``.  Waking before the process yields is allowed (the value is
    stored and the yield returns immediately); waking twice is an error.
    """

    __slots__ = ("_process", "_value", "_woken", "_consumed")

    def __init__(self) -> None:
        self._process: Optional["Process"] = None
        self._value: Any = None
        self._woken = False
        self._consumed = False

    @property
    def woken(self) -> bool:
        return self._woken

    def wake(self, value: Any = None) -> None:
        """Resume the waiting process, passing ``value`` to its yield."""
        if self._woken:
            raise RuntimeError("WaitFor.wake() called twice")
        self._woken = True
        self._value = value
        if self._process is not None:
            process = self._process
            self._process = None
            process._resume_soon(self._value)

    def _attach(self, process: "Process") -> bool:
        """Bind to a process; returns True if already woken (no parking)."""
        if self._consumed:
            raise RuntimeError("WaitFor yielded twice")
        self._consumed = True
        if self._woken:
            return True
        self._process = process
        return False


class Process:
    """Drives a generator against a :class:`Simulator`.

    The generator advances inside simulator events, so everything it does
    happens at well-defined simulated instants.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, None],
        *,
        name: Optional[str] = None,
        on_exit: Optional[Callable[["Process"], None]] = None,
    ) -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._on_exit = on_exit
        self._finished = False
        self._started = False
        # Per process, not per event: the three names its events carry
        # and the callback behind every step that sends no value.
        self._start_name = f"{self.name}.start"
        self._resume_name = f"{self.name}.resume"
        self._timeout_name = f"{self.name}.timeout"
        self._advance = self._step

    @property
    def finished(self) -> bool:
        return self._finished

    def start(self, delay: int = 0) -> "Process":
        """Schedule the first step of the process ``delay`` ticks from now."""
        if self._started:
            raise RuntimeError(f"process {self.name} already started")
        self._started = True
        self.sim.schedule(delay, self._advance, name=self._start_name)
        return self

    def kill(self) -> None:
        """Terminate the generator by throwing :class:`ProcessExit` into it."""
        if self._finished:
            return
        try:
            self._generator.throw(ProcessExit())
        except (ProcessExit, StopIteration):
            pass
        self._finish()

    # ------------------------------------------------------------------
    def _resume_soon(self, value: Any) -> None:
        """Resume at the current instant (still via the event loop)."""
        self.sim.schedule(
            0,
            self._advance if value is None else (lambda: self._step(value)),
            name=self._resume_name,
        )

    def _step(self, send_value: Any = None) -> None:
        if self._finished:
            return
        try:
            command = self._generator.send(send_value)
        except StopIteration:
            self._finish()
            return
        # Exact types first (all a workload ever yields); isinstance only
        # to admit a subclass or reject the command.
        kind = type(command)
        if kind is Timeout or (kind is not WaitFor and isinstance(command, Timeout)):
            self.sim.schedule(command.delay, self._advance, name=self._timeout_name)
        elif kind is WaitFor or isinstance(command, WaitFor):
            if command._attach(self):
                # Already woken before we parked: resume with its value now.
                self._resume_soon(command._value)
        else:
            raise TypeError(
                f"process {self.name} yielded {command!r}; expected Timeout or WaitFor"
            )

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self._on_exit is not None:
            self._on_exit(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else ("running" if self._started else "new")
        return f"<Process {self.name} {state}>"
