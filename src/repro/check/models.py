"""Trivially-correct reference models for the model-checked subsystems.

A model here must be *obviously* right — simple enough that its own
correctness argument fits in its docstring — because the stateful drivers
in ``tests/model/`` compare the real implementation against it on every
operation.  Keep models dumb: deques, dicts and literal transition tables,
never a second copy of the production algorithm.
"""

from __future__ import annotations

__all__ = ["ServeModel"]


# ---------------------------------------------------------------------------
# serve admission / credit-window / drain
# ---------------------------------------------------------------------------
#: connection states
NEW = "new"  # socket open, HELLO not yet accepted
OPEN = "open"  # admitted, session live
CLOSED = "closed"  # terminal

#: the admission decision table: (server draining?, at capacity?, hello kind)
#: -> refusal code, or None for WELCOME.  Order mirrors MappingServer._admit:
#: draining wins over capacity wins over payload validation.
ADMISSION = {
    (True, False): lambda kind: "draining",
    (True, True): lambda kind: "draining",
    (False, True): lambda kind: "at-capacity",
    (False, False): lambda kind: {
        "ok": None,
        "bad-version": "bad-hello",
        "no-tenant": "bad-hello",
        "bad-threads": "bad-hello",
        "unknown-key": "bad-hello",
        "too-large": "too-large",
    }[kind],
}


class ServeModel:
    """Explicit transition table for the serve daemon's control plane.

    Models exactly what the admission/credit/drain docstrings promise:

    * admission refuses with the codes of :data:`ADMISSION` (draining
      beats at-capacity beats payload validation);
    * an admitted session is granted ``credit_window`` credits and the
      server enforces ``2 * credit_window`` in-flight events — one more
      event is a protocol error;
    * every accepted batch of *n* events is eventually credited back with
      exactly *n* (flushes credit 0), FIFO per session, none lost;
    * BYE and drain end a session with a SUMMARY whose event count equals
      everything accepted; after drain starts, no session is admitted.

    Detection content (MAPPING payloads) is out of scope — the digest
    parity suites in ``tests/test_serve*.py`` pin that; this model pins
    the protocol state machine around it.
    """

    WINDOW_SLACK = 2

    def __init__(self, max_sessions: int, credit_window: int) -> None:
        self.max_sessions = max_sessions
        self.credit_window = credit_window
        self.draining = False
        #: client id -> state
        self.conns: "dict[int, str]" = {}
        #: client id -> events accepted but not yet credited
        self.outstanding: "dict[int, int]" = {}
        #: client id -> total events accepted over the session's life
        self.total_events: "dict[int, int]" = {}

    @property
    def live(self) -> int:
        return sum(1 for s in self.conns.values() if s == OPEN)

    def admit(self, cid: int, kind: str = "ok") -> "str | None":
        """HELLO transition: returns the refusal code, None for WELCOME."""
        at_capacity = self.live >= self.max_sessions
        code = ADMISSION[(self.draining, at_capacity)](kind)
        if code is None:
            self.conns[cid] = OPEN
            self.outstanding[cid] = 0
            self.total_events[cid] = 0
        else:
            self.conns[cid] = CLOSED
        return code

    def events(self, cid: int, n: int) -> "str | None":
        """EVENTS transition: 'overrun' past the enforced window, else ok."""
        assert self.conns[cid] == OPEN
        self.outstanding[cid] += n
        if self.outstanding[cid] > self.WINDOW_SLACK * self.credit_window:
            # the reader stops at the overrun; queued batches still drain
            self.conns[cid] = CLOSED
            return "overrun"
        self.total_events[cid] += n
        return None

    def credited(self, cid: int, n: int) -> None:
        """CREDIT observed: the server returned *n* events of window."""
        self.outstanding[cid] -= n

    def bye(self, cid: int) -> int:
        """BYE transition: returns the expected SUMMARY event count."""
        assert self.conns[cid] == OPEN
        self.conns[cid] = CLOSED
        return self.total_events[cid]

    def drain(self) -> "dict[int, int]":
        """Drain transition: expected SUMMARY counts of every open session."""
        self.draining = True
        ended = {
            cid: self.total_events[cid]
            for cid, state in self.conns.items()
            if state == OPEN
        }
        for cid in ended:
            self.conns[cid] = CLOSED
        return ended
