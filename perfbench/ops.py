"""One benchmark op: a ``termrank`` CLI call made in-process, under a deadline.

Two limits apply to an op:

- the budget, from the ROADMAP's north star: at the cap ``check`` answers
  in under 1 s and ``solve`` "in a few seconds", taken as 3 s.  A fuzz op
  checks and cross-checks one instance of at most 6x6, within the cap, and
  gets the check budget.  An op over its budget still counts when it
  answers correctly; the run prints how many ops went over;
- the deadline, ten times the budget, which only stops a runaway op.  An op
  still running at its deadline is stopped by ``SIGALRM`` and fails as a
  timeout.

The families that cannot answer within their budget on the seed code are
kept out of the timed rounds and run once per run at the budget instead
(``gen.GAPS``), so a timed op that fails is a new failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time
from dataclasses import dataclass, field

BUDGET_S = {"check": 1.0, "solve": 3.0, "fuzz": 1.0}
DEADLINE_S = {cmd: 10 * budget for cmd, budget in BUDGET_S.items()}

EXIT_FEASIBLE, EXIT_INFEASIBLE = 0, 1


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the program catches it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class OpResult:
    """What one op produced, before the correctness gate looks at it."""

    case: int  # index into the run's case list
    cmd: str
    elapsed: float
    rc: int | None = None
    stdout: str = ""
    error: str | None = None  # exception type name, or "timeout"
    cause: str | None = None  # set by the gate when the op failed
    wrong: bool = False  # set by the gate when the answer is wrong
    verdict: str | None = None  # set by the gate
    counters: dict = field(default_factory=dict)
    probe_ms: float | None = None  # the speed probe timed just before the op (run.py)

    @property
    def payload(self) -> dict | None:
        if self.rc not in (EXIT_FEASIBLE, EXIT_INFEASIBLE) or not self.stdout:
            return None
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None

    def own_time(self, speed: float = 1.0) -> float:
        """Seconds the op would take at the reference speed, in a run that
        went ``speed`` times slower.

        A timeout's time is the deadline's wall time at any speed.
        """
        return self.elapsed if self.cause == "timeout" else self.elapsed / speed

    def latency(self, speed: float = 1.0) -> float:
        """Seconds this op counts for in the latency figures.

        A failed op adds the deadline to its own time, so it ranks above
        every op that met the deadline and fixing it can only lower the
        figures.
        """
        own = self.own_time(speed)
        return own if self.cause is None else own + DEADLINE_S[self.cmd]


def run_op(main, argv: list[str], cmd: str, case: int, deadline: float | None = None) -> OpResult:
    """Call ``main(argv)`` with captured output; exceptions become the op's error.

    ``deadline`` defaults to the command's ``DEADLINE_S``.

    The op's time covers the ``main`` call alone, not the output capture or
    the alarm set-up around it.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, deadline or DEADLINE_S[cmd])
            start = time.perf_counter()
            try:
                rc = main(argv)
            finally:
                end = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "timeout"
    except Exception as exc:  # the op's failure is recorded, the run goes on
        error = type(exc).__name__
    finally:
        signal.signal(signal.SIGALRM, previous)
    return OpResult(case, cmd, end - start, rc, out.getvalue(), error)
