"""Retry budgets: deadlines and capped exponential backoff with jitter.

:class:`RetryPolicy` is the declarative half (how many attempts, how the
backoff grows, the overall deadline); :class:`RetrySchedule` is its
per-call instantiation, owning the seeded jitter RNG and the deadline
clock.  The wire client builds one schedule per logical request, so a
request that retries three times draws three jittered backoffs from one
deterministic stream — reproducible under test, decorrelated in a fleet.

Server backoff hints (``Retry-After`` / ``retry_after_seconds``) are
honored by *raising* the computed backoff to the hint, never lowering it:
the server knows when it expects to have capacity again, and hammering it
earlier than that only deepens the brownout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.exceptions import DeadlineExceededError, ResilienceError
from repro.core.knobs import FINITE, INT, OPTIONAL_FINITE, OPTIONAL_INT, check


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries transient failures.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    call plus at most two retries.  ``deadline_seconds`` bounds the whole
    logical request including backoff sleeps; ``None`` means attempts are
    the only budget.
    """

    max_attempts: int = 3
    base_backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    #: Jitter fraction: each backoff is scaled by 1 ± jitter (seeded).
    jitter: float = 0.1
    deadline_seconds: float | None = None
    #: Seed of the jitter stream (None: derive from the default RNG).
    seed: int | None = None

    def __post_init__(self) -> None:
        for name, rule, at_least in (
                ("max_attempts", INT, 1), ("base_backoff_seconds", FINITE, 0),
                ("backoff_multiplier", FINITE, 1),
                ("max_backoff_seconds", FINITE, 0), ("jitter", FINITE, 0),
                ("deadline_seconds", OPTIONAL_FINITE, None),
                ("seed", OPTIONAL_INT, None)):
            object.__setattr__(self, name, check(
                getattr(self, name), rule, name, ResilienceError,
                at_least=at_least))
        if self.jitter >= 1:
            raise ResilienceError(
                f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ResilienceError(
                f"deadline_seconds must be positive when set, "
                f"got {self.deadline_seconds}")

    def schedule(self, rng, *, clock=time.monotonic) -> "RetrySchedule":
        """One per-request schedule drawing jitter from ``rng``."""
        return RetrySchedule(self, rng, clock=clock)


class RetrySchedule:
    """The mutable per-request state of one :class:`RetryPolicy`.

    Tracks the attempt count and the deadline, computes jittered backoffs,
    and refuses to sleep past the deadline — a retry the deadline cannot
    accommodate surfaces :class:`DeadlineExceededError` immediately
    instead of sleeping first and failing later.
    """

    def __init__(self, policy: RetryPolicy, rng, *,
                 clock=time.monotonic) -> None:
        self.policy = policy
        self._rng = rng
        self._clock = clock
        self._started = clock()
        self.attempts = 0

    def remaining_deadline(self) -> float | None:
        """Seconds left before the deadline (``None``: no deadline)."""
        if self.policy.deadline_seconds is None:
            return None
        return self.policy.deadline_seconds - (self._clock() - self._started)

    def check_deadline(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` when the deadline is spent."""
        remaining = self.remaining_deadline()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceededError(
                f"{what} exceeded its {self.policy.deadline_seconds:.3f}s "
                "deadline",
                deadline_seconds=self.policy.deadline_seconds)

    def start_attempt(self) -> int:
        """Account one attempt; raises when the budget is already spent."""
        self.check_deadline()
        if self.attempts >= self.policy.max_attempts:
            raise ResilienceError(
                f"retry budget exhausted after {self.attempts} attempts")
        self.attempts += 1
        return self.attempts

    @property
    def attempts_left(self) -> int:
        return self.policy.max_attempts - self.attempts

    def backoff_seconds(self, *, server_hint: float | None = None) -> float:
        """The jittered backoff before the next attempt.

        Exponential in the attempt count, capped at
        ``max_backoff_seconds``, scaled by the seeded jitter — then raised
        (never lowered) to an explicit server hint.
        """
        policy = self.policy
        exponent = max(self.attempts - 1, 0)
        backoff = min(
            policy.base_backoff_seconds * policy.backoff_multiplier ** exponent,
            policy.max_backoff_seconds)
        if policy.jitter > 0:
            backoff *= 1 + policy.jitter * (2 * self._rng.random() - 1)
        if server_hint is not None:
            backoff = max(backoff, float(server_hint))
        return backoff

    def sleep_before_retry(self, *, server_hint: float | None = None) -> float:
        """Sleep the backoff; raises instead when the deadline can't fit it.

        Returns the seconds actually slept.
        """
        backoff = self.backoff_seconds(server_hint=server_hint)
        remaining = self.remaining_deadline()
        if remaining is not None and backoff >= remaining:
            raise DeadlineExceededError(
                f"retry backoff of {backoff:.3f}s does not fit in the "
                f"{remaining:.3f}s left of the "
                f"{self.policy.deadline_seconds:.3f}s deadline",
                deadline_seconds=self.policy.deadline_seconds,
                retry_after_seconds=backoff)
        if backoff > 0:
            time.sleep(backoff)
        return backoff
