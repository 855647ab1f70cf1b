"""Resource guards: cooperative deadlines and size limits.

Long-running work calls ``Deadline.check()`` between steps: once per w in
the Menger walk, once after the w-box of MFMC certification is priced, at
every node of the two Koenig searches (minimum cover and maximum
matching), and between the normality and rounding checks of an ideal; the
certify instance loop restarts the budget per instance.
Exceeding a guard raises :class:`ResourceGuardError`, which the CLI maps to
exit code 3 and the certify engine maps to skip-with-log.

Two internal routes that disagree raise :class:`ConsistencyError`, which the
CLI maps to exit code 4; the certify engine records such a disagreement as
a failure of its instance, with the error in the witness, instead of
raising.
"""

from __future__ import annotations

import os
import time

GUARD_ENV_VAR = "CLUTTERLAB_GUARD_MS"

# Default ceilings for combinatorial blowups (see polyhedra / packing).
MAX_GRID_POINTS = 4_000_000
MAX_DD_RAYS = 200_000
MAX_COVER_SUBSETS = 1 << 22


class ResourceGuardError(RuntimeError):
    """A configured resource ceiling was exceeded."""


class ConsistencyError(RuntimeError):
    """A cross-route check failed: ``check`` names it, ``left`` and
    ``right`` are the two values it compared."""

    def __init__(self, check: str, left, right):
        super().__init__(f"{check}: {left!r} vs {right!r}")
        self.check = check
        self.left = left
        self.right = right

    def to_json(self) -> dict:
        return {"check": self.check, "values": [self.left, self.right]}


class Deadline:
    """Wall-clock budget checked cooperatively between work items."""

    def __init__(self, millis: float | None):
        self.millis = millis
        self._t0 = time.monotonic()

    @classmethod
    def from_env(cls) -> "Deadline":
        raw = os.environ.get(GUARD_ENV_VAR)
        if not raw:
            return cls(None)
        try:
            millis = float(raw)
        except ValueError as exc:
            raise ResourceGuardError(f"{GUARD_ENV_VAR} must be numeric, got {raw!r}") from exc
        return cls(millis)

    def restart(self) -> None:
        self._t0 = time.monotonic()

    def check(self) -> None:
        if self.millis is None:
            return
        elapsed_ms = (time.monotonic() - self._t0) * 1000.0
        if elapsed_ms > self.millis:
            raise ResourceGuardError(
                f"per-instance compute exceeded {self.millis:g} ms ({GUARD_ENV_VAR})"
            )


def check_size(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise ResourceGuardError(f"{what} = {value} exceeds guard limit {limit}")
