"""Resource guards: one ambient deadline and size limits.

The wall-clock budget is not a parameter. A :class:`Deadline` used as a
context manager (``with Deadline(ms): ...``) installs itself as the
budget of the current context, in one ``contextvars.ContextVar``; outside
every ``with`` block the budget is unlimited. ``cli.main`` installs
``Deadline.from_env()`` once per command, and ``certify.run_theorem_suite``
restarts the installed budget once per instance (:func:`restart_deadline`).

Every exponential kernel calls :func:`check_deadline` at its loop head:

- ``structures``: every node of the maximal-clique search, and once per
  edge of C^w that ``parallelize_masks`` builds;
- ``packing``: every node of the Koenig searches (minimum cover, maximum
  matching) and of the Hasse chain walk (``HasseNetwork.chains``), every edge
  and every grown cover of the minimal-cover multiplication, once per box seed
  of the Menger walk, and once after the w-box of MFMC certification is
  decided;
- ``polyhedra``: once per positive ray of each double-description step, once
  per level of the threshold kernel (``_ThresholdSets``, for the verdicts
  and for the listing reader ``_threshold_levels``) and per row set it
  builds below axis 0, once per coordinate sum of ``_minimal_rows``, once
  per shifted vector of the packed k-fold levels (``_kfold_bits``), and at
  every node of the integer packing search (``ilp_max_packing``);
- ``ideals``: once per sum of generators in ``power``;
- ``certify``: between the normality and rounding checks of an ideal.

Exceeding a guard raises :class:`ResourceGuardError`, which the CLI maps to
exit code 3 and the certify engine maps to skip-with-log. A size guard names
what it counts: ``cover family size`` is covers times edge size, per edge.

Two internal routes that disagree raise :class:`ConsistencyError`, which the
CLI maps to exit code 4; the certify engine records such a disagreement as
a failure of its instance, with the error in the witness, instead of
raising.
"""

from __future__ import annotations

import math
import os
import time
from contextvars import ContextVar

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
    """Wall-clock budget of ``millis`` ms (None: unlimited), counted from
    construction or the last :meth:`restart`.

    ``with Deadline(ms):`` makes it the budget that :func:`check_deadline`
    checks until the block ends.
    """

    def __init__(self, millis: float | None):
        self.millis = millis
        self._t0 = time.monotonic()

    @classmethod
    def from_env(cls) -> "Deadline":
        """The budget named by ``CLUTTERLAB_GUARD_MS``, unlimited when it is
        unset or empty. A value that is not a number >= 0 raises
        ``ValueError``."""
        raw = os.environ.get(GUARD_ENV_VAR)
        if not raw:
            return cls(None)
        try:
            millis = float(raw)
        except ValueError:
            millis = math.nan
        if not millis >= 0:  # also rejects NaN
            raise ValueError(f"{GUARD_ENV_VAR} must be a number of milliseconds >= 0, got {raw!r}")
        return cls(millis)

    def __enter__(self) -> "Deadline":
        self._token = _BUDGET.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _BUDGET.reset(self._token)

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


_BUDGET: ContextVar[Deadline] = ContextVar("clutterlab_budget", default=Deadline(None))


def check_deadline() -> None:
    """Raise :class:`ResourceGuardError` once the installed budget is spent;
    a no-op when none is installed."""
    _BUDGET.get().check()


def restart_deadline() -> None:
    """Start the installed budget afresh (once per certify instance)."""
    _BUDGET.get().restart()


def check_size(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise ResourceGuardError(f"{what} = {value} exceeds guard limit {limit}")
