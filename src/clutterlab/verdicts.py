"""Machine-checkable certificates and verdicts shared across modules."""

from __future__ import annotations

from typing import Any

from .guards import Value


class Certificate(Value):
    """Verdict for a bounded property check.

    ``verdict`` is a short stable string ("holds", "fails",
    "holds-up-to-bound", ...). ``witness`` is present exactly when the
    verdict is negative and contains enough data to re-check the failure by
    hand. ``details`` carries deterministic bookkeeping (counts, per-item
    results) and is safe to serialize.
    """

    prop: str
    verdict: str
    holds: bool
    bound: int | None
    witness: dict[str, Any] | None
    details: dict[str, Any]

    def __init__(self, prop: str, verdict: str, holds: bool, bound: int | None = None,
                 witness: dict[str, Any] | None = None, details: dict[str, Any] | None = None):
        self._set(prop, verdict, holds, bound, witness, {} if details is None else details)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"property": self.prop, "verdict": self.verdict}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


class NormalityVerdict(Value):
    """Outcome of a bounded normality / torsion-freeness check.

    kind is one of "normal-up-to", "not-normal", "ntf-up-to", "not-ntf".
    A witness exponent vector plus explanation is attached exactly on the
    negative kinds; it identifies a monomial violating the containment and
    the level at which it does.
    """

    kind: str
    bound: int
    witness: tuple[int, ...] | None
    explanation: dict[str, Any] | None

    POSITIVE_KINDS = ("normal-up-to", "ntf-up-to")

    def __init__(self, kind: str, bound: int, witness: tuple[int, ...] | None = None,
                 explanation: dict[str, Any] | None = None):
        if kind not in ("normal-up-to", "not-normal", "ntf-up-to", "not-ntf"):
            raise ValueError(f"unknown verdict kind {kind!r}")
        negative = kind in ("not-normal", "not-ntf")
        if negative and witness is None:
            raise ValueError("negative verdict requires a witness")
        if not negative and witness is not None:
            raise ValueError("positive verdict must not carry a witness")
        self._set(kind, bound, witness, explanation)

    @property
    def holds(self) -> bool:
        return self.kind in self.POSITIVE_KINDS

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "bound": self.bound}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.explanation is not None:
            out["explanation"] = self.explanation
        return out
