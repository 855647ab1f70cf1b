import pytest

from clutterlab import guards
from clutterlab.guards import GUARD_ENV_VAR, Deadline, ResourceGuardError, check_size


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(guards, "time", fake)
    return fake


def test_from_env_unset_is_a_no_op(monkeypatch, clock):
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    deadline = Deadline.from_env()
    assert deadline.millis is None
    clock.now += 1e6
    deadline.check()


def test_from_env_reads_milliseconds(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "250")
    assert Deadline.from_env().millis == 250.0


def test_from_env_rejects_non_numeric(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "soon")
    with pytest.raises(ResourceGuardError, match="must be numeric"):
        Deadline.from_env()


def test_check_raises_after_budget_and_restart_resets(clock):
    deadline = Deadline(50)
    clock.now += 0.040
    deadline.check()
    clock.now += 0.020
    with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
        deadline.check()
    deadline.restart()
    deadline.check()
    clock.now += 0.040
    deadline.check()


def test_check_size_names_the_quantity():
    check_size(10, 10, "widget count")
    with pytest.raises(ResourceGuardError, match="^widget count = 11 exceeds guard limit 10$"):
        check_size(11, 10, "widget count")
