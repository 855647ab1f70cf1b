import pytest

from clutterlab import Clutter, Graph, MonomialIdeal, Poset
from clutterlab.guards import (
    GUARD_ENV_VAR,
    Deadline,
    ResourceGuardError,
    check_deadline,
    check_size,
    restart_deadline,
)
from clutterlab.ideals import power
from clutterlab.packing import HasseNetwork, minimal_vertex_covers
from clutterlab.polyhedra import IncidenceMatrix, _box_min, _dd_extreme_rays, _kfold_bits, ilp_max_packing
from clutterlab.structures import maximal_cliques, parallelize_masks


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
    with pytest.raises(ValueError, match="must be a number of milliseconds >= 0, got 'soon'"):
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


def test_with_installs_the_budget_until_the_block_ends(clock):
    check_deadline()
    with Deadline(50):
        clock.now += 0.060
        with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
            check_deadline()
        restart_deadline()
        check_deadline()
        with Deadline(None):
            clock.now += 0.060
            check_deadline()
        with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
            check_deadline()
    clock.now += 1e6
    check_deadline()


@pytest.mark.parametrize(
    "kernel",
    [
        lambda: _dd_extreme_rays(3, [(1, 1, -1)]),
        lambda: minimal_vertex_covers(Clutter(2, [(0, 1)])),
        lambda: next(_kfold_bits([(1, 0)], (2, 2), 1)),
        lambda: maximal_cliques(Graph(2, [(0, 1)])),
        lambda: HasseNetwork.of(Poset(2, [(0, 1)])).chains(),
        lambda: parallelize_masks([0b11], (1, 2)),
        lambda: power.__wrapped__(MonomialIdeal(2, [(1, 0), (0, 1)]), 2),
        lambda: ilp_max_packing(IncidenceMatrix(2, [(1, 1)]), (1, 1)),
        lambda: _box_min((1, 1), [(1, 0)]),
    ],
    ids=[
        "_dd_extreme_rays", "minimal_vertex_covers", "_kfold_bits", "maximal_cliques",
        "HasseNetwork.chains", "parallelize_masks", "power", "ilp_max_packing", "_box_min",
    ],
)
def test_exponential_kernels_check_the_installed_budget(clock, kernel):
    with Deadline(50):
        clock.now += 0.060
        with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
            kernel()
    kernel()
