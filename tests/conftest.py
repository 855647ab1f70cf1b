import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from clutterlab import Clutter, IncidenceMatrix, MonomialIdeal, Poset, guards, ideals, packing, polyhedra
from clutterlab.packing import HasseNetwork


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    """The clock of every :class:`Deadline`, advanced by hand."""
    fake = FakeClock()
    monkeypatch.setattr(guards, "time", fake)
    return fake


@pytest.fixture
def c5() -> Clutter:
    """Edge clutter of the 5-cycle."""
    return Clutter(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture
def k3_clutter() -> Clutter:
    """Clique clutter of the triangle: one edge."""
    return Clutter(3, [(0, 1, 2)])


@pytest.fixture
def diamond_poset() -> Poset:
    """a < b, a < c, a < d, b < d, c < d with a=0, b=1, c=2, d=3."""
    return Poset(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])


@pytest.fixture
def chain3() -> Poset:
    return Poset(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_squares() -> MonomialIdeal:
    """I = (x^2, y^2), the canonical non-normal example."""
    return MonomialIdeal(2, [(2, 0), (0, 2)])


@pytest.fixture
def identity3() -> IncidenceMatrix:
    return IncidenceMatrix(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def ones_column3() -> IncidenceMatrix:
    """Incidence matrix of the triangle clique clutter: one all-ones column."""
    return IncidenceMatrix(3, [(1, 1, 1)])


@pytest.fixture
def broken_hasse_network(monkeypatch):
    """HasseNetwork.of drops the first Hasse arc of every poset."""
    honest = HasseNetwork.of.__func__

    def broken(cls, p):
        net = honest(cls, p)
        return net.replace(arcs=net.arcs[1:])

    monkeypatch.setattr(HasseNetwork, "of", classmethod(broken))


@pytest.fixture
def padded_cover_search(monkeypatch):
    """packing.lex_min_cover adds one vertex to every cover it finds."""
    honest = packing.lex_min_cover

    def padded(masks):
        cover = honest(masks)
        return cover + (next(v for v in itertools.count() if v not in cover),)

    monkeypatch.setattr(packing, "lex_min_cover", padded)


@pytest.fixture
def level_with_the_origin(monkeypatch):
    """Every level of polyhedra._kfold_bits also holds the origin, whose
    value 0 lies below every k*unit: a level cell outside its S_k. The
    cached power chains are dropped on both sides of the fault."""
    honest = polyhedra._kfold_bits

    def faulty(vectors, caps, kmax):
        return (level | 1 for level in honest(vectors, caps, kmax))

    monkeypatch.setattr(polyhedra, "_kfold_bits", faulty)
    monkeypatch.setattr(ideals, "_kfold_bits", faulty)
    ideals._power_grids.cache_clear()
    yield
    ideals._power_grids.cache_clear()
