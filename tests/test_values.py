"""The value contract of the package's value classes: repr, equality and
hashing by the fields, refused assignment, fresh default dicts, and a
``replace`` that re-runs the constructor.

One row per class: the constructor's keyword arguments (every constructor
names its parameters after its fields), the repr of that instance, and one
field change for ``replace``. The reprs are those the classes printed as
dataclasses, so a hand-written base has to reproduce them byte for byte.
"""

from fractions import Fraction

import pytest

from clutterlab.certify import Bounds, Corpus, Report
from clutterlab.ideals import MonomialIdeal
from clutterlab.packing import HasseNetwork, KonigCertificate
from clutterlab.polyhedra import IncidenceMatrix, RationalPolyhedron
from clutterlab.structures import Clutter, Graph, Poset
from clutterlab.verdicts import Certificate, NormalityVerdict

# class, constructor kwargs, repr, a change for replace
ROWS = [
    (Graph, {"n": 2, "edges": [(0, 1)]},
     "Graph(n=2, edges=frozenset({(0, 1)}), labels=('x0', 'x1'))", {"labels": ["a", "b"]}),
    (Poset, {"n": 3, "relation": [(0, 1), (0, 2)], "labels": ["a", "b", "c"]},
     "Poset(n=3, relation=frozenset({(0, 1), (0, 2)}), labels=('a', 'b', 'c'))", {"relation": []}),
    (Clutter, {"n": 3, "edges": [(1, 2), (0, 1)]},
     "Clutter(n=3, edges=((0, 1), (1, 2)), labels=('x0', 'x1', 'x2'))", {"edges": [(0, 2)]}),
    (IncidenceMatrix, {"n": 2, "columns": [(1, 0), (1, 1)]},
     "IncidenceMatrix(n=2, columns=((1, 0), (1, 1)))", {"columns": [(0, 1)]}),
    (RationalPolyhedron, {"n": 2, "rows": [(1, 0)], "rhs": [Fraction(1, 2)]},
     "RationalPolyhedron(n=2, rows=((Fraction(1, 1), Fraction(0, 1)),), rhs=(Fraction(1, 2),))",
     {"rhs": [1]}),
    (MonomialIdeal, {"n": 2, "generators": [(2, 0), (1, 1), (2, 1)]},
     "MonomialIdeal(n=2, generators=((1, 1), (2, 0)))", {"generators": [(1, 0)]}),
    (KonigCertificate, {"alpha0": 1, "beta1": 1, "cover": (1,), "matching": ((0, 1),)},
     "KonigCertificate(alpha0=1, beta1=1, cover=(1,), matching=((0, 1),))", {"beta1": 0}),
    (HasseNetwork, {"n": 3, "arcs": ((0, 1), (0, 2)), "sources": (0,), "sinks": (1, 2)},
     "HasseNetwork(n=3, arcs=((0, 1), (0, 2)), sources=(0,), sinks=(1, 2))", {"arcs": ((0, 1),)}),
    (Certificate, {"prop": "mfmc", "verdict": "fails", "holds": False, "bound": 2,
                   "witness": {"w": [1, 0]}, "details": {"checked": 9}},
     "Certificate(prop='mfmc', verdict='fails', holds=False, bound=2, witness={'w': [1, 0]}, "
     "details={'checked': 9})", {"bound": 3}),
    (NormalityVerdict, {"kind": "not-normal", "bound": 2, "witness": (1, 1)},
     "NormalityVerdict(kind='not-normal', bound=2, witness=(1, 1), explanation=None)", {"bound": 3}),
    (Bounds, {"kmax": 2},
     "Bounds(kmax=2, imax=3, wmax=3)", {"wmax": 2}),
    (Corpus, {"kind": "random-posets", "n": 3, "count": 2, "seed": 1},
     "Corpus(kind='random-posets', n=3, count=2, seed=1, q=None, maxexp=None, maxedges=None, "
     "path=None)", {"seed": 7}),
    (Report, {"corpus": {"kind": "all-posets", "n": 2}, "bounds": {"kmax": 1}, "instances": [],
              "skipped": [], "counterexamples": []},
     "Report(corpus={'kind': 'all-posets', 'n': 2}, bounds={'kmax': 1}, instances=[], skipped=[], "
     "counterexamples=[], elapsed_s=0.0)", {"elapsed_s": 1.5}),
]
IDS = [row[0].__name__ for row in ROWS]
# a dict field makes a Certificate unhashable; a Report is mutable, so unhashable
UNHASHABLE = (Certificate, Report)


def test_the_table_has_one_row_per_value_class():
    assert len(ROWS) == len(set(IDS)) == 13


@pytest.mark.parametrize("cls, kwargs, text, change", ROWS, ids=IDS)
def test_the_repr_is_the_dataclass_repr(cls, kwargs, text, change):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text, change", ROWS, ids=IDS)
def test_equal_fields_give_equal_objects_with_equal_hashes(cls, kwargs, text, change):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and not a != b
    assert a != cls(**{**kwargs, **change})
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, kwargs, text, change", ROWS, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, kwargs, text, change):
    other = type(f"Other{cls.__name__}", (cls,), {})
    a, b = cls(**kwargs), other(**kwargs)
    assert a != b and b != a
    assert a.__eq__(b) is NotImplemented and a.__eq__(object()) is NotImplemented


def test_a_graph_and_a_poset_with_the_same_fields_are_unequal():
    assert Graph(2, [(0, 1)]) != Poset(2, [(0, 1)])


@pytest.mark.parametrize("cls, kwargs, text, change", ROWS, ids=IDS)
def test_a_field_cannot_be_assigned_or_deleted(cls, kwargs, text, change):
    a = cls(**kwargs)
    (name, value), = change.items()
    if cls is Report:  # the one mutable value class
        setattr(a, name, value)
        assert getattr(a, name) == value
        delattr(a, name)
        return
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == cls(**kwargs)


def test_each_default_certificate_holds_its_own_details_dict():
    a, b = Certificate("konig", "holds", True), Certificate("konig", "holds", True)
    assert a.details == b.details == {} and a.details is not b.details


@pytest.mark.parametrize("cls, kwargs, text, change", ROWS, ids=IDS)
def test_replace_builds_the_changed_value_with_the_constructor(cls, kwargs, text, change):
    a = cls(**kwargs)
    assert a.replace() == a
    assert a.replace(**change) == cls(**{**kwargs, **change})
    assert repr(a) == text  # the original is untouched


def test_replace_reruns_the_constructor_checks():
    with pytest.raises(ValueError, match="^corpus kind 'all-posets' does not read 'seed'$"):
        Corpus("all-posets", n=2).replace(seed=7)
    with pytest.raises(ValueError, match="bounds must be >= 1"):
        Bounds().replace(kmax=0)
    with pytest.raises(ValueError, match="inclusion-minimality"):
        Clutter(2, [(0,)]).replace(edges=[(0,), (0, 1)])
