"""Every library type is read-only: value records are NamedTuples, and
the types that keep caches derive from ``frozen.Frozen``, compare by
identity and refuse assignment while their caches still fill."""

import importlib
import pkgutil

import pytest

import galmod
from galmod import fixtures
from galmod import intlinalg as la
from galmod.cohomology import (ShapiroVerdict, group_cohomology,
                               shapiro_compare)
from galmod.complexes import (TwoTermComplex, classify, coflasque_resolution,
                              flasque_resolution, homology, replay_move,
                              uniqueness_invariants)
from galmod.crossed import validate_crossed_module
from galmod.frozen import Frozen
from galmod.groups import enumerate_subgroups, whole_subgroup
from galmod.lattice import GLattice, trivial_lattice

# Working objects of one computation, mutable by design.
HELPERS = {"_Bar", "_Cayley", "ColumnSpan"}


def _library_classes():
    """(records, cached types, other classes) defined in the library."""
    records, cached, other = [], [], []
    for info in pkgutil.iter_modules(galmod.__path__):
        mod = importlib.import_module(f"galmod.{info.name}")
        for obj in vars(mod).values():
            if not isinstance(obj, type) or obj.__module__ != mod.__name__ \
                    or issubclass(obj, Exception):
                continue
            if issubclass(obj, tuple) and hasattr(obj, "_fields"):
                records.append(obj)
            elif issubclass(obj, Frozen):
                if obj._fields:  # Frozen and _ElementRows are bases
                    cached.append(obj)
            else:
                other.append(obj.__name__)
    return records, cached, other


def _cached_instances() -> dict:
    """One instance of each cached type, by class name."""
    t = fixtures.complex_catalog()["z2-aug"]
    g = t.group
    return {
        "FiniteGroup": g,
        "SubgroupHandle": whole_subgroup(g),
        "GLattice": t.l1,
        "FgModule": homology(t)[1],
        "LatticeMap": t.differential,
        "TwoTermComplex": t,
        "AbGroupPresentation": group_cohomology(g, t.l1, 1).presentation,
        "FiniteCrossedModule": fixtures.crossed_catalog()["z2-id"],
    }


def test_every_library_type_is_read_only():
    records, cached, other = _library_classes()
    assert set(other) == HELPERS
    instances = _cached_instances()
    assert sorted(instances) == sorted(c.__name__ for c in cached)
    for cls in records:
        rec = cls._make([None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], 1)
        assert getattr(rec, cls._fields[0]) is None
    for cls in cached:
        obj = instances[cls.__name__]
        assert type(obj) is cls
        field = cls._fields[0]
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.new_attribute = 1
        assert getattr(obj, field) is before
        assert repr(obj).startswith(cls.__name__ + "(")


def test_caches_fill_on_read_only_instances():
    """``cached_property`` and the ``object.__setattr__`` cache writes get
    past the guard: a cold copy answers as the catalog lattice does."""
    lat = fixtures.lattice_catalog()["s3-coset"]
    copy = GLattice(lat.group, lat.rank, lat.action)
    assert "_element_rows" not in vars(copy)
    assert copy.element_rows() == lat.element_rows()
    assert "_element_rows" in vars(copy)
    first = group_cohomology(copy.group, copy, 1)
    assert group_cohomology(copy.group, copy, 1) is first
    assert first.invariant_factors == \
        group_cohomology(lat.group, lat, 1).invariant_factors


def test_value_records_compare_by_value():
    """The six records that compared by value as frozen dataclasses still
    do, and hash alike: equal answers built twice are equal.  A Shapiro
    verdict holds the cohomology of a lattice induced on each call, so it
    is rebuilt from its fields instead."""
    a = la.freeze([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    lat = fixtures.lattice_catalog()["s3-coset"]
    t = fixtures.complex_catalog()["s3-coset-aug"]
    res, cert = coflasque_resolution(t)
    resp, _ = flasque_resolution(t)
    c = fixtures.crossed_catalog()["s3-identity"]
    sub = next(h for h in enumerate_subgroups(lat.group)[0] if h.order == 3)
    v = shapiro_compare(lat.group, sub, trivial_lattice(sub.as_group()), 1)
    for make in (lambda: la.smith_normal_form(a),
                 lambda: replay_move(cert.moves[0]),
                 lambda: classify(lat, "flasque"),
                 lambda: uniqueness_invariants(res, resp),
                 lambda: validate_crossed_module(c)):
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y)
    w = ShapiroVerdict(v.isomorphic, v.induced_side, v.subgroup_side)
    assert w is not v and w == v and hash(w) == hash(v)
    assert classify(lat, "flasque") != classify(lat, "coflasque")


def test_cached_types_compare_by_identity():
    lat = fixtures.lattice_catalog()["s3-coset"]
    copy = GLattice(lat.group, lat.rank, lat.action)
    t = fixtures.complex_catalog()["z2-aug"]
    same = TwoTermComplex(t.l1, t.l2, t.differential)
    for x, y in ((lat, copy), (t, same)):
        assert x == x and x != y
        assert hash(x) == object.__hash__(x) != hash(y)
