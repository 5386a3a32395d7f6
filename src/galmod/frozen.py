"""Read-only instances for the types that keep caches.

The library's value records are ``typing.NamedTuple``s.  The types whose
instances keep caches (``functools.cached_property`` values, or an
``object.__setattr__`` write) or check their input when built derive
from ``Frozen`` instead: their ``__init__`` sets the fields once and
later assignments are refused.
"""

from __future__ import annotations


class Frozen:
    """Base of a read-only type compared and hashed by identity.

    ``__init__`` sets the stored fields straight into the instance
    dictionary, as ``cached_property`` and the caches'
    ``object.__setattr__`` writes do; assigning or deleting an attribute
    in any other way raises AttributeError.  The repr lists ``_fields``,
    the public fields, which may include a cached view.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"
