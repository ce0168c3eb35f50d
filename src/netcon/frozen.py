"""The immutable base of the validated value types.

A subclass lists its fields in ``_fields`` and its storage in ``__slots__``
(the fields, then any cache its constructor fills).  Its ``__init__`` checks
the arguments and then stores every slot through one ``_store`` call, the
only write a value ever takes; afterwards assigning or deleting any
attribute raises ``AttributeError``.
Equality, hashing, ``repr`` and pickling read the fields alone, so two values
built from equal fields are equal, hash alike and print as
``Type(field=value, ...)``.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _store(self, *values) -> None:
        """Write one value per slot, in ``__slots__`` order; a count that
        does not match the slots raises ``ValueError``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __reduce__(self):
        return type(self), self._values()
