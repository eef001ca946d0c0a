"""The base of the package's value objects: slotted classes, immutable by
convention, compared, hashed, printed and pickled by their fields.

A leaf module: ``digits``, ``bernoulli`` and ``powersum`` each subclass
``Value``, and it imports nothing of theirs.
"""

from __future__ import annotations


class Value:
    """A slotted value, equal to another exactly when both are of one class
    and their keys are equal.

    The key is the tuple of every slot, in order, unless the class names
    fewer with a ``key=`` class argument; either way it must be the
    constructor's arguments.  A value hashes as its key, prints as
    ``Name(field=value, ...)`` over every slot, and pickles at every
    protocol through its constructor called with the key.
    """

    __slots__ = ()

    _key_fields: tuple[str, ...]

    def __init_subclass__(cls, key: tuple[str, ...] | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key_fields = cls.__slots__ if key is None else key

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._key_fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self) -> tuple:
        # through the constructor: protocols 0 and 1 cannot pickle bare slots
        return self.__class__, self._key()
