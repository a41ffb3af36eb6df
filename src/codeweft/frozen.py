"""The one base of the immutable value types: tree nodes, spans and rows.

A subclass names its fields in `__slots__`, in constructor order, and
the ones that take part in equality and hashing in `_compared`. Its own
`__init__` is its only constructor: it fills the slots through the
member-descriptor setters that `setters` returns, since assignment and
deletion raise `AttributeError`. Instances pickle and deep-copy by
calling the constructor again.
"""


class Frozen:
    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


def setters(cls: type) -> list:
    """The slot setters of `cls`, in `__slots__` order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]
