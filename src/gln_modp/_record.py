"""The base of the package's small immutable value records."""

from operator import attrgetter


class Record:
    """A record's fields are its ``__slots__``, each set once by its ``__init__``
    through ``object.__setattr__``.  Records compare and hash by the values of
    ``_fields`` (the slots, unless a class names fewer), equal only within one
    class, and refuse assignment."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__
