"""Immutable value records.

:class:`Record` gives a class declared by annotated fields the constructor,
equality, hash and repr of a frozen dataclass.  It does so with ordinary
methods rather than generated ones, so declaring a record compiles no code
and importing the package does not load ``dataclasses`` (nor the
``inspect`` it imports)::

    class Slot(Record):
        kind: str
        what: str
        clause: str | None = None

The fields are the class body's annotations, in order; a ``ClassVar``
annotation declares a class attribute, not a field.  A class attribute
with a field's name is that field's default.  Fields named in
``_uncompared`` (a source line number, a wall time) appear in the repr but
not in equality or the hash.  ``__post_init__`` runs once every field is
stored; it may validate, or normalise a field with ``object.__setattr__``.
"""

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    """Base of the package's frozen value types; see the module docstring."""

    _fields = ()      # every field, in declaration order
    _compared = ()    # the fields equality and the hash read
    _uncompared = ()  # set by a subclass: fields left out of _compared
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name, annotation in cls.__annotations__.items()
               if not str(annotation).startswith(("ClassVar",
                                                  "typing.ClassVar"))]
        cls._fields = cls._fields + tuple(own)
        cls._compared = tuple(name for name in cls._fields
                              if name not in cls._uncompared)
        cls._defaults = {**cls._defaults,
                         **{name: vars(cls)[name] for name in own
                            if name in vars(cls)}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Attribute by attribute, as a dataclass does: reading the instance's
        # __dict__ would materialise it and slow every later field read.
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, in order, from a call that names some fields
        or leaves some to their defaults."""
        fields = self._fields
        if len(args) > len(fields) or kwargs.keys() - fields[len(args):]:
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{fields}, got {len(args)} positional "
                            f"arguments and {sorted(kwargs)}")
        values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__}() missing fields "
                            f"{missing}")
        return tuple([values[name] for name in fields])

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._fields)
                + ")")
