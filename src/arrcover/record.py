"""Immutable value classes without the dataclasses machinery.

``record`` takes the field names from a class's annotations, in order, and
adds field-wise equality, hashing and a ``Name(field=value, ...)`` repr, and
makes assignment and deletion of attributes raise.  Each class writes its own
``__init__``, which fills ``self.__dict__`` directly and does its own
validation.  Nothing is generated as source, so defining a record class costs
a few closures; ``dataclasses`` would import ``inspect`` and compile every
method with ``exec``.  Instances keep a ``__dict__``, so ``cached_property``
works on them.
"""

from operator import attrgetter


def record(cls):
    """Class decorator: value semantics over the annotated fields of cls.

    Equality holds only between instances of the same class with equal field
    tuples; the hash is that of the field tuple, unless cls defines its own
    ``__hash__``.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    getter = attrgetter(*names)
    values = getter if len(names) > 1 else lambda self: (getter(self),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{cls.__name__} is immutable: cannot delete {name!r}")

    cls.__match_args__ = names
    cls.__eq__ = __eq__
    if "__hash__" not in cls.__dict__:
        cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls
