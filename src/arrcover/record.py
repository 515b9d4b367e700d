"""Immutable value classes without the dataclasses machinery, and the one
owner of derived values.

``record`` takes the field names from a class's annotations, in order, and
adds field-wise equality, hashing and a ``Name(field=value, ...)`` repr, and
makes assignment and deletion of attributes raise.  A class that does not
define ``__init__`` gets one that stores its fields, given by position or by
keyword, in ``self.__dict__``.  Only a class that validates or normalises its
arguments writes its own.  Nothing is generated as source, so defining a
record class costs a few closures; ``dataclasses`` would import ``inspect``
and compile every method with ``exec``.

``derived`` holds every value computed from an arrangement or from its
algebra, in whichever module computes it: once per live value, dropped when
that value is collected.
"""

from functools import update_wrapper
from operator import attrgetter
from threading import Lock
from types import SimpleNamespace
from weakref import finalize


def record(cls):
    """Class decorator: value semantics over the annotated fields of cls.

    Equality holds only between instances of the same class with equal field
    tuples; the hash is that of the field tuple.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    getter = attrgetter(*names)
    values = getter if len(names) > 1 else lambda self: (getter(self),)
    count = len(names)
    positions = range(count)
    # the keywords a valid call passes after i positional arguments
    keywords = [frozenset(names[i:]) for i in range(count + 1)]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            given = len(args)
            if given > count or kwargs.keys() != keywords[given]:
                wrong = [f"unexpected {name!r}" for name in kwargs if name not in names]
                wrong += [f"repeated {name!r}" for name in names[:given] if name in kwargs]
                wrong += [f"missing {name!r}" for name in names[given:] if name not in kwargs]
                raise TypeError("; ".join([f"{cls.__name__}() takes {count} fields, "
                                           f"{given} given by position", *wrong]))
            args += tuple(map(kwargs.__getitem__, names[given:]))
        # indexing makes no (name, value) pairs, so it is faster than
        # update(zip(names, args))
        fields = self.__dict__
        for i in positions:
            fields[names[i]] = args[i]

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
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


_derived: dict[int, dict] = {}  # id(a) -> {(fn, args): fn(a, *args)}
_derived_lock = Lock()


def derived(fn):
    """fn(a, *args), computed once per live value a (an arrangement or its
    algebra) and args and kept in _derived, not on a, so a pickles without
    it; weakref.finalize drops a's values when a is collected, before its id
    is reused.  Threads that miss together each compute, and all get the
    first value stored."""
    info = SimpleNamespace(misses=0)

    def once(a, *args):
        try:
            return _derived[id(a)][fn, args]
        except KeyError:
            pass
        value = fn(a, *args)
        with _derived_lock:
            info.misses += 1
            if id(a) not in _derived:
                finalize(a, _derived.pop, id(a))
            return _derived.setdefault(id(a), {}).setdefault((fn, args), value)

    once.cache_info = lambda: info  # misses: the calls that computed
    return update_wrapper(once, fn)
