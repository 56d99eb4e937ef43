"""Immutable value classes without :mod:`dataclasses`.

``@value_class`` gives a class with annotated fields what
``@dataclass(frozen=True)`` gives it: an ``__init__`` that takes the
fields in order (class attributes are defaults) and then calls
``__post_init__`` if there is one, ``__eq__`` and ``__hash__`` on the
tuple of fields, a ``__repr__`` that names them, and assignment and
deletion that raise AttributeError.  A class keeps each of these
methods that it defines itself (``Polynomial`` keeps its ``__init__``,
``__eq__`` and ``__hash__``).  Only ``__init__``, which runs once per
value, is generated as source code, as dataclasses does, so that it
stores each field inline.  ``__eq__``, ``__hash__`` and ``__repr__`` are
closures over one ``operator.attrgetter`` of the fields, shared by the
instances of the class; compiling them too took about a third of
mfkit's import time.  Importing dataclasses would cost more than most
commands (it imports inspect).

``Counts`` is the one sparse count container behind ``mf.BettiTable``,
``orlov.CohomologyTable`` and ``bott.CohomologyVector``.  Its
``__post_init__`` checks every table's entries once: keys strictly
ascending, every count positive.
"""

from operator import attrgetter


def _no_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def value_class(cls: type) -> type:
    names = list(cls.__annotations__)
    # The field tuple of an instance: attrgetter returns a bare value for
    # one name, so a one-field class wraps it, and hashes as the dataclass.
    fields = attrgetter(*names)
    if len(names) == 1:
        fields = lambda obj, one=fields: (one(obj),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        shown = ", ".join(map("{}={!r}".format, names, fields(self)))
        return f"{self.__class__.__qualname__}({shown})"

    methods = {"__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__}
    if "__init__" not in cls.__dict__:
        # Generated source, the one hot method: one inline store per field.
        namespace = {"_setattr": object.__setattr__}
        params = []
        for name in names:
            if name in cls.__dict__:
                namespace[f"_default_{name}"] = cls.__dict__[name]
                name = f"{name}=_default_{name}"
            params.append(name)
        exec(
            f"def __init__(self, {', '.join(params)}):\n"
            + "".join(f"    _setattr(self, {name!r}, {name})\n" for name in names)
            + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""),
            namespace,
        )
        methods["__init__"] = namespace["__init__"]
    for method, function in methods.items():
        if method not in cls.__dict__:
            setattr(cls, method, function)
    cls.__setattr__, cls.__delattr__ = _no_setattr, _no_delattr
    return cls


class Counts:
    """What the count tables share.  A subclass is a value class whose
    last field, ``entries``, holds ``(key, count)`` pairs sorted by key,
    every count positive; it sets ``term_format`` (one term of ``str``)
    and ``empty_text``, unannotated so that they are not fields."""

    def __post_init__(self):
        keys = [key for key, _ in self.entries]
        if keys != sorted(set(keys)):
            raise ValueError("entries must be sorted by key, each key once")
        for key, value in self.entries:
            if value <= 0:
                raise ValueError(f"count at {key} must be positive, got {value}")

    @classmethod
    def from_pairs(cls, pairs, *fields):
        # cls(*fields, entries): the counts summed by key, zero sums dropped.
        counts = {}
        for key, value in pairs:
            counts[key] = counts.get(key, 0) + value
        for key, value in counts.items():
            if value < 0:
                raise ValueError(f"negative count {value} at {key}")
        return cls(*fields, tuple(sorted(item for item in counts.items() if item[1])))

    @classmethod
    def from_mapping(cls, *fields_and_counts):
        # from_mapping(*fields, counts): from_pairs over the items of counts.
        *fields, counts = fields_and_counts
        return cls.from_pairs(counts.items(), *fields)

    def get(self, *key) -> int:
        # get(i, j) or get(q); 0 outside the support.
        return dict(self.entries).get(key if len(key) > 1 else key[0], 0)

    def total(self) -> int:
        return sum(value for _, value in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return self.empty_text
        return ", ".join(self.term_format.format(key, value) for key, value in self.entries)
