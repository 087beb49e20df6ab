"""Record classes: value types with generated ``__init__``, ``__repr__``,
``__eq__`` and ``__hash__``, built without ``dataclasses``.

``@record`` reads the class's own field annotations, in order, and writes
the four methods as one source text, the code ``dataclasses`` writes for the
same class; like ``dataclasses``, it keeps a method the class defines itself:

- ``__init__`` takes the fields as positional-or-keyword parameters, with their
  defaults, calls each ``default_factory`` afresh, and ends with
  ``__post_init__()`` when the class has one;
- ``__eq__`` is true only between instances of the same class, comparing the
  tuples of their compared fields;
- ``__hash__`` hashes that tuple on a frozen record and is ``None`` on a
  mutable one;
- ``__repr__`` prints ``Name(field=value, ...)`` from the class's qualified name.

A record is frozen when it derives from ``Frozen``: its ``__init__`` sets the
fields through ``object.__setattr__``, and assigning or deleting an attribute
afterwards raises ``FrozenInstanceError``.  Instances keep a ``__dict__``,
which per-instance memos (``arith.lazy``) write directly.

The text is compiled, with one ``compile``, when the class first constructs,
compares, hashes or prints an instance, so a process pays only for the records
it uses and importing the package compiles none.
"""

from __future__ import annotations

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Frozen:
    """Base of the immutable records."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class field:
    """Options of one record field: a default value or a default factory,
    and whether the field takes part in ``==``/``hash`` and in ``repr``."""

    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, compare=True, repr=True):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def record(cls: type) -> type:
    """Give ``cls`` the generated methods of a record over its annotated
    fields; they are compiled together on the first use of any of them."""
    frozen = issubclass(cls, Frozen)
    env = {"_setattr": object.__setattr__, "_FACTORY": _MISSING}
    params, body, compared, shown = ["self"], [], [], []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        value = name
        if spec.default_factory is not _MISSING:
            env[f"_factory_{name}"] = spec.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
            delattr(cls, name)
        elif spec.default is not _MISSING:
            env[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
            setattr(cls, name, spec.default)
        elif len(params) > 1 and "=" in params[-1]:
            raise TypeError(
                f"{cls.__qualname__}: field {name!r} without a default follows one with a default"
            )
        else:
            params.append(name)
        body.append(f"_setattr(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(f"{name}={{self.{name}!r}}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{n}," for n in compared)
    theirs = "".join(f"other.{n}," for n in compared)
    source = (
        f"def __init__({', '.join(params)}):\n"
        + "".join(f" {line}\n" for line in body or ["pass"])
        + "def __repr__(self):\n"
        f" return self.__class__.__qualname__ + f\"({', '.join(shown)})\"\n"
        "def __eq__(self, other):\n"
        " if other.__class__ is self.__class__:\n"
        f"  return ({mine}) == ({theirs})\n"
        " return NotImplemented\n"
    )
    methods = ["__init__", "__repr__", "__eq__"]
    if frozen:
        source += f"def __hash__(self):\n return hash(({mine}))\n"
        methods.append("__hash__")
    methods = [name for name in methods if name not in cls.__dict__]  # the class's own stay

    def build() -> None:
        exec(source, env)
        for name in methods:
            method = env[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    for name in methods:
        setattr(cls, name, _Unbuilt(cls, name, build))
    if not frozen:
        cls.__hash__ = None
    return cls


class _Unbuilt:
    """Stands for one generated method of a record until the first lookup of
    any of them compiles them all and puts them on the class in its place.
    A process compiles only the records it uses."""

    __slots__ = ("cls", "name", "build")

    def __init__(self, cls: type, name: str, build) -> None:
        self.cls, self.name, self.build = cls, name, build

    def __get__(self, obj, owner=None):
        self.build()
        return self.cls.__dict__[self.name].__get__(obj, owner)
