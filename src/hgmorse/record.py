"""Frozen value records: fields from class annotations, checks in `__post_init__`.

A `Record` subclass lists its fields as class annotations, in order, with a
default as the class attribute of that name.  An instance binds them by
position or keyword, runs `__post_init__`, compares, hashes and prints by
class and field values, and refuses assignment and deletion (a cached_property
still caches).  `replace` copies a record through its constructor, rechecked.
"""

from __future__ import annotations

from typing import Any, TypeVar

R = TypeVar("R", bound="Record")


class Record:
    """Base of a frozen value record whose fields are its class annotations."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key in given or key not in fields:
                raise TypeError(f"{name}() got {'a repeated' if key in given else 'an unexpected'} field {key!r}")
        values = {**self._defaults, **given, **kwargs}
        if len(values) < len(fields):
            raise TypeError(f"{name}() is missing fields {[key for key in fields if key not in values]}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a subclass with invariants overrides this."""

    def __setattr__(self, key: str, value: Any = None) -> None:
        raise AttributeError(f"cannot assign to or delete {key!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in zip(self._fields, self._values()))})"


def replace(record: R, **changes: Any) -> R:
    """A copy of record with changes applied, built and checked anew by its class."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
