"""Clique-size signatures (a1, ..., ar) and their derived parameters.

A signature lists the clique sizes forbidden per color class.  Normalized
form drops entries equal to 1 (such a class must simply stay empty, which
never changes the verdict) and sorts the rest ascending, so every ai >= 2
and a1 <= ... <= ar.
"""

from __future__ import annotations

from functools import total_ordering
from operator import attrgetter, index
from typing import Iterable


class _Record:
    """Base of the package's immutable records, whose fields are the
    subclass's `__slots__` in order: they compare, hash and print by their
    fields as frozen dataclasses do.  Each `__init__` writes its fields
    through `_set`, the `__set__` of each field's slot descriptor in
    `__slots__` order, which bypasses `__setattr__` at about half the cost
    of `object.__setattr__`; a shared helper's call and loop (zip, or map)
    cost more than it saves.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # What == and hash compare, unless the class names it: every field.
        # An attrgetter is no method, so it is called as self._key(record).
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls.__slots__)
        # getattr, not cls.__dict__: a subclass without `__slots__` finds its
        # parent's descriptors.
        cls._set = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


def _integer(a, must: str) -> int:
    """A count as an int, as `operator.index` reads it (a bool included);
    any other value is a ValueError that says what it `must` be and names it."""
    try:
        return index(a)
    except TypeError:
        raise ValueError(f"{must}, got {a!r}") from None


def _field_integer(kind: str, key: str, value: str) -> int:
    """A text field of a `kind` of record read by `int`; any other text is a
    ValueError that names the field by its `key`."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{kind} field {key!r} expects integers, got {value!r}") from None


@total_ordering
class Signature(_Record):
    """Normalized list of per-color clique caps.

    `parts` may be empty: that is the reserved signature obtained by
    normalizing an all-ones input, for which arrowing degenerates to
    "the graph has at least one vertex".  Signatures order by `parts`.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(_integer(a, "signature entries must be integers") < 2 for a in parts):
            raise ValueError(f"signature parts must be >= 2 after normalization: {parts}")
        if tuple(sorted(parts)) != parts:
            raise ValueError(f"signature parts must be sorted ascending: {parts}")
        self._set[0](self, parts)

    def __lt__(self, other):
        return self.parts < other.parts if other.__class__ is self.__class__ else NotImplemented

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def m(self) -> int:
        """1 + sum(ai - 1): K_m arrows this signature, K_{m-1} does not."""
        parts = self.parts
        if not parts:
            raise ValueError("m is undefined for the empty signature")
        return 1 + sum(parts) - len(parts)

    @property
    def p(self) -> int:
        """max ai: the clique cap q must exceed this for any witness to exist."""
        parts = self.parts
        if not parts:
            raise ValueError("p is undefined for the empty signature")
        return parts[-1]

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.parts) if self.parts else "(empty)"


def normalize(raw: Iterable[int]) -> Signature:
    """Normalize a raw list of clique caps into a Signature.

    Entries equal to 1 are dropped, the rest are sorted ascending.  A
    literally empty input list is rejected; an all-ones list yields the
    reserved empty signature.  Parts built so skip `Signature.__init__`'s checks.
    """
    entries = list(raw)
    if not entries:
        raise ValueError("signature must contain at least one entry")
    parts = []
    for a in entries:
        a = _integer(a, "signature entries must be integers")
        if a <= 0:
            raise ValueError(f"signature entries must be positive: {entries}")
        if a >= 2:
            parts.append(a)
    parts.sort()
    sig = object.__new__(Signature)
    Signature._set[0](sig, tuple(parts))
    return sig


def as_signature(sig: Signature | Iterable[int]) -> Signature:
    """Accept either a ready Signature or a raw list to normalize."""
    if isinstance(sig, Signature):
        return sig
    return normalize(sig)


def folkman_exists(sig: Signature | Iterable[int], q: int) -> bool:
    """F(a1,...,ar;q) exists exactly when q exceeds the largest part."""
    return _integer(q, "clique cap q must be an integer") > as_signature(sig).p


def merge_at(sig1: Signature | Iterable[int], sig2: Signature | Iterable[int],
             position: int) -> Signature:
    """The signature a join witnesses: the two caps at `position` added.

    Both signatures must be of equal length, have a part at `position`, and
    agree everywhere except (possibly) there.  `position` is an integer.
    """
    position = _integer(position, "position must be an integer")
    sig1, sig2 = as_signature(sig1), as_signature(sig2)
    if sig1.r != sig2.r:
        raise ValueError(f"signatures must be of equal length: {sig1} vs {sig2}")
    if not 0 <= position < sig1.r:
        raise ValueError(f"position {position} out of range for {sig1.r} parts")
    if any(a != b for j, (a, b) in enumerate(zip(sig1.parts, sig2.parts)) if j != position):
        raise ValueError(f"signatures differ away from position {position}: {sig1} vs {sig2}")
    merged = list(sig1.parts)
    merged[position] += sig2.parts[position]
    return Signature(tuple(sorted(merged)))
