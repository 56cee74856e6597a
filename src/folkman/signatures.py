"""Clique-size signatures (a1, ..., ar) and their derived parameters.

A signature lists the clique sizes forbidden per color class.  Normalized
form drops entries equal to 1 (such a class must simply stay empty, which
never changes the verdict) and sorts the rest ascending, so every ai >= 2
and a1 <= ... <= ar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True, slots=True)
class Signature:
    """Normalized list of per-color clique caps.

    `parts` may be empty: that is the reserved signature obtained by
    normalizing an all-ones input, for which arrowing degenerates to
    "the graph has at least one vertex".
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(a < 2 for a in self.parts):
            raise ValueError(f"signature parts must be >= 2 after normalization: {self.parts}")
        if tuple(sorted(self.parts)) != self.parts:
            raise ValueError(f"signature parts must be sorted ascending: {self.parts}")

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def m(self) -> int:
        """1 + sum(ai - 1): K_m arrows this signature, K_{m-1} does not."""
        if self.is_empty:
            raise ValueError("m is undefined for the empty signature")
        return 1 + sum(a - 1 for a in self.parts)

    @property
    def p(self) -> int:
        """max ai: the clique cap q must exceed this for any witness to exist."""
        if self.is_empty:
            raise ValueError("p is undefined for the empty signature")
        return self.parts[-1]

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.parts) if self.parts else "(empty)"


def normalize(raw: Iterable[int]) -> Signature:
    """Normalize a raw list of clique caps into a Signature.

    Entries equal to 1 are dropped, the rest are sorted ascending.  A
    literally empty input list is rejected; an all-ones list yields the
    reserved empty signature.
    """
    entries = list(raw)
    if not entries:
        raise ValueError("signature must contain at least one entry")
    if any(a <= 0 for a in entries):
        raise ValueError(f"signature entries must be positive: {entries}")
    return Signature(tuple(sorted(a for a in entries if a >= 2)))


def as_signature(sig: Signature | Iterable[int]) -> Signature:
    """Accept either a ready Signature or a raw list to normalize."""
    if isinstance(sig, Signature):
        return sig
    return normalize(sig)


def merge_at(sig1: Signature | Iterable[int], sig2: Signature | Iterable[int],
             position: int) -> Signature:
    """The signature a join witnesses: the two caps at `position` added.

    Both signatures must be nonempty, of equal length, and agree everywhere
    except (possibly) at `position`.
    """
    sig1, sig2 = as_signature(sig1), as_signature(sig2)
    if sig1.r != sig2.r or sig1.is_empty:
        raise ValueError(f"signatures must be nonempty and of equal length: {sig1} vs {sig2}")
    if not 0 <= position < sig1.r:
        raise ValueError(f"position {position} out of range for {sig1.r} parts")
    if any(a != b for j, (a, b) in enumerate(zip(sig1.parts, sig2.parts)) if j != position):
        raise ValueError(f"signatures differ away from position {position}: {sig1} vs {sig2}")
    merged = list(sig1.parts)
    merged[position] += sig2.parts[position]
    return Signature(tuple(sorted(merged)))
