"""Explicit coloring families used as refutation scanners.

Two families partition the nonzero elements of the domain:

* DigitBaseP over Z: color by a base-p digit of |x|.  The default
  least-significant-nonzero convention equals (x / p^v) mod p where v is the
  p-adic valuation, giving p-1 colors; the most-significant convention is
  available behind a flag since the classical phrasing does not fix a
  reading direction.  A second flag doubles the palette by sign instead of
  coloring |x|.
* OrdMod over either domain: color by ord_P(x) mod m for an irreducible P.

A Clean scan (no monochromatic root in the window) is evidence against
partition regularity, never a proof, except where an analytic argument
closes the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import windows
from .rings import DomainElement, ParseError, _multiplicity, is_irreducible, isprime, parse_element


@dataclass(frozen=True)
class ColoringSpec:
    family: str  # "DigitBaseP" | "OrdMod"
    p: int | None = None  # prime base for DigitBaseP
    msd: bool = False  # most-significant-digit convention
    signed: bool = False  # distinguish signs (doubles the palette)
    irreducible: DomainElement | None = None  # for OrdMod
    modulus: int | None = None  # for OrdMod

    def __post_init__(self):
        if self.family == "DigitBaseP":
            if self.p is None or not isprime(self.p):
                raise ValueError("DigitBaseP needs a prime base")
        elif self.family == "OrdMod":
            if self.modulus is None or self.modulus < 1:
                raise ValueError("OrdMod needs a modulus >= 1")
            if self.irreducible is None or not is_irreducible(self.irreducible):
                raise ValueError("OrdMod needs an irreducible element")
        else:
            raise ValueError(f"unknown coloring family {self.family!r}")

    def __str__(self):
        if self.family == "DigitBaseP":
            suffix = (":msd" if self.msd else "") + (":signed" if self.signed else "")
            return f"basep:{self.p}{suffix}"
        return f"ordmod:{self.irreducible}:{self.modulus}"


def color_of(spec, x):
    """The color of a nonzero element under the family.

    DigitBaseP colors lie in {1, ..., p-1} (negatives offset by p-1 when the
    signed flag is set); OrdMod colors lie in {0, ..., m-1}.
    """
    if x.is_zero():
        raise ValueError("colorings partition the nonzero elements only")
    if spec.family == "OrdMod":
        return _multiplicity(x, spec.irreducible) % spec.modulus  # checked by the spec
    if x.domain.kind != "Z":
        raise ValueError("DigitBaseP colors integers only")
    n = abs(x.value)
    p = spec.p
    if spec.msd:
        while n >= p:
            n //= p
        digit = n
    else:
        while n % p == 0:
            n //= p
        digit = n % p
    if spec.signed and x.value < 0:
        return digit + (p - 1)
    return digit


def refutation_scan(p, spec, window, injective=False):
    """Least monochromatic root tuple (window positions), or None if Clean."""
    hypergraph = windows.enumerate_roots(p, window, injective)
    palette = [color_of(spec, e) for e in window.elements]
    for tup in hypergraph.tuples:  # already in canonical lexicographic order
        first = palette[tup[0]]
        if all(palette[i] == first for i in tup[1:]):
            return tup
    return None


def parse_coloring_spec(domain, text):
    """CLI syntax: "basep:3", "basep:3:msd", "basep:5:signed", "ordmod:t:4"."""
    parts = text.split(":")
    if parts[0] == "basep":
        if len(parts) < 2:
            raise ParseError(f"bad coloring spec {text!r}")
        flags = set(parts[2:])
        unknown = flags - {"msd", "signed"}
        if unknown:
            raise ParseError(f"unknown coloring flags {sorted(unknown)}")
        return ColoringSpec(
            family="DigitBaseP", p=int(parts[1]), msd="msd" in flags, signed="signed" in flags
        )
    if parts[0] == "ordmod":
        if len(parts) != 3:
            raise ParseError(f"bad coloring spec {text!r}")
        return ColoringSpec(
            family="OrdMod",
            irreducible=parse_element(domain, parts[1]),
            modulus=int(parts[2]),
        )
    raise ParseError(f"unknown coloring family in {text!r}")
