"""Exact Gaussian-integer arithmetic: parity, norms, units, associates, and
the planar regions used to select canonical primes and scan targets."""

from __future__ import annotations

from enum import Enum

# Components stay below 2^31 so every norm fits a signed 64-bit value.
COMPONENT_BOUND = 1 << 31

_set = object.__setattr__


class Record:
    """Base of the immutable value types. A record's fields are its class
    annotations, after those of its bases, and a class attribute of the
    same name is that field's default. Records are built positionally or
    by keyword, refuse assignment, equal only records of their own class
    with equal fields, and hash as the tuple of their fields.

    The package does not use dataclasses: importing that module and
    generating each class's methods cost more start-up time than the
    searches of most CLI ops."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # the class's own, on Python 3.10+
        cls._fields = cls._fields + own
        cls._defaults = dict(
            cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}
        )

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in self._defaults:
                _set(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unknown or repeated fields {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"


_LABELS = ("1", "i", "-1", "-i")  # i^k for k = 0..3
_ROTATIONS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (cos, sin)


class Unit(Enum):
    """The four units of Z[i], stored as powers of the imaginary unit."""

    ONE = 0
    I = 1
    MINUS_ONE = 2
    MINUS_I = 3

    def apply(self, z: "GaussianInt") -> "GaussianInt":
        c, s = _ROTATIONS[self.value]
        return GaussianInt(c * z.re - s * z.im, s * z.re + c * z.im)

    @property
    def label(self) -> str:
        return _LABELS[self.value]

    @classmethod
    def from_label(cls, text: str) -> "Unit":
        try:
            return cls(_LABELS.index(text))
        except ValueError:
            raise ValueError(f"not a unit label: {text!r}") from None


def _check_component(v: int) -> int:
    if not -COMPONENT_BOUND < v < COMPONENT_BOUND:
        raise OverflowError(f"component {v} outside +/-2^31")
    return v


class GaussianInt(Record):
    """re + im*i, the value type of the public API. Searches and scans
    work on int components and build these only at that edge, so it keeps
    Record's equality and hash. The reference tables still build a few
    thousand, so it has its own constructor, which calls __post_init__,
    the component check, by name."""

    re: int
    im: int

    def __init__(self, re: int, im: int) -> None:
        _set(self, "re", re)
        _set(self, "im", im)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_component(self.re)
        _check_component(self.im)

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def key(self) -> tuple[int, int, int]:
        """Canonical sort key (norm, re, im) used everywhere."""
        return (self.norm(), self.re, self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        return _text(self.re, self.im)


def _text(re: int, im: int) -> str:
    """re + im*i as text: 5, 2i, -i, 3+i, 3-2i. Scan reports format their
    int rows through it, so no GaussianInt is built to print one."""
    if not im:
        return f"{re}"
    tail = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return tail
    return f"{re}+{tail}" if im > 0 else f"{re}{tail}"


ZERO = GaussianInt(0, 0)


def parity(z: GaussianInt) -> Parity:
    # z is divisible by 1+i exactly when re+im is even
    return Parity.ODD if (z.re + z.im) % 2 else Parity.EVEN


class Region(Enum):
    """Planar membership predicates, values doubling as CLI names.

    SECTOR          re > 0 and -re < im <= re
    QUADRANT        re > 0 and im >= 0
    OPEN_QUADRANT   re > 0 and im > 0
    OCTANT          0 <= im <= re
    PRIME_SECTOR    same predicate as SECTOR; one associate per prime class
    PRIME_QUADRANT  re >= 0 and im >= 0
    PRIME_HALF      re >= 0 and im > -re

    Each region is stored once, as its cone: two rows (a, b, c), each
    meaning a*re + b*im >= c. Every c is at least 0, so a sum of k
    members is a member whose rows reach at least k*c.
    """

    SECTOR = ("sector", (1, 1, 1), (1, -1, 0))
    QUADRANT = ("quadrant", (1, 0, 1), (0, 1, 0))
    OPEN_QUADRANT = ("a", (1, 0, 1), (0, 1, 1))
    OCTANT = ("octant", (0, 1, 0), (1, -1, 0))
    PRIME_SECTOR = ("gammapi", (1, 1, 1), (1, -1, 0))
    PRIME_QUADRANT = ("kpi", (1, 0, 0), (0, 1, 0))
    PRIME_HALF = ("spi", (1, 0, 0), (1, 1, 1))

    def __new__(cls, value: str, row1: tuple, row2: tuple) -> "Region":
        member = object.__new__(cls)
        member._value_ = value
        member.cone = (row1, row2)
        return member

    def im_span(self, re: int, lo: int, hi: int, terms: int = 1) -> tuple[int, int]:
        """The part of the lattice row re, lo <= im <= hi, inside the
        region, or where its rows reach terms * c, as every sum of that
        many members does: (lowest im, highest im), empty when lowest > highest."""
        for a, b, c in self.cone:
            rest = terms * c - a * re  # the row reads b*im >= rest
            if b > 0:
                lo = max(lo, -(-rest // b))
            elif b < 0:
                hi = min(hi, rest // b)
            elif rest > 0:
                return lo, lo - 1
        return lo, hi


def in_region(z: GaussianInt, region: Region) -> bool:
    (a1, b1, c1), (a2, b2, c2) = region.cone
    r, i = z.re, z.im
    return a1 * r + b1 * i >= c1 and a2 * r + b2 * i >= c2


def sector_form(z: GaussianInt) -> tuple[GaussianInt, Unit]:
    """Factor a nonzero z as unit * g with g in the sector.

    Exactly one of the four associates satisfies re > 0 and -re < im <= re,
    so the pair is unique.
    """
    if z.is_zero():
        raise ValueError("zero has no sector associate")
    for power in range(4):
        g = Unit((4 - power) % 4).apply(z)
        if in_region(g, Region.SECTOR):
            return g, Unit(power)
    raise AssertionError("no sector associate found")  # unreachable for z != 0
