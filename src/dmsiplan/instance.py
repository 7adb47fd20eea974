"""Broadcast problem instances and their JSON document format.

An instance fixes n original packets and k clients.  Client j already holds a
subset of the originals (its side information) and still wants the remaining
w_j = n - |has_j| packets; receiving any one broadcast packet costs it an
exact rational delay d_j, either given directly or derived as
packet_size / bandwidth.  All quantities stay `fractions.Fraction`; floats
are rejected at the parsing boundary so no value is ever approximated.

Packets are 0-based inside the library and 1-based in JSON documents.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence


class InstanceError(ValueError):
    """Malformed or inconsistent instance document."""


# [0-9], not \d: \d also matches non-ASCII digits such as "\u0663"
_RATIONAL_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")
_ASCII_SPACE = " \t\r\n"  # str.strip() alone strips any Unicode space


def _digit_limit() -> int:
    """The most digits Python reads or writes for one int; 0 means no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(where: str) -> InstanceError:
    return InstanceError(f"{where}: a number has more than {_digit_limit()} digits")


def parse_rational(value: object, where: str = "value") -> Fraction:
    """Accept a nonnegative JSON int or a "p" / "p/q" string; else an error.

    A string holds ASCII digits 0-9 and at most one "/", with nothing around
    them but ASCII whitespace (space, tab, CR, LF), the four characters JSON
    itself counts as whitespace; any other space, such as U+00A0 or U+3000,
    is refused.  Floats are refused even when integral: exactness is the
    point of the format, and 0.1 has no exact binary value to round-trip.
    """
    if isinstance(value, bool):
        raise InstanceError(f"{where}: expected a rational, got {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise InstanceError(f"{where}: must be nonnegative")
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip(_ASCII_SPACE))
        if match is None:
            raise InstanceError(f"{where}: {value!r} is not of the form 'p' or 'p/q'")
        try:
            p, q = int(match.group(1)), int(match.group(2) or 1)
        except ValueError:  # past the digit limit
            raise _too_long(where) from None
        if q == 0:
            raise InstanceError(f"{where}: zero denominator in {value!r}")
        return Fraction(p, q)
    raise InstanceError(f"{where}: expected an int or 'p/q' string, got {value!r}")


def format_rational(value: Fraction) -> int | str:
    """Inverse of parse_rational: bare int when integral, 'p/q' otherwise."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _unchecked(cls: type, **fields: object):
    """An instance of a frozen dataclass built without __post_init__, for a
    value whose fields the caller has already checked as __post_init__ would;
    each must be in its final form (a matrix's rows a tuple of tuples of valid
    entries).  Each class it builds keeps a __dict__ (no __slots__)."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


@dataclass(frozen=True)
class ClientSpec:
    """One client: packets already held (0-based) and per-packet delay."""

    has: frozenset[int]
    delay: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "has", frozenset(self.has))
        if not isinstance(self.delay, Fraction):
            object.__setattr__(self, "delay", Fraction(self.delay))
        if self.delay.numerator < 0:
            raise InstanceError(f"delay must be nonnegative, got {self.delay}")


@dataclass(frozen=True)
class DmsiInstance:
    """Immutable problem instance; validates itself on construction."""

    n: int
    clients: tuple[ClientSpec, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise InstanceError(f"n must be a nonnegative int, got {self.n!r}")
        object.__setattr__(self, "clients", tuple(self.clients))
        for j, client in enumerate(self.clients):
            for x in client.has:
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n:
                    raise InstanceError(
                        f"client {j + 1}: packet index {x!r} outside [0, {self.n})"
                    )

    @property
    def k(self) -> int:
        return len(self.clients)

    # Derived tuples are computed on first use and kept: the instance is
    # frozen, so they cannot go stale.  Parsing pays only for the scaled
    # delays, which its digit check needs.
    @cached_property
    def _delays(self) -> tuple[Fraction, ...]:
        return tuple(client.delay for client in self.clients)

    @cached_property
    def _want_counts(self) -> tuple[int, ...]:
        return tuple(self.n - len(client.has) for client in self.clients)

    @cached_property
    def _scaled_delays(self) -> tuple[int, tuple[int, ...]]:
        return scaled_delays(self._delays)

    @cached_property
    def _delay_ranking(self) -> tuple[int, ...]:
        # a stable sort: reverse=True keeps equal delays in input order; the
        # scaled ints compare as the delays do
        return tuple(sorted(range(self.k), key=self._scaled_delays[1].__getitem__, reverse=True))

    def delays(self) -> tuple[Fraction, ...]:
        return self._delays

    def scaled_delays(self) -> tuple[int, tuple[int, ...]]:
        """scaled_delays of the delays: their common scale and the delays times it."""
        return self._scaled_delays

    def want_counts(self) -> tuple[int, ...]:
        """w_j = number of packets client j is missing."""
        return self._want_counts

    def delay_ranking(self) -> tuple[int, ...]:
        """Client indices sorted by non-increasing delay; ties keep input order."""
        return self._delay_ranking


def scaled_delays(delays: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(scale, ints) with scale the lcm of the delay denominators and
    ints[j] = delays[j] * scale, an exact int.

    Sums, maxima and comparisons of the ints are those of the delays times
    scale > 0, so exact delay arithmetic can run on ints and divide by scale
    once, at the end.  With no delays, scale is 1.
    """
    denominators = [d.denominator for d in delays]
    scale = math.lcm(*denominators)
    return scale, tuple([d.numerator * (scale // q) for d, q in zip(delays, denominators)])


def _parse_client(doc: object, where: str, n: int, packet_size: Fraction | None) -> ClientSpec:
    """A client document: its held packets and a delay, or a bandwidth over packet_size."""
    if not isinstance(doc, dict):
        raise InstanceError(f"{where}: expected an object, got {doc!r}")
    unknown = set(doc) - {"has", "delay", "bandwidth"}
    if unknown:
        raise InstanceError(f"{where}: unknown keys {sorted(unknown)}")
    if "has" not in doc:
        raise InstanceError(f"{where}: missing 'has'")
    if not isinstance(doc["has"], list):
        raise InstanceError(f"{where}: 'has' must be a list")
    has: set[int] = set()
    for x in doc["has"]:
        if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= n:
            raise InstanceError(f"{where}: packet index {x!r} outside [1, {n}]")
        if x - 1 in has:
            raise InstanceError(f"{where}: duplicate packet index {x}")
        has.add(x - 1)
    if ("delay" in doc) == ("bandwidth" in doc):
        raise InstanceError(f"{where}: exactly one of 'delay' or 'bandwidth' required")
    if "delay" in doc:  # parse_rational refuses a negative: ClientSpec's check is done
        delay = parse_rational(doc["delay"], f"{where}: delay")
        return _unchecked(ClientSpec, has=frozenset(has), delay=delay)
    bandwidth = parse_rational(doc["bandwidth"], f"{where}: bandwidth")
    if bandwidth == 0:
        raise InstanceError(f"{where}: bandwidth must be positive")
    if packet_size is None:
        raise InstanceError(f"{where}: 'bandwidth' given but no 'packet_size'")
    return _unchecked(ClientSpec, has=frozenset(has), delay=packet_size / bandwidth)


def parse_json(text: str) -> object:
    """json.loads, with every way the text can fail to load an InstanceError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InstanceError(f"not valid JSON: {exc}") from exc
    except ValueError:  # an int literal past the digit limit
        raise _too_long("JSON") from None


def check_digits(instance: DmsiInstance, rows: int) -> None:
    """Raise InstanceError unless every total of up to `rows` packets has a
    numerator and denominator within the digit limit.

    Totals are sums of scaled delays over their common scale, so it is enough
    that the scale and `rows` times the largest scaled delay are below 10^limit.
    """
    limit = _digit_limit()
    scale, ints = instance.scaled_delays()
    largest = max(scale, rows * max(ints, default=0))
    # below 2^(3 * limit) < 10^limit no power of ten need be built
    if limit and largest.bit_length() > 3 * limit and largest >= 10**limit:
        raise _too_long("exact delay totals")


def parse_instance(text: str) -> DmsiInstance:
    """Parse a JSON instance document.

    Document shape: {"n": int, "packet_size": rational (only with bandwidths),
    "clients": [{"has": [1-based ints], "delay": r | "bandwidth": r}, ...]}.
    Its delays must keep every total of up to n packets within the digit limit.
    """
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise InstanceError("top level must be an object")
    unknown = set(doc) - {"n", "packet_size", "clients"}
    if unknown:
        raise InstanceError(f"unknown top-level keys {sorted(unknown)}")
    if "n" not in doc or "clients" not in doc:
        raise InstanceError("missing required keys 'n' and 'clients'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InstanceError(f"'n' must be a nonnegative int, got {n!r}")
    if not isinstance(doc["clients"], list):
        raise InstanceError("'clients' must be a list")

    packet_size: Fraction | None = None
    if "packet_size" in doc:
        packet_size = parse_rational(doc["packet_size"], "packet_size")

    clients = [
        _parse_client(client_doc, f"client {j + 1}", n, packet_size)
        for j, client_doc in enumerate(doc["clients"])
    ]
    instance = _unchecked(DmsiInstance, n=n, clients=tuple(clients))
    check_digits(instance, n)
    return instance
