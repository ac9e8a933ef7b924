"""Bit encodings of wire labels: one layout codec for every label kind.

Each static label kind and each tree function declares its wire layout
once, as a field kind or a tuple of them.  ``encode``, ``read`` (at a
cursor) and ``size`` (the exact bit count, without building the string)
all derive from that declaration.  The field kinds are

* ``UINT``  -- a nonnegative integer, the Elias gamma code of n + 1,
* ``SINT``  -- a signed integer, zigzag-mapped onto ``UINT``,
* ``PAIRS`` -- a ``UINT`` count, then that many pairs of ``UINT``\\ s,
* ``FLAG``  -- one raw bit holding a bool,
* ``tag(end, more)`` -- one raw bit naming one of two tags: '1' is
  ``end``, which closes the record, '0' is ``more``.

A tuple layout codes a tuple value field by field; entries beyond the
layout, such as the bit count a static label carries, are not coded.  A
bare kind codes a bare value.  Wire strings are plain ``str`` of '0'/'1'
characters, and nested labels are built from length-prefixed blocks.
"""

from __future__ import annotations


class BitsError(ValueError):
    """Malformed bit string handed to a decoder."""


class Kind:
    """One field kind: ``write(value)`` gives its bits, ``read(bits,
    pos)`` gives (value, pos), ``size(value)`` its exact bit count, and
    a field read as ``end`` closes the record."""

    __slots__ = ("write", "read", "size", "end")

    def __init__(self, write, read, size, end=None):
        self.write, self.read, self.size, self.end = write, read, size, end


def uint(n: int) -> str:
    """Nonnegative integer, gamma-shifted by one."""
    if n < 0:
        raise BitsError(f"uint undefined for {n}")
    body = bin(n + 1)[2:]
    return "0" * (len(body) - 1) + body


def _uint_bits(n: int) -> int:
    return 2 * (n + 1).bit_length() - 1


def read_uint(bits: str, pos: int) -> tuple[int, int]:
    zeros = 0
    while pos + zeros < len(bits) and bits[pos + zeros] == "0":
        zeros += 1
    end = pos + 2 * zeros + 1
    if end > len(bits):
        raise BitsError("truncated gamma code")
    return int(bits[pos + zeros : end], 2) - 1, end


def _zigzag(n: int) -> int:
    return n * 2 if n >= 0 else -n * 2 - 1


def _read_sint(bits, pos):
    z, pos = read_uint(bits, pos)
    return (z // 2 if z % 2 == 0 else -(z + 1) // 2), pos


def _write_pairs(xs):
    return uint(len(xs)) + "".join(uint(a) + uint(b) for a, b in xs)


def _read_pairs(bits, pos):
    n, pos = read_uint(bits, pos)
    out = []
    for _ in range(n):
        a, pos = read_uint(bits, pos)
        b, pos = read_uint(bits, pos)
        out.append((a, b))
    return tuple(out), pos


def _pairs_bits(xs):
    n = _uint_bits(len(xs))
    for a, b in xs:     # _uint_bits(a) + _uint_bits(b), inlined: hot
        n += 2 * ((a + 1).bit_length() + (b + 1).bit_length()) - 2
    return n


def _read_bit(bits, pos):
    if pos >= len(bits):
        raise BitsError("truncated raw bit")
    return bits[pos] == "1", pos + 1


def _one(value):
    return 1


UINT = Kind(uint, read_uint, _uint_bits)
SINT = Kind(lambda n: uint(_zigzag(n)), _read_sint,
            lambda n: _uint_bits(_zigzag(n)))
PAIRS = Kind(_write_pairs, _read_pairs, _pairs_bits)
FLAG = Kind(lambda x: "1" if x else "0", _read_bit, _one)


def tag(end, more) -> Kind:
    """A raw bit naming ``end`` ('1', the record stops) or ``more``."""
    def read(bits, pos):
        flag, pos = _read_bit(bits, pos)
        return (end if flag else more), pos
    return Kind(lambda x: "1" if x == end else "0", read, _one, end)


def encode(layout, value) -> str:
    if type(layout) is Kind:
        return layout.write(value)
    return "".join(k.write(x) for k, x in zip(layout, value))


def read(layout, bits: str, pos: int = 0):
    """Decode one value of ``layout`` at ``pos``; returns (value, pos)."""
    if type(layout) is Kind:
        return layout.read(bits, pos)
    out = []
    for k in layout:
        x, pos = k.read(bits, pos)
        out.append(x)
        if x == k.end:
            break
    return tuple(out), pos


def size(layout, value) -> int:
    if type(layout) is Kind:
        return layout.size(value)
    n = 0
    for k, x in zip(layout, value):
        n += k.size(x)
    return n


def sized(layout, fields: tuple) -> tuple:
    """``fields`` with their exact bit count appended: the form in which
    static labels are built, so a label carries its own size."""
    return (*fields, size(layout, fields))


def block(payload: str) -> str:
    """Length-prefixed bit block, the nesting primitive of wire labels."""
    return uint(len(payload)) + payload


def block_bits(payload_bits: int) -> int:
    return _uint_bits(payload_bits) + payload_bits


def read_block(layout, bits: str, pos: int):
    """Decode the block at ``pos`` as one value of ``layout``, which must
    fill it exactly; returns (value, block payload bits, pos)."""
    n, pos = read_uint(bits, pos)
    if pos + n > len(bits):
        raise BitsError("truncated block")
    value, end = read(layout, bits[pos : pos + n])
    if end != n:
        raise BitsError(f"block of {n} bits holds a {end}-bit value")
    return value, n, pos + n
