"""Pure-Python ECDSA over secp256k1.

Section IV-D1 of the paper requires that *"a deletion request must be signed
with the client signature just like a normal entry"* and that the system can
check *"if the signatures share the same key"*.  The published prototype used
a "simplified" signature; this module provides a real asymmetric scheme so
the authorization path is exercised with actual key material, while
:mod:`repro.crypto.signatures` still offers the paper's simplified mode for
reproducing the console figures verbatim.

The implementation is deliberately compact but complete:

* affine point arithmetic over the secp256k1 curve (the retained reference
  implementation — the executable spec the fast path is property-tested
  against),
* Jacobian-coordinate scalar multiplication for the hot paths: no modular
  inverse per point addition, a single affine conversion at the end,
* a Lim–Lee comb for the generator (4 tables of 255 affine subset sums,
  built lazily on first use), so ``k*G`` (signing, key derivation) costs 7
  doublings and at most 32 mixed additions,
* the verify equation ``u1*G + u2*Q`` as a 4-bit window ladder for
  ``u2*Q`` plus the comb's ``u1*G``, joined by one Jacobian addition,
* bounded LRU caches for compressed-point and signature decoding
  (:func:`decode_point` / :func:`decode_signature`) — blocks carry the same
  author keys over and over,
* deterministic nonces per RFC 6979 (HMAC-SHA256), so signing is
  reproducible and testable without an entropy source,
* low-s normalisation of signatures.

The affine double-and-add is retained as :meth:`CurvePoint.affine_multiply`,
the executable spec the equivalence tests pin the fast paths against.

It is *not* hardened against side channels; it exists to make the
reproduction self-contained, not to protect real funds.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional


@dataclass(frozen=True)
class CurveParameters:
    """Domain parameters of a short Weierstrass curve ``y^2 = x^3 + a x + b``."""

    name: str
    p: int
    a: int
    b: int
    g_x: int
    g_y: int
    n: int
    h: int


#: The secp256k1 domain parameters (the Bitcoin curve).
SECP256K1 = CurveParameters(
    name="secp256k1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    g_x=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    g_y=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    h=1,
)

#: Window width (bits) of the variable-point ladder.
_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1

class CurvePoint:
    """An affine point on a short Weierstrass curve (or the point at infinity)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: CurveParameters, x: Optional[int], y: Optional[int]) -> None:
        self.curve = curve
        self.x = x
        self.y = y
        if not self.is_infinity and not self._on_curve():
            raise ValueError("point is not on the curve")

    @classmethod
    def _trusted(cls, curve: CurveParameters, x: Optional[int], y: Optional[int]) -> "CurvePoint":
        """Build a point that is known to be on the curve (internal results).

        The public constructor re-checks the curve equation on every call;
        points produced by our own arithmetic satisfy it by construction, so
        the hot paths skip the redundant check.
        """
        point = object.__new__(cls)
        point.curve = curve
        point.x = x
        point.y = y
        return point

    @classmethod
    def infinity(cls, curve: CurveParameters = SECP256K1) -> "CurvePoint":
        """Return the neutral element of the group."""
        return cls._trusted(curve, None, None)

    @classmethod
    def generator(cls, curve: CurveParameters = SECP256K1) -> "CurvePoint":
        """Return the curve's base point G."""
        return cls._trusted(curve, curve.g_x, curve.g_y)

    @property
    def is_infinity(self) -> bool:
        """True for the point at infinity."""
        return self.x is None or self.y is None

    def _on_curve(self) -> bool:
        assert self.x is not None and self.y is not None
        p = self.curve.p
        return (self.y * self.y - (self.x**3 + self.curve.a * self.x + self.curve.b)) % p == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self.curve.name == other.curve.name and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve.name, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return f"CurvePoint({self.curve.name}, infinity)"
        return f"CurvePoint({self.curve.name}, x={self.x:#x}, y={self.y:#x})"

    def __neg__(self) -> "CurvePoint":
        if self.is_infinity:
            return self
        assert self.x is not None and self.y is not None
        return CurvePoint._trusted(self.curve, self.x, (-self.y) % self.curve.p)

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if self.curve.name != other.curve.name:
            raise ValueError("cannot add points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        assert self.x is not None and self.y is not None
        assert other.x is not None and other.y is not None
        p = self.curve.p
        if self.x == other.x and (self.y + other.y) % p == 0:
            return CurvePoint.infinity(self.curve)
        if self == other:
            slope = (3 * self.x * self.x + self.curve.a) * modular_inverse(2 * self.y, p) % p
        else:
            slope = (other.y - self.y) * modular_inverse(other.x - self.x, p) % p
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return CurvePoint._trusted(self.curve, x3, y3)

    def __rmul__(self, scalar: int) -> "CurvePoint":
        return self.__mul__(scalar)

    def __mul__(self, scalar: int) -> "CurvePoint":
        """Scalar multiplication (comb for ``G``, Jacobian ladder otherwise)."""
        if scalar % self.curve.n == 0 or self.is_infinity:
            return CurvePoint.infinity(self.curve)
        if scalar < 0:
            return (-self) * (-scalar)
        k = scalar % self.curve.n
        if self.x == self.curve.g_x and self.y == self.curve.g_y:
            return _from_jacobian(_fixed_base_mult(k, self.curve), self.curve)
        return _from_jacobian(_window_mult(k, self.x, self.y, self.curve), self.curve)

    def affine_multiply(self, scalar: int) -> "CurvePoint":
        """Affine double-and-add — the retained reference implementation.

        One modular inverse per point addition; kept verbatim as the
        executable spec the Jacobian fast path is property-tested against.
        """
        if scalar % self.curve.n == 0 or self.is_infinity:
            return CurvePoint.infinity(self.curve)
        if scalar < 0:
            return (-self).affine_multiply(-scalar)
        result = CurvePoint.infinity(self.curve)
        addend = self
        while scalar:
            if scalar & 1:
                result = result + addend
            addend = addend + addend
            scalar >>= 1
        return result

    def encode(self) -> str:
        """Compressed SEC1 encoding as a hex string (``02``/``03`` prefix)."""
        if self.is_infinity:
            return "00"
        assert self.x is not None and self.y is not None
        prefix = "02" if self.y % 2 == 0 else "03"
        return prefix + format(self.x, "064x")

    @classmethod
    def decode(cls, encoded: str, curve: CurveParameters = SECP256K1) -> "CurvePoint":
        """Decode a compressed SEC1 hex string in :meth:`encode`'s spelling.

        Any other spelling of the same point (upper case, ``0x``, whitespace,
        ``x >= p``) raises ``ValueError``: one key, one encoding.

        Hot paths should call :func:`decode_point` instead, which fronts this
        with a bounded LRU cache — the same author keys arrive in block after
        block, and the square root here is the expensive part.
        """
        if encoded == "00":
            return cls.infinity(curve)
        prefix, x_hex = encoded[:2], encoded[2:]
        if prefix not in ("02", "03") or len(x_hex) != 64:
            raise ValueError(f"invalid compressed point encoding: {encoded!r}")
        x = int(x_hex, 16)
        if x >= curve.p or format(x, "064x") != x_hex:
            raise ValueError(f"non-canonical compressed point encoding: {encoded!r}")
        y_squared = (pow(x, 3, curve.p) + curve.a * x + curve.b) % curve.p
        y = pow(y_squared, (curve.p + 1) // 4, curve.p)
        if (y * y) % curve.p != y_squared:
            raise ValueError("point x-coordinate has no square root on the curve")
        if (y % 2 == 0) != (prefix == "02"):
            y = curve.p - y
        return cls(curve, x, y)


def modular_inverse(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``."""
    value %= modulus
    if value == 0:
        raise ZeroDivisionError("inverse of zero does not exist")
    return pow(value, -1, modulus)


# --------------------------------------------------------------------------- #
# Jacobian-coordinate core
#
# Points are (X, Y, Z) triples with x = X/Z^2, y = Y/Z^3; Z == 0 encodes the
# point at infinity.  No modular inverse is needed until the single final
# conversion back to affine coordinates.
# --------------------------------------------------------------------------- #

#: The Jacobian point at infinity.
_JAC_INFINITY = (0, 1, 0)


def _jac_double(point: tuple[int, int, int], p: int, a: int) -> tuple[int, int, int]:
    """Double a Jacobian point (general ``a``; no inversion)."""
    x1, y1, z1 = point
    if not z1 or not y1:
        return _JAC_INFINITY
    yy = y1 * y1 % p
    s = 4 * x1 * yy % p
    m = 3 * x1 * x1 % p
    if a:
        zz = z1 * z1 % p
        m = (m + a * zz % p * zz) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * yy * yy) % p
    z3 = 2 * y1 * z1 % p
    return (x3, y3, z3)


def _jac_add(
    first: tuple[int, int, int], second: tuple[int, int, int], p: int, a: int
) -> tuple[int, int, int]:
    """Add two Jacobian points (handles equal/opposite operands)."""
    x1, y1, z1 = first
    if not z1:
        return second
    x2, y2, z2 = second
    if not z2:
        return first
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    u2 = x2 * z1z1 % p
    s1 = y1 * z2 % p * z2z2 % p
    s2 = y2 * z1 % p * z1z1 % p
    if u1 == u2:
        if s1 != s2:
            return _JAC_INFINITY
        return _jac_double(first, p, a)
    h = (u2 - u1) % p
    hh = h * h % p
    hhh = h * hh % p
    v = u1 * hh % p
    r = (s2 - s1) % p
    x3 = (r * r - hhh - 2 * v) % p
    y3 = (r * (v - x3) - s1 * hhh) % p
    z3 = z1 * z2 % p * h % p
    return (x3, y3, z3)


def _jac_add_affine(
    point: tuple[int, int, int], qx: int, qy: int, p: int, a: int
) -> tuple[int, int, int]:
    """Mixed addition: Jacobian ``point`` plus affine ``(qx, qy)``."""
    x1, y1, z1 = point
    if not z1:
        return (qx, qy, 1)
    z1z1 = z1 * z1 % p
    u2 = qx * z1z1 % p
    s2 = qy * z1 % p * z1z1 % p
    if u2 == x1:
        if s2 != y1 % p:
            return _JAC_INFINITY
        return _jac_double(point, p, a)
    h = (u2 - x1) % p
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    r = (s2 - y1) % p
    x3 = (r * r - hhh - 2 * v) % p
    y3 = (r * (v - x3) - y1 * hhh) % p
    z3 = z1 * h % p
    return (x3, y3, z3)


def _from_jacobian(point: tuple[int, int, int], curve: CurveParameters) -> CurvePoint:
    """Convert back to an affine :class:`CurvePoint` (the single inversion)."""
    x, y, z = point
    if not z:
        return CurvePoint.infinity(curve)
    p = curve.p
    z_inv = pow(z, -1, p)
    z_inv2 = z_inv * z_inv % p
    return CurvePoint._trusted(curve, x * z_inv2 % p, y * z_inv2 % p * z_inv % p)


def _batch_to_affine(
    points: list[tuple[int, int, int]], p: int
) -> list[tuple[int, int]]:
    """Normalise many Jacobian points with one inversion (Montgomery's trick)."""
    prefix: list[int] = []
    acc = 1
    for _, _, z in points:
        acc = acc * z % p
        prefix.append(acc)
    inv = pow(acc, -1, p)
    affine: list[Optional[tuple[int, int]]] = [None] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = inv * (prefix[index - 1] if index else 1) % p
        inv = inv * z % p
        z_inv2 = z_inv * z_inv % p
        affine[index] = (x * z_inv2 % p, y * z_inv2 % p * z_inv % p)
    return affine  # type: ignore[return-value]


#: Lim–Lee comb for ``k*G``: the scalar is read as ``_COMB_TEETH`` rows of
#: ``_COMB_TABLES * spacing`` bits (8 rows of 32 bits on secp256k1), and
#: table ``j`` holds, for every tooth pattern ``m`` in 1..255, the sum of the
#: rows' bases ``2**(row*row_bits + j*spacing) * G`` selected by ``m``.
_COMB_TEETH = 8
_COMB_TABLES = 4

#: Per-curve comb tables in affine coordinates, ``tables[j][m - 1]``.
_FIXED_BASE_TABLES: dict[str, list[list[tuple[int, int]]]] = {}


def _comb_spacing(curve: CurveParameters) -> int:
    """Bits between two tables' shifts (8 on secp256k1: 7 doublings per ``k*G``)."""
    return -(-curve.n.bit_length() // (_COMB_TEETH * _COMB_TABLES))


def _fixed_base_table(curve: CurveParameters) -> list[list[tuple[int, int]]]:
    tables = _FIXED_BASE_TABLES.get(curve.name)
    if tables is None:
        p, a = curve.p, curve.a
        # powers[s] = 2**(s*spacing) * G; the base of row i in table j is
        # powers[i * _COMB_TABLES + j].
        powers = [(curve.g_x, curve.g_y, 1)]
        spacing = _comb_spacing(curve)
        for _ in range(_COMB_TEETH * _COMB_TABLES - 1):
            point = powers[-1]
            for _ in range(spacing):
                point = _jac_double(point, p, a)
            powers.append(point)
        bases = _batch_to_affine(powers, p)
        flat: list[tuple[int, int, int]] = []
        for j in range(_COMB_TABLES):
            sums = [_JAC_INFINITY]
            for m in range(1, 1 << _COMB_TEETH):
                low = (m & -m).bit_length() - 1
                bx, by = bases[low * _COMB_TABLES + j]
                sums.append(_jac_add_affine(sums[m & (m - 1)], bx, by, p, a))
            flat.extend(sums[1:])
        normalised = _batch_to_affine(flat, p)
        size = (1 << _COMB_TEETH) - 1
        tables = [normalised[j * size : (j + 1) * size] for j in range(_COMB_TABLES)]
        _FIXED_BASE_TABLES[curve.name] = tables
    return tables


def _fixed_base_mult(k: int, curve: CurveParameters) -> tuple[int, int, int]:
    """``k * G`` from the comb tables (``0 <= k < n``), in Jacobian form.

    Column ``c`` of table ``j`` is the tooth pattern of bit ``j*spacing + c``
    of every row; one Horner pass over the columns costs ``spacing - 1``
    doublings and at most ``spacing * _COMB_TABLES`` mixed additions.
    """
    tables = _fixed_base_table(curve)
    p, a = curve.p, curve.a
    spacing = _comb_spacing(curve)
    row_bits = spacing * _COMB_TABLES
    # Most significant bit first, so a column's bits are one strided slice.
    bits = format(k, f"0{row_bits * _COMB_TEETH}b")
    acc = _JAC_INFINITY
    for column in range(spacing - 1, -1, -1):
        if acc[2]:
            acc = _jac_double(acc, p, a)
        for j, table in enumerate(tables):
            pattern = int(bits[row_bits - 1 - j * spacing - column :: row_bits], 2)
            if pattern:
                qx, qy = table[pattern - 1]
                acc = _jac_add_affine(acc, qx, qy, p, a)
    return acc


def _window_mult(k: int, qx: int, qy: int, curve: CurveParameters) -> tuple[int, int, int]:
    """``k * Q`` for an arbitrary affine point via a 4-bit window ladder."""
    p, a = curve.p, curve.a
    # Multiples 1..15 of Q, batch-normalised to affine with one inversion so
    # every ladder addition is the cheaper mixed form.
    jac_multiples: list[tuple[int, int, int]] = [(qx, qy, 1)]
    for _ in range(_WINDOW_MASK - 1):
        jac_multiples.append(_jac_add_affine(jac_multiples[-1], qx, qy, p, a))
    multiples = _batch_to_affine(jac_multiples, p)
    acc = _JAC_INFINITY
    top = (k.bit_length() + _WINDOW_BITS - 1) // _WINDOW_BITS * _WINDOW_BITS - _WINDOW_BITS
    for shift in range(top, -1, -_WINDOW_BITS):
        if acc[2]:
            acc = _jac_double(_jac_double(_jac_double(_jac_double(acc, p, a), p, a), p, a), p, a)
        digit = (k >> shift) & _WINDOW_MASK
        if digit:
            mx, my = multiples[digit - 1]
            acc = _jac_add_affine(acc, mx, my, p, a)
    return acc


def _shamir_combine(
    u1: int, u2: int, qx: int, qy: int, curve: CurveParameters
) -> tuple[int, int, int]:
    """``u1*G + u2*Q``: the ``u2*Q`` window ladder plus the ``u1*G`` comb.

    The ``u2*Q`` component pays the full doubling ladder; ``u1*G`` comes from
    the comb tables (7 doublings, at most 32 mixed additions) and joins it
    with one Jacobian addition.
    """
    acc = _window_mult(u2, qx, qy, curve) if u2 else _JAC_INFINITY
    return _jac_add(acc, _fixed_base_mult(u1, curve), curve.p, curve.a)


# --------------------------------------------------------------------------- #
# Cached decoding
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=4096)
def _decode_point_cached(encoded: str, curve: CurveParameters) -> CurvePoint:
    return CurvePoint.decode(encoded, curve)


def decode_point(encoded: str, curve: CurveParameters = SECP256K1) -> CurvePoint:
    """Decode a compressed public key through a bounded LRU cache.

    Every caller outside ``crypto/`` must use this wrapper instead of
    :meth:`CurvePoint.decode` (enforced by lint rule ``REPRO-PERF501``): a
    simulation delivers the same handful of author keys thousands of times,
    and the modular square root dominates the raw decode.
    """
    return _decode_point_cached(encoded, curve)


@lru_cache(maxsize=8192)
def _decode_signature_cached(encoded: str) -> "EcdsaSignature":
    return EcdsaSignature.decode(encoded)


def decode_signature(encoded: str) -> "EcdsaSignature":
    """Decode a hex signature through a bounded LRU cache.

    The cached-wrapper contract of :func:`decode_point` applies here too
    (lint rule ``REPRO-PERF501``): seals and entry signatures are re-checked
    on every validation pass, and the pair of 64-char int parses adds up.
    """
    return _decode_signature_cached(encoded)


# repro: allow[REPRO-S601] isolates tests from the process-wide decode caches
def clear_decode_caches() -> None:
    """Drop both decode caches (benchmark and test hygiene)."""
    _decode_point_cached.cache_clear()
    _decode_signature_cached.cache_clear()


@dataclass(frozen=True)
class EcdsaSignature:
    """An ECDSA signature pair (r, s) with low-s normalisation applied."""

    r: int
    s: int

    def encode(self) -> str:
        """Fixed-width hex encoding: 64 chars of r followed by 64 chars of s."""
        return format(self.r, "064x") + format(self.s, "064x")

    @classmethod
    def decode(cls, encoded: str) -> "EcdsaSignature":
        """Decode a signature in :meth:`encode`'s spelling (lowercase hex).

        Hot paths should call :func:`decode_signature` (the bounded-LRU
        wrapper) instead.
        """
        if len(encoded) != 128:
            raise ValueError("encoded ECDSA signature must be 128 hex characters")
        signature = cls(r=int(encoded[:64], 16), s=int(encoded[64:], 16))
        if signature.encode() != encoded:
            raise ValueError("non-canonical ECDSA signature encoding")
        return signature


def _hash_to_int(message: bytes, curve: CurveParameters) -> int:
    digest = hashlib.sha256(message).digest()
    value = int.from_bytes(digest, "big")
    excess = value.bit_length() - curve.n.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonce(private_key: int, message_hash: int, curve: CurveParameters) -> int:
    """Deterministic nonce generation per RFC 6979 with HMAC-SHA256."""
    order_bytes = (curve.n.bit_length() + 7) // 8
    key_bytes = private_key.to_bytes(order_bytes, "big")
    hash_bytes = (message_hash % curve.n).to_bytes(order_bytes, "big")

    k = b"\x00" * 32
    v = b"\x01" * 32
    k = hmac.digest(k, v + b"\x00" + key_bytes + hash_bytes, "sha256")
    v = hmac.digest(k, v, "sha256")
    k = hmac.digest(k, v + b"\x01" + key_bytes + hash_bytes, "sha256")
    v = hmac.digest(k, v, "sha256")

    while True:
        v = hmac.digest(k, v, "sha256")
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < curve.n:
            return candidate
        k = hmac.digest(k, v + b"\x00", "sha256")
        v = hmac.digest(k, v, "sha256")


def ecdsa_sign(private_key: int, message: bytes, curve: CurveParameters = SECP256K1) -> EcdsaSignature:
    """Sign ``message`` with ``private_key`` using deterministic ECDSA."""
    if not 1 <= private_key < curve.n:
        raise ValueError("private key out of range")
    z = _hash_to_int(message, curve)
    while True:
        k = _rfc6979_nonce(private_key, z, curve)
        point = _from_jacobian(_fixed_base_mult(k, curve), curve)
        assert point.x is not None
        r = point.x % curve.n
        if r == 0:
            z = (z + 1) % curve.n
            continue
        s = modular_inverse(k, curve.n) * (z + r * private_key) % curve.n
        if s == 0:
            z = (z + 1) % curve.n
            continue
        if s > curve.n // 2:
            s = curve.n - s
        return EcdsaSignature(r=r, s=s)


def ecdsa_verify(
    public_key: CurvePoint,
    message: bytes,
    signature: EcdsaSignature,
    curve: CurveParameters = SECP256K1,
) -> bool:
    """Verify an ECDSA ``signature`` over ``message`` against ``public_key``."""
    if public_key.is_infinity:
        return False
    if not (1 <= signature.r < curve.n and 1 <= signature.s < curve.n):
        return False
    z = _hash_to_int(message, curve)
    w = modular_inverse(signature.s, curve.n)
    u1 = z * w % curve.n
    u2 = signature.r * w % curve.n
    assert public_key.x is not None and public_key.y is not None
    point = _from_jacobian(_shamir_combine(u1, u2, public_key.x, public_key.y, curve), curve)
    if point.is_infinity:
        return False
    assert point.x is not None
    return point.x % curve.n == signature.r


def derive_public_key(private_key: int, curve: CurveParameters = SECP256K1) -> CurvePoint:
    """Compute the public point corresponding to ``private_key``."""
    if not 1 <= private_key < curve.n:
        raise ValueError("private key out of range")
    return _from_jacobian(_fixed_base_mult(private_key, curve), curve)
