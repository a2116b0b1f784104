"""Exact modular and p-adic arithmetic primitives.

Everything here is integer-exact and pure: primality, prime powers, the
units mod q, Legendre symbols, capped p-adic valuations, square roots
modulo odd prime powers (Tonelli-Shanks lifted by Hensel).  Modular
inverses are Python's pow(x, -1, q).  No floating point enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PrimePower",
    "EvenPrime",
    "is_prime",
    "legendre",
    "units",
    "valuation_capped",
    "sqrt_mod_pp",
]


class EvenPrime(ArithmeticError):
    """p = 2 is outside the supported range (odd prime powers only)."""


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """q = p^gamma with p prime (checked) and gamma >= 1."""

    p: int
    gamma: int

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")

    @property
    def q(self) -> int:
        return self.p**self.gamma


def units(q: int) -> list[int]:
    """The units 1 <= x <= q mod q, increasing, by a gcd test."""
    return [x for x in range(1, q + 1) if math.gcd(x, q) == 1]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p; 0 when p | a."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def valuation_capped(n: int, p: int, cap: int) -> int:
    """min(nu_p(n), cap), with nu_p(0) treated as +infinity."""
    if n == 0:
        return cap
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    nu = 0
    while n % p == 0:
        n //= p
        nu += 1
    return min(nu, cap)


def _tonelli_shanks(beta: int, p: int) -> int:
    """One square root of beta mod odd prime p; assumes (beta/p) = +1."""
    beta %= p
    if p % 4 == 3:
        return pow(beta, (p + 1) // 4, p)
    # Write p - 1 = s * 2^e with s odd.
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    # Any quadratic non-residue will do as the generator of the 2-part.
    n = 2
    while legendre(n, p) != -1:
        n += 1
    x = pow(beta, (s + 1) // 2, p)
    b = pow(beta, s, p)
    g = pow(n, s, p)
    r = e
    while True:
        t, m = b, 0
        while t != 1:
            t = (t * t) % p
            m += 1
        if m == 0:
            return x
        gs = pow(g, 1 << (r - m - 1), p)
        x = (x * gs) % p
        b = (b * gs * gs) % p
        g = (gs * gs) % p
        r = m


def sqrt_mod_pp(beta: int, pp: PrimePower) -> tuple[int, int] | None:
    """Both square roots of beta mod p^gamma, or None for a non-residue.

    Tonelli-Shanks at level p, then Hensel lifting to gamma.  Returns
    the pair ordered smaller-first; requires p odd and gcd(beta, p) = 1.
    """
    if pp.p == 2:
        raise EvenPrime("square roots mod 2^gamma are not supported")
    q = pp.q
    beta %= q
    if beta % pp.p == 0:
        raise ValueError(f"beta = {beta} must be coprime to p = {pp.p}")
    if legendre(beta, pp.p) == -1:
        return None
    r = _tonelli_shanks(beta, pp.p)
    mod = pp.p
    while mod < q:
        # Newton step r -> r - (r^2 - beta)/(2r), exact since 2r is a unit.
        mod = min(mod * mod, q)
        r = (r - (r * r - beta) * pow(2 * r, -1, mod)) % mod
    return (r, q - r) if r <= q - r else (q - r, r)

