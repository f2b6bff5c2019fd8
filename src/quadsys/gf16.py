"""GF(16) arithmetic with x^4 + x + 1 as the defining polynomial.

Elements are 4-bit integers c3 c2 c1 c0 standing for
c3*x^3 + c2*x^2 + c1*x + c0 over GF(2).  ALPHA (the class of x) is
primitive for this polynomial, so the multiplicative group is
{ALPHA^0, ..., ALPHA^14}; 15-entry exp/log tables, built by polynomial
multiplication, serve ``alpha_power`` and ``text``.  Addition is plain
xor.  Text form: "0", "1", "a^k" for k = 1..14.
"""

from __future__ import annotations

ALPHA = 0b0010
_REDUCER = 0b10011  # x^4 + x + 1


def add(a: int, b: int) -> int:
    return a ^ b


def _mul_slow(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0b10000:
            a ^= _REDUCER
    return acc


def _tables() -> tuple[list[int], list[int]]:
    exp = [1]
    for _ in range(14):
        exp.append(_mul_slow(exp[-1], ALPHA))
    log = [0] * 16
    for k, val in enumerate(exp):
        log[val] = k
    return exp, log


_EXP, _LOG = _tables()


def alpha_power(k: int) -> int:
    return _EXP[k % 15]


def text(a: int) -> str:
    if a == 0:
        return "0"
    k = _LOG[a]
    return "1" if k == 0 else f"a^{k}"
