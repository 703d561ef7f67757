"""Exact arithmetic on integer Laurent polynomials.

A Laurent polynomial over Z is stored sparsely as a sorted tuple of
(exponent, coefficient) pairs with no zero coefficients; the zero
polynomial is the empty tuple.  Exponents may be negative, coefficients
are arbitrary-precision Python ints.  Values are immutable and hashable,
so they can be shared freely between threads.

`divides` decides divisibility up to units, the test of the Alexander
obstruction, by one integer remainder at a power of two; a dividend too
long for that is divided by `LaurentPoly.divided_by`, after a remainder
mod a prime that refutes a sparse one without walking its degree gap.
"""
from __future__ import annotations

import heapq
import math
import re
from operator import itemgetter
from typing import Mapping


class _Frozen:
    """Base of the value types that check or derive state on construction
    (the plain records are named tuples).  The constructor fills the slots
    with object.__setattr__; later assignment raises AttributeError.  Two
    values are equal when they have the same type and equal `_key()`."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class LaurentPoly(_Frozen):
    """A Laurent polynomial with integer coefficients.

    >>> t = LaurentPoly.t()
    >>> (1 + t) * (1 - t + LaurentPoly.t(2))
    LaurentPoly('1 + t^3')
    >>> (LaurentPoly.t(-2) - LaurentPoly.t(-1) + 1).normalize()
    LaurentPoly('1 - t + t^2')
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()) -> None:
        previous = None
        for exp, coeff in terms:
            if coeff == 0:
                raise ValueError(f"stored coefficient is zero at exponent {exp}")
            if previous is not None and exp <= previous:
                raise ValueError(f"exponents must strictly increase: {exp} after {previous}")
            previous = exp
        object.__setattr__(self, "terms", terms)

    def _key(self) -> tuple:
        return self.terms

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_dict(coeffs: Mapping[int, int]) -> LaurentPoly:
        return LaurentPoly(tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)))

    @staticmethod
    def const(c: int) -> LaurentPoly:
        return LaurentPoly(((0, c),)) if c else LaurentPoly()

    @staticmethod
    def t(exp: int = 1, coeff: int = 1) -> LaurentPoly:
        """The monomial coeff * t^exp."""
        return LaurentPoly(((exp, coeff),)) if coeff else LaurentPoly()

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == ((0, 1),)

    @property
    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[0][0]

    @property
    def max_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def coefficients(self) -> dict[int, int]:
        return dict(self.terms)

    @property
    def leading_coefficient(self) -> int:
        if not self.terms:
            return 0
        return self.terms[-1][1]

    # -- ring operations --------------------------------------------------

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = _coerce(other)
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other: LaurentPoly | int) -> LaurentPoly:
        return _coerce(other) + (-self)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = _coerce(other)
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by the unit t^k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms))

    def substitute_power(self, w: int) -> LaurentPoly:
        """Replace t by t^w.  For w = 0 this evaluates at 1."""
        out: dict[int, int] = {}
        for e, c in self.terms:
            out[e * w] = out.get(e * w, 0) + c
        return LaurentPoly.from_dict(out)

    # -- normalization and divisibility ------------------------------------

    def normalize(self) -> LaurentPoly:
        """Multiply by a unit +-t^k so the minimum degree is 0 and the
        constant coefficient is positive.  A normalized polynomial (the
        zero polynomial among them) is returned as it is."""
        if not self.terms or (self.terms[0][0] == 0 and self.terms[0][1] > 0):
            return self
        shifted = self.shift(-self.min_degree)
        if shifted.terms[0][1] < 0:
            shifted = -shifted
        return shifted

    def divided_by(self, divisor: LaurentPoly) -> LaurentPoly | None:
        """Literal exact division in Z[t, t^-1].

        Returns q with self = divisor * q, or None when no such Laurent
        polynomial exists.  Raises ZeroDivisionError on a zero divisor.
        Long division over Z: a quotient exists exactly when every step
        divides by the divisor's leading coefficient without remainder
        and nothing is left over at the end.  The remainder is a dict with
        its exponents in a max-heap, so the work follows the terms rather
        than the degree span.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        *rest, (lead_exp, lead) = divisor.terms
        lowest = self.min_degree - divisor.min_degree + lead_exp  # below: a remainder
        rem = dict(self.terms)
        heap = [-e for e in rem]
        heapq.heapify(heap)
        quot = []
        while heap:
            e = -heapq.heappop(heap)
            c = rem.pop(e, 0)
            if not c:
                continue  # cancelled since it was pushed
            if e < lowest:
                return None
            q, r = divmod(c, lead)
            if r:
                return None
            e -= lead_exp
            quot.append((e, q))
            for de, dc in rest:
                k = e + de
                value = rem.get(k)
                if value is None:
                    heapq.heappush(heap, -k)
                    rem[k] = -q * dc
                elif value == q * dc:
                    del rem[k]
                else:
                    rem[k] = value - q * dc
        quot.reverse()
        return LaurentPoly(tuple(quot))

    # -- evaluation ---------------------------------------------------------

    def eval_int(self, x: int) -> int:
        """Exact value at a nonzero integer, summed in ints as
        x^e_min * sum c x^(e - e_min).  When e_min < 0 and |x| > 1 the
        sum must be divisible by x^-e_min; otherwise the value is not an
        integer and ValueError is raised.  At x = +-1, and for normalized
        knot polynomials anywhere, the value is an int."""
        if x == 0:
            raise ValueError("cannot evaluate at 0: negative exponents")
        low = self.terms[0][0] if self.terms else 0
        total = sum(c * x ** (e - low) for e, c in self.terms)
        if low >= 0 or x in (1, -1):
            return total * x ** abs(low)  # x^low = x^-low at +-1
        value, rest = divmod(total, x**-low)
        if rest:
            raise ValueError(f"{format_poly(self)} at {x} is not an integer")
        return value

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly('{format_poly(self)}')"


def _coerce(value: LaurentPoly | int) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.const(value)
    raise TypeError(f"cannot combine a Laurent polynomial with {type(value).__name__}")


_coefficient = itemgetter(1)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    """True when b divides a up to units in Z[t, t^-1].

    Raises ZeroDivisionError when b = 0.  Both are normalized, so t
    divides neither and b | a forces deg a >= deg b.  Write b = c * b'
    with c the content of b.  b' is primitive, so by Gauss's lemma b | a
    exactly when c divides every coefficient of a and b' | a over Q.

    b' | a over Q is decided by one integer remainder, a(X) % b'(X) at
    X = 2^bits.  Let d = deg a - deg b' and m = deg b'.  Pseudo-division
    gives lc(b')^(d+1) * a = q * b' + r with deg r < m and
    |r|_inf <= |a|_inf * (|lc b'| + |b'|_inf)^(d+1), one factor per step,
    and b' | a over Q exactly when r = 0.  If b' | a over Q it does over
    Z, so b'(X) | a(X).  Conversely b'(X) | a(X) gives b'(X) | r(X).
    `bits` makes X >= 2|r|_inf + 2|b'|_inf, read off bit lengths.  Then
    |r(X)| + |b'(X) - lc(b') X^m| <= (X/2)(X^m - 1)/(X - 1) < X^m, so
    |r(X)| < |b'(X)|, and r(X) = 0 only if r = 0 (the top term of a
    nonzero r outweighs the rest).  So b'(X) | a(X) forces r = 0.

    a(X) has about (deg a + 1) * bits bits, which grows with the degree
    gap.  When it needs more 64-bit words than long division takes steps
    ((d + 1) * the terms of b), `divided_by` decides instead.  Before it
    runs, a sparse dividend is reduced mod b' in F_p[t] for a word-size
    prime p not dividing lc(b'): b | a over Z survives the reduction, so a
    nonzero remainder proves that b does not divide a.  The route is read
    from bit lengths before any power is formed.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a, b = a.normalize(), b.normalize()
    if b.is_one() or a.is_zero():
        return True
    a_deg, b_deg = a.terms[-1][0], b.terms[-1][0]
    gap = a_deg - b_deg
    if gap < 0:
        return False
    content = math.gcd(*map(_coefficient, b.terms))
    if content > 1 and any(c % content for _, c in a.terms):
        return False
    primitive = b.terms if content == 1 else tuple((e, c // content) for e, c in b.terms)
    lead, b_norm = primitive[-1][1], max(map(abs, map(_coefficient, primitive)))
    a_norm = max(map(abs, map(_coefficient, a.terms)))
    bits = a_norm.bit_length() + (gap + 1) * (abs(lead) + b_norm).bit_length() + 2
    steps = (gap + 1) * len(b.terms)
    if (a_deg + 1) * bits <= 64 * steps:
        return _at_power_of_two(a.terms, bits) % _at_power_of_two(primitive, bits) == 0
    # The reduction mod p costs about this much; a constant b' has nothing
    # to reduce by.
    reduction = len(a.terms) * a_deg.bit_length() * b_deg**2
    if 0 < reduction < steps and _remainder_mod_prime(a.terms, primitive):
        return False
    return a.divided_by(b) is not None


def _at_power_of_two(terms: tuple[tuple[int, int], ...], bits: int) -> int:
    """The value at 2^bits, by Horner's rule, of the polynomial with these
    terms and min degree 0."""
    value, previous = 0, terms[-1][0]
    for e, c in reversed(terms):
        value = (value << (previous - e) * bits) + c
        previous = e
    return value


def _remainder_mod_prime(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]) -> bool:
    """Whether a mod b is nonzero in F_p[t], for the first prime p below
    2^61 that does not divide lc(b); a and b are terms with min degree 0,
    and deg b >= 1.  Each t^e of a is reduced by square-and-multiply, so
    the work is terms(a) * log(deg a) * deg(b)^2."""
    lead, m = b[-1][1], b[-1][0]
    p = next(q for q in range(2**61 - 1, 0, -2) if lead % q and is_prime(q))
    scale = pow(lead, -1, p)
    low = [0] * m  # t^m = low(t) mod b
    for e, c in b[:-1]:
        low[e] = -c * scale % p

    def times(x: list[int], y: list[int]) -> list[int]:
        product = [0] * (2 * m - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                product[i + j] += xi * yj
        for k in range(2 * m - 2, m - 1, -1):
            top = product[k] % p
            for i, li in enumerate(low):
                product[k - m + i] += top * li
        return [c % p for c in product[:m]]

    t = [0, 1] + [0] * (m - 2) if m > 1 else low
    total = [0] * m
    for e, c in a:
        power, base = [1] + [0] * (m - 1), t
        while e:
            if e & 1:
                power = times(power, base)
            e >>= 1
            base = times(base, base) if e else base
        total = [(v + c * w) % p for v, w in zip(total, power)]
    return any(total)


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime_power(n: int) -> bool | None:
    """True iff n = p^e with p prime and e >= 1; 1 is not a prime power.
    Trial division by the first 13 primes, then square roots while n is a
    square, then odd roots, then `is_prime` on the root.  None (undecided)
    when no root lies below 3.3e24."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    if n == 1:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    while (root := math.isqrt(n)) ** 2 == n:
        n = root
    # n is odd and no square, so n = r^e with r no perfect power has e odd,
    # and r > 2^5 bounds e by bits/5.  The first e from the top with an
    # exact root is that exponent.  An odd e-th power has exactly one odd
    # e-th root mod 2^82, and every root below the Miller-Rabin bound lies
    # below 2^82, so that 2-adic root is the only candidate.
    bits = n.bit_length()
    for e in range((bits // 5 - 1) | 1, 1, -2):
        root = pow(n % 2**82, pow(e, -1, 2**80), 2**82)
        width = root.bit_length()
        if (width - 1) * e < bits <= width * e and root**e == n:
            n = root
            break
    return is_prime(n)


def is_prime(n: int) -> bool | None:
    """Miller-Rabin with the first 13 primes as bases, a proof of
    primality below 3.3e24 (Sorenson and Webster, "Strong pseudoprimes to
    twelve prime bases", 2017).  None (undecided) from that bound up."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n >= _MILLER_RABIN_BOUND:
        return None
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False  # a witness that n is composite
    return True


# Report form: terms in ascending exponent, "c t^e" pieces joined by
# " + " / " - ", e.g. "1 - t + t^2".  Bit-exact for golden tests.

_TERM_RE = re.compile(r"(?:(\d+)\s*\*?\s*)?t(?:\^(-?\d+))?|(\d+)")


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for e, c in p.terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the textual form produced by format_poly.

    Accepts an optional "*" between coefficient and t, so both
    "2 - 3t + 2t^2" and "2 - 3*t + 2*t^2" round-trip.
    """
    s = text.strip()  # so every run of whitespace below ends at a token
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return LaurentPoly()
    coeffs: dict[int, int] = {}
    pos = 0
    sign = 1
    first = True
    while pos < len(s):
        while pos < len(s) and s[pos].isspace():
            pos += 1
        if not first or s[pos] in "+-":
            if s[pos] == "+":
                sign = 1
            elif s[pos] == "-":
                sign = -1
            else:
                raise ValueError(f"expected '+' or '-' at offset {pos} in {text!r}")
            pos += 1
            while pos < len(s) and s[pos].isspace():
                pos += 1
        first = False
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise ValueError(f"malformed term at offset {pos} in {text!r}")
        coeff_str, exp_str, const_str = m.groups()
        if const_str is not None:
            exp, coeff = 0, int(const_str)
        else:
            coeff = int(coeff_str) if coeff_str else 1
            exp = int(exp_str) if exp_str else 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        pos = m.end()
    return LaurentPoly.from_dict(coeffs)
