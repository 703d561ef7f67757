"""Braid words and an independent Alexander polynomial for benchmark inputs.

Nothing here imports knotdom: the generator must not use the program it
measures.  Braid closures become PD text by a separate traversal, and the
Alexander polynomial of a closure comes from the reduced Burau
representation, det(I - psi(beta)) = (1 + t + ... + t^(m-1)) * Delta(t),
rather than from Fox calculus.  Polynomials are dicts exponent -> int.
"""
from __future__ import annotations

import random
from functools import lru_cache


# -- Laurent polynomials as {exponent: coefficient} -------------------------

def p_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def p_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def p_normalize(a: dict) -> dict:
    """Multiply by +-t^k so the lowest exponent is 0 and its coefficient
    positive (the program's normal form for knot polynomials)."""
    if not a:
        return {}
    low = min(a)
    sign = 1 if a[low] > 0 else -1
    return {e - low: sign * c for e, c in a.items()}


def p_substitute_power(a: dict, w: int) -> dict:
    out: dict[int, int] = {}
    for e, c in a.items():
        out[e * w] = out.get(e * w, 0) + c
    return {e: c for e, c in out.items() if c}


def p_divide_monic(num: dict, den: dict) -> dict:
    """Exact quotient of polynomials with nonnegative exponents by a
    divisor whose leading coefficient is 1; raises if inexact."""
    rem = dict(num)
    top = max(den)
    quot: dict[int, int] = {}
    while rem and max(rem) >= top:
        e = max(rem)
        q = rem[e]
        quot[e - top] = q
        for d, c in den.items():
            rem[e - top + d] = rem.get(e - top + d, 0) - q * c
            if rem[e - top + d] == 0:
                del rem[e - top + d]
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


def p_format(a: dict) -> str:
    """Text in the grammar the corpus format reads: '2 - 3t + 2t^2'."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        body = str(abs(c)) if e == 0 else (
            ("" if abs(c) == 1 else str(abs(c))) + ("t" if e == 1 else f"t^{e}")
        )
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def torus2_delta(k: int) -> dict:
    """Closed form for T(2,k), k odd: 1 - t + t^2 - ... + t^(k-1)."""
    return {e: (-1) ** e for e in range(k)}


# -- braid words -------------------------------------------------------------

def permutation_is_cycle(strands: int, word: list[int]) -> bool:
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, j = set(), 0
    while j not in seen:
        seen.add(j)
        j = perm[j]
    return len(seen) == strands


def random_knot_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """A cyclically reduced word whose closure is a knot with nontrivial
    Alexander polynomial.  A knot on an even number of strands needs an
    odd length and vice versa (an m-cycle has parity m - 1)."""
    if (length + strands) % 2 == 0:
        raise ValueError(f"no {strands}-strand knot has {length} crossings")
    while True:
        word = []
        while len(word) < length:
            letter = rng.choice((1, -1)) * rng.randint(1, strands - 1)
            if word and letter == -word[-1]:
                continue
            word.append(letter)
        if word[0] == -word[-1]:
            continue
        if permutation_is_cycle(strands, word) and alexander_of_braid(strands, tuple(word)) != {0: 1}:
            return word


def braid_text(strands: int, word: list[int]) -> str:
    return f"B{strands}: " + " ".join(str(x) for x in word)


# -- braid closure to PD text --------------------------------------------------

def braid_pd_text(strands: int, word: list[int]) -> str:
    """PD code of the closure, by walking the knot once.  Each passage
    through a crossing starts a new arc label; letter sigma_i joins
    positions i-1, i (0-based), the strand from the upper left (NW) leaves
    at the lower right (SE), and a positive letter puts the NE->SW strand
    on top.  Tuples read counterclockwise from the incoming under-strand."""
    n = len(word)
    if not permutation_is_cycle(strands, word):
        raise ValueError("closure is not a knot")
    enter: dict[tuple[int, str], int] = {}
    leave: dict[tuple[int, str], int] = {}
    pos, k, label = 0, 0, 1
    for _ in range(2 * n):
        while True:  # next letter at or after k touching `pos`, wrapping
            if k == n:
                k = 0
            i = abs(word[k]) - 1
            if pos in (i, i + 1):
                break
            k += 1
        from_left = pos == i
        enter[(k, "NW" if from_left else "NE")] = label
        label = label % (2 * n) + 1
        leave[(k, "SE" if from_left else "SW")] = label
        pos = i + 1 if from_left else i
        k += 1
    tuples = []
    for k, letter in enumerate(word):
        nw, ne, sw, se = enter[(k, "NW")], enter[(k, "NE")], leave[(k, "SW")], leave[(k, "SE")]
        tuples.append((nw, sw, se, ne) if letter > 0 else (ne, nw, sw, se))
    return " ".join(f"X({a},{b},{c},{d})" for a, b, c, d in tuples)


# -- reduced Burau representation ---------------------------------------------

_T, _TI, _ONE, _MT, _MTI = {1: 1}, {-1: 1}, {0: 1}, {1: -1}, {-1: -1}


def _generator_matrix(strands: int, letter: int) -> list[list[dict]]:
    """Reduced Burau image of sigma_i^(+-1), size (strands-1)^2."""
    size = strands - 1
    m = [[(_ONE if r == c else {}) for c in range(size)] for r in range(size)]
    i = abs(letter)  # 1-based generator; rows/cols i-2, i-1, i hold the block
    if letter > 0:
        block = {(0, 0): _ONE, (0, 1): _T, (1, 1): _MT, (2, 1): _ONE, (2, 2): _ONE}
    else:
        block = {(0, 0): _ONE, (0, 1): _ONE, (1, 1): _MTI, (2, 1): _TI, (2, 2): _ONE}
    for (r, c), v in block.items():
        rr, cc = i - 2 + r, i - 2 + c
        if 0 <= rr < size and 0 <= cc < size:
            m[rr][cc] = v
    return m


def _mat_mul(a, b):
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for k in range(n):
            if a[r][k]:
                for c in range(n):
                    if b[k][c]:
                        out[r][c] = p_add(out[r][c], p_mul(a[r][k], b[k][c]))
    return out


def _det(m: list[list[dict]]) -> dict:
    """Determinant by cofactor expansion along rows, memoized on the set
    of columns still free (the matrices here are at most 5x5)."""
    n = len(m)

    @lru_cache(maxsize=None)
    def minor(row: int, cols: frozenset) -> tuple:
        if row == n:
            return ((0, 1),)
        total: dict = {}
        for sign_index, c in enumerate(sorted(cols)):
            if not m[row][c]:
                continue
            sub = dict(minor(row + 1, cols - {c}))
            term = p_mul(m[row][c], sub)
            total = p_add(total, term, -1 if sign_index % 2 else 1)
        return tuple(sorted(total.items()))

    return dict(minor(0, frozenset(range(n))))


@lru_cache(maxsize=4096)
def alexander_of_braid(strands: int, word: tuple[int, ...]) -> dict:
    """Normalized Alexander polynomial of the braid closure."""
    if strands == 1:
        return {0: 1}
    size = strands - 1
    acc = [[(_ONE if r == c else {}) for c in range(size)] for r in range(size)]
    for letter in word:
        acc = _mat_mul(acc, _generator_matrix(strands, letter))
    minus = [
        [p_add(_ONE if r == c else {}, acc[r][c], -1) for c in range(size)]
        for r in range(size)
    ]
    det = p_normalize(_det(minus))
    return p_normalize(p_divide_monic(det, {e: 1 for e in range(strands)}))
