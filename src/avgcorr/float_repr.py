"""The exact `float.__repr__` text of many float64 values at once, in numpy.

`repr_bytes` writes the shortest text that reads back as each value, the
one `repr` writes, as NUL-padded bytes, with no per-value Python call for
all but a few values: Dekker's exact double-double product (Numer. Math.
18 (1971) 224-242) settles the digits, and every value the fast path
cannot prove goes to `repr`, as in Loitsch's Grisu3 ("Printing
Floating-Point Numbers Quickly and Accurately", PLDI 2010). `cli`'s JSON
writer loads this module on its first call, and runs `repr_bytes` on the
numbers of a decay curve that its rows do not repeat.
"""

from __future__ import annotations

import numpy as np

from .cli import DIGITS4

_E_MIN, _E_MAX = -308, 308  # the decades of the normal doubles


def _pow10_parts(k: int) -> tuple[float, float, int]:
    """hi, lo and b with hi + lo = 10**k / 2**b to 2**-106 and hi in [1, 2),
    each rounded correctly from Python ints (int / int is)."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    b = num.bit_length() - den.bit_length()
    b -= (num << max(-b, 0)) < (den << max(b, 0))
    num, den = (num, den << b) if b >= 0 else (num << -b, den)
    hi = num / den
    return hi, ((num << 52) - int(hi * 2**52) * den) / (den << 52), b


# 10**(16 - e) for each decade e as (hi + lo) * 2**b, at index e - _E_MIN
_POW_HI, _POW_LO, _POW_EXP = (np.array(column) for column in zip(
    *[_pow10_parts(16 - e) for e in range(_E_MIN, _E_MAX + 1)]))
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter: c - (c - a), c = a * _SPLIT, is a's upper half
_POW_HI_HI = _POW_HI * _SPLIT - (_POW_HI * _SPLIT - _POW_HI)  # _POW_HI's halves
_POW_HI_LO = _POW_HI - _POW_HI_HI
# A cell whose rounding or half-ulp comparison lies within this many units
# of n's 17th digit of a tie goes to repr; n is within 1e-14 of them.
_TIE = 1e-6
_WIDTH = 24  # the widest text: "-1.2345678901234567e-308"
_PLACE_NUMBERS = np.arange(1, 18, dtype=np.uint8)[:, None]  # 1 .. 17, down a column


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each cell group 21 * negative + g, where g = e + 4 for the fixed
    point texts of decades e = -4 .. 15 and g = 20 for the scientific ones,
    and for the group 42 of the cells repr writes: the template bytes as a
    column of a (24, 43) array, the slots of the 17 digits and the dot, and
    the text's extent for each count of digits kept."""
    templates = np.zeros((_WIDTH, 43), np.uint8)
    slots = np.zeros((43, 18), np.intp)
    extents = np.zeros((43, 18), np.intp)
    for neg in (0, 1):
        for g in range(21):
            e = g - 4
            if g < 4:  # "0.00ddd": the digits follow the dot and -e - 1 zeros
                text = "0." + "0" * (-e - 1)
                digit_slots = [len(text) + j for j in range(17)]
                dot, ends = 1, [len(text) + keep for keep in range(18)]
            elif g < 20:  # "ddd.ddd": the dot follows e + 1 digits
                text = ""
                digit_slots = [j + (j > e) for j in range(17)]
                dot, ends = e + 1, [keep + 1 for keep in range(18)]
            else:  # "d.ddde+XX", the exponent written in the slots after "e"
                text = "\0" * 18 + "e"
                digit_slots = [j + (j > 0) for j in range(17)]
                dot, ends = 1, [23] * 18
            k = 21 * neg + g
            text = ("-" * neg + text).ljust(_WIDTH, "\0")
            templates[:, k] = np.frombuffer(text.encode(), np.uint8)
            slots[k] = np.add([*digit_slots, dot], neg)
            extents[k] = np.add(ends, neg)
    return templates, slots, extents


_TEMPLATES, _SLOTS, _EXTENTS = _layouts()
# the exponent after "e" at index e - _E_MIN, a NUL between the sign and
# two digits
_EXPONENTS = np.array([f"{e:+04d}" if abs(e) >= 100 else f"{e:+04d}"[0] + "\0" + f"{e:+04d}"[2:]
                       for e in range(_E_MIN, _E_MAX + 1)], dtype="S4").view(np.uint32)


def _scaled_by_pow10(m: np.ndarray, exp2: np.ndarray, e: np.ndarray):
    """n = m * 2**exp2 * 10**(16 - e) as hi + lo, to 2**-104 of n: m times
    the table's hi by Dekker's exact product, plus m times its lo."""
    i = e - _E_MIN
    product = m * _POW_HI[i]
    c = m * _SPLIT
    m_hi = c - (c - m)
    m_lo = m - m_hi
    p_hi, p_lo = _POW_HI_HI[i], _POW_HI_LO[i]
    error = ((m_hi * p_hi - product) + m_hi * p_lo + m_lo * p_hi) + m_lo * p_lo + m * _POW_LO[i]
    scale = exp2 + _POW_EXP[i]
    return np.ldexp(product, scale), np.ldexp(error, scale)


def _rounding(r: np.ndarray, lo: np.ndarray, unit: float):
    """For n = hi + lo with r = hi mod `unit`: delta with hi + delta the
    multiple of `unit` nearest n, and its distance from n."""
    v = r + lo  # n - (hi - r)
    k = unit * np.rint(v / unit)
    return k - r, np.abs(v - k)


def _nearest_round_trip(hi: np.ndarray, lo: np.ndarray, half: np.ndarray):
    """For n = hi + lo in [1e16, 1e17], hi an integer, and a half-ulp
    `half` in the same units: the first of n rounded to 15, 16 and 17
    digits that lies within `half` of n, as a 17-digit integer split into
    its upper 9 and lower 8 digits (10**17 when the rounding carries), and
    where a comparison lies within _TIE of a tie.

    Where any text of at most 15 digits rounds to x, the 15-digit rounding
    does, since half the 15-digit spacing is wider than half an ulp; the
    nearest 16-digit text rounds to x where any 16-digit one does, and the
    17-digit one always does. Each rounding is hi plus a small integer, so
    it is found in floats from hi's last two digits.
    """
    top, low = np.divmod(hi.astype(np.int64), 10**8)
    low = low.astype(float)
    r100 = low - 100.0 * np.floor(low / 100.0)
    delta15, d15 = _rounding(r100, lo, 100.0)
    delta16, d16 = _rounding(r100 - 10.0 * np.floor(r100 / 10.0), lo, 10.0)
    delta17, d17 = _rounding(0.0, lo, 1.0)
    del r100
    ok15, ok16 = d15 < half, d16 < half
    tie = np.abs(d15 - half) < _TIE
    tie |= ~ok15 & ((np.abs(d16 - half) < _TIE)
                    | ok16 & (np.abs(d16 - 5.0) < _TIE)
                    | ~ok16 & (np.abs(d17 - 0.5) < _TIE))
    low += np.where(ok15, delta15, np.where(ok16, delta16, delta17))
    carry = np.floor(low / 1e8)  # -1, 0 or 1
    return top + carry, low - 1e8 * carry, tie


def _scaled_decade(x: np.ndarray):
    """n = |x| * 10**(16 - e) in [1e16, 1e17] as hi + lo, hi an integer,
    half an ulp of x in the same units, the decade e of x, and where x is
    a normal double other than a power of two (whose gap below is half the
    one above)."""
    size = np.abs(x)
    fast = (size >= 2.0**-1022) & (size <= np.finfo(float).max)
    size[~fast] = 1.5  # any normal value; its digits are discarded
    m, exp2 = np.frexp(size)
    fast &= m != 0.5
    e = np.floor(np.log10(size, out=size), out=size).astype(np.intp)
    del size
    hi, lo = _scaled_by_pow10(m, exp2, e)
    # log10 may miss the decade by one next to a power of ten
    shift = ((hi > 1e17) | (hi == 1e17) & (lo >= 0.0)).astype(np.intp)
    shift -= (hi < 1e16) | (hi == 1e16) & (lo < 0.0)
    if (moved := np.flatnonzero(shift)).size:
        e[moved] += shift[moved]
        hi[moved], lo[moved] = _scaled_by_pow10(m[moved], exp2[moved], e[moved])
    return hi, lo, hi / m * 2.0**-54, e, fast  # ulp(x) / 2 = 2**(exp2 - 54)


def _shortest_digits(x: np.ndarray):
    """The digits float.__repr__ writes for each x, as the 9 upper and 8
    lower digits of a 17-digit integer with trailing zeros, the decade e of
    that text, and where they are proven: everywhere but at zero,
    subnormals, non-finite values, powers of two and near-ties."""
    hi, lo, half, e, fast = _scaled_decade(x)
    top, low, tie = _nearest_round_trip(hi, lo, half)
    del hi, lo, half
    carry = top == 1e9
    return np.where(carry, 1e8, top), low, e + carry, fast & ~tie


def _digit_planes(top: np.ndarray, low: np.ndarray, out: np.ndarray) -> None:
    """The 17 ASCII digits of 1e8 * top + low, top of 9 digits and low of
    8, in the 17 rows of `out`; floors of quotients of integers below 2**53
    are exact."""
    lead = np.floor(top / 1e8)
    out[0] = lead + ord("0")
    halves = np.stack((top - 1e8 * lead, low))
    upper = np.floor(halves / 1e4)
    quads = np.take(DIGITS4, np.stack((upper, halves - 1e4 * upper), axis=1).astype(np.intp))
    out[1:].reshape(4, 4, -1)[...] = quads.reshape(4, -1).view(np.uint8).reshape(
        4, -1, 4).transpose(0, 2, 1)


def repr_bytes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text `float.__repr__` writes for each value of the 1-D float64
    `x`, NUL-padded, as an (x.size, 24) uint8 array, and the extent of each
    cell up to its last non-NUL byte. A cell may hold NULs inside its text
    ("1.5", NULs, "e+300"); deleting them leaves the text.

    `_shortest_digits` finds the digits and the cells they are proven for;
    the rest go to repr, once per bit pattern. The cells are sorted by
    (sign, decade) and each group's digits are written into its template's
    slots at once: fixed point from 1e-4 to 1e16 with trailing zeros
    dropped and ".0" kept, else "d.ddde-XX", with no dot after a lone
    digit. The bytes are built as (slot, cell) planes, so numpy's loops run
    over cells.
    """
    top, low, e, fast = _shortest_digits(x)
    group = np.where((e < -4) | (e > 15), 20, e + 4)
    key = np.where(fast, 21 * np.signbit(x) + group, 42).astype(np.uint8)
    del fast
    order = np.argsort(key, kind="stable")
    key, group, e = key[order], group[order], e[order]
    bounds = np.searchsorted(key, np.arange(44)).tolist()
    content = np.empty((18, x.size), np.uint8)  # the 17 digits and the dot
    _digit_planes(top[order], low[order], content[:17])
    del top, low
    kept = ((content[:17] != ord("0")) * _PLACE_NUMBERS).max(axis=0)
    # fixed point keeps the digits before the dot and one after it
    np.maximum(kept, group - 2, out=kept, where=(group >= 4) & (group < 20), casting="unsafe")
    content[:17] *= _PLACE_NUMBERS <= kept  # trailing zeros become NULs
    content[17] = np.where((kept > 1) | (group < 20), ord("."), 0)
    planes = np.zeros((_WIDTH, x.size), np.uint8)
    for k in range(42):
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi:
            continue
        planes[:, lo:hi] = _TEMPLATES[:, k, None]
        planes[_SLOTS[k], lo:hi] = content[:, lo:hi]
        neg, g = divmod(k, 21)
        if g == 20:  # the exponent, in the four slots after "e"
            exponent = np.take(_EXPONENTS, e[lo:hi] - _E_MIN).view(np.uint8)
            planes[neg + 19:neg + 23, lo:hi] = exponent.reshape(-1, 4).T
    extents = _EXTENTS[key, kept]
    del content, group, e, kept
    slow_x = x[order[bounds[42]:]]
    bits = slow_x.view(np.int64).tolist()
    # one repr per bit pattern: the zeros and powers of two repeat
    text_of = {pattern: repr(v) for pattern, v in dict(zip(bits, slow_x.tolist())).items()}
    slow = [text_of[pattern] for pattern in bits]
    if slow:
        planes[:, bounds[42]:] = np.array(slow, dtype=f"S{_WIDTH}").view(np.uint8).reshape(
            len(slow), _WIDTH).T
        extents[bounds[42]:] = list(map(len, slow))
    cells, cell_extents = np.empty((x.size, _WIDTH), np.uint8), np.empty_like(extents)
    cells[order], cell_extents[order] = planes.T, extents  # undo the sort
    return cells, cell_extents
