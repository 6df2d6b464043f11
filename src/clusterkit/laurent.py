"""Exact sparse Laurent-polynomial arithmetic over the integers.

A Laurent polynomial in m ambient variables is a finite sum of terms
c * x1^a1 * ... * xm^am with arbitrary-precision integer coefficients c and
signed integer exponents a_i in EXPONENT_MIN..EXPONENT_MAX, that is
-2^30..2^30 - 1.  Each exponent vector is stored as one int, its packed
key: m slots of 32 bits, slot 0 (x1) the most significant, each holding
a_i + 2^30.  An exponent in range fills its slot below the slot's top
bit, the guard bit, so integer order on keys is descending lexicographic
order on exponent vectors, and the key of a product term is the sum of
its factors' keys minus the key of the zero vector.  A slot leaves the
range only by setting its guard bit (a carry stays inside the slot, and a
borrow wraps the slot it leaves past the guard bit), so one test of
key & guard on every computed key refuses a wrapped result; an exponent
out of range, given or computed, raises ExponentRangeError.

A value holds its keys (strictly descending) and their nonzero
coefficients as two parallel tuples.  Structural equality of this
canonical form therefore coincides with mathematical equality, and values
are hashable and immutable.  The public view terms, the tuple of
(exponent tuple, coefficient) pairs in the same order, is unpacked on
first use and cached.

The public constructors (LaurentPoly(...), zero, const, variable,
monomial) check the exponent lengths, refuse any coefficient or exponent
that is not an int (bool included) or an exponent out of range, merge
repeated exponents, drop zero coefficients and sort.  Kernel arithmetic
on canonical operands yields canonical data by construction, so products,
sums, negation, shifts, exact quotients and divisions by a common
coefficient divisor are built through the private
LaurentPoly._from_canonical, which trusts its input and checks nothing.
RationalFn._from_canonical does the same for fractions that are reduced
by construction: constants, Laurent splits, negations and powers.
A product or quotient with a monomial factor is one addition to every
key of the other operand, which keeps their order, so it needs no
dictionary and no sort.  A square, a * a with one object as both
operands (as in x ** 2 and each squaring step of a power), adds each
diagonal term once and each pair of distinct terms once with its
coefficient doubled: about half the term products of the general loop,
with the same sums.  Exact division by a polynomial of two terms or more
takes each next leading remainder term from a heap of negated keys (after
Monagan and Pearce, Sparse polynomial division using a heap, J. Symbolic
Comput. 46, 2011) instead of scanning the remainder for its maximum.

The module also provides reduced fractions of ordinary polynomials
(RationalFn), exact Laurent division, multivariate integer gcd on
LaurentPoly values, computed with the cofactors RationalFn reduces by
(heuristic gcd GCDHEU first, accepted by the ordinary exact divisions
that yield them; subresultant remainder sequences as fallback), the composition
of ordinary polynomials at Laurent-polynomial images (a Laurent value is
composed as the numerator and monomial denominator RationalFn.from_laurent
splits it into), and the reducibility decision for X^d + 1 over the
rationals or the complexes.

Composition is multivariate Horner evaluation over the descending lex
order of the terms: one multiply by a power of one image per degree step,
the powers taken from one gap-power table that every value of the call
shares.  Its sums and products are exact, and the canonical form makes
equal values identical, so the result is the same as adding up each
term's product of image powers.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from itertools import repeat
from operator import and_, or_, rshift, sub
from typing import Iterable, Sequence

Exps = tuple  # exponent vector: one signed int per ambient variable

# the packed key layout (see the module docstring)
_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_GUARD_BIT = 1 << (_SLOT_BITS - 1)
_EXP_BIAS = 1 << (_SLOT_BITS - 2)  # a slot holds exponent + _EXP_BIAS
EXPONENT_MIN = -_EXP_BIAS
EXPONENT_MAX = _EXP_BIAS - 1


class _Layouts(dict):
    """m -> (bias, guard): the key of the zero exponent vector and the mask of the m guard bits."""

    def __missing__(self, m: int) -> tuple[int, int]:
        ones = sum(1 << (_SLOT_BITS * i) for i in range(m))
        layout = self[m] = (ones * _EXP_BIAS, ones * _GUARD_BIT)
        return layout


_LAYOUT = _Layouts()


def _shifts(m: int) -> range:
    """Bit offsets of slots 0..m-1 of a key."""
    return range(_SLOT_BITS * (m - 1), -1, -_SLOT_BITS)


class DimensionMismatch(ValueError):
    """Operands live in Laurent rings with different ambient variable counts."""


class ExponentRangeError(ValueError):
    """An exponent, given or computed, lies outside EXPONENT_MIN..EXPONENT_MAX."""


def _range_error(what: str) -> ExponentRangeError:
    return ExponentRangeError(f"{what} outside the exponent range {EXPONENT_MIN}..{EXPONENT_MAX}")


class NotDivisible(ArithmeticError):
    """Exact division failed: no quotient exists in the Laurent ring."""


class ParseError(ValueError):
    """Text did not conform to the polynomial or matrix grammar."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def parse_int(text: str) -> int:
    """The one integer rule for text: an optional sign and ASCII digits (int() alone
    would also read '1_0' as 10 and the digits of other scripts); ValueError otherwise."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class FieldTag(Enum):
    """Scalar field assumed for the reducibility decision of X^d + 1."""

    RATIONALS = "Q"
    COMPLEXES = "C"


def _require_int(value, what: str) -> None:
    # no int() coercion: it would read 1.5 as 1 and accept True and "3"
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _require_dimension(m) -> None:
    if type(m) is not int or m < 0:  # the fast test, as for the coefficients in __init__
        _require_int(m, "ambient dimension")
        if m < 0:
            raise ValueError(f"ambient dimension must be nonnegative, got {m}")


def _pack(exps: Iterable[int], what: str) -> int:
    """The key of an exponent vector; ValueError for an exponent that is no int or out of range."""
    key = 0
    for e in exps:
        # type() is the fast test; _require_int also admits int subclasses but bool
        if type(e) is not int:
            _require_int(e, what)
        if not EXPONENT_MIN <= e <= EXPONENT_MAX:
            raise _range_error(f"{what} {e}")
        key = key << _SLOT_BITS | (e + _EXP_BIAS)
    return key


def _sorted_parts(acc: dict[int, int]) -> tuple[tuple, tuple]:
    """(keys, coefficients) of a key -> coefficient dictionary: zeros dropped, keys descending."""
    if 0 in acc.values():
        acc = {k: c for k, c in acc.items() if c}
    keys = sorted(acc, reverse=True)
    return tuple(keys), tuple([acc[k] for k in keys])


def _slot_min(keys: tuple, guard: int) -> int:
    """The key whose every slot holds the minimum of that slot over the keys (at least one)."""
    low_bits = guard - (guard >> (_SLOT_BITS - 1))  # the bits below each guard bit
    out = keys[0]
    for k in keys[1:]:
        # ge holds a slot's guard bit where k >= out in that slot; keep spans those slots
        ge = ((k | guard) - out) & guard
        keep = ge - (ge >> (_SLOT_BITS - 1))
        out = (out & keep) | (k & (low_bits ^ keep))
    return out


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    Stored as packed exponent keys and coefficients (see the module
    docstring); terms is the unpacked view.
    """

    __slots__ = ("m", "_keys", "_coeffs", "_view", "_hash")

    def __init__(self, m: int, terms: dict[Exps, int] | Iterable[tuple[Exps, int]]):
        _require_dimension(m)
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[int, int] = {}
        for exps, c in items:
            if len(exps) != m:
                raise DimensionMismatch(
                    f"exponent vector of length {len(exps)} in ambient dimension {m}"
                )
            if type(c) is not int:  # the fast test, as in _pack
                _require_int(c, "Laurent polynomial coefficient")
            key = _pack(exps, "Laurent polynomial exponent")
            if c:
                acc[key] = acc.get(key, 0) + c
        keys, coeffs = _sorted_parts(acc)
        _set_m(self, m)
        _set_keys(self, keys)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _from_canonical(cls, m: int, keys: tuple, coeffs: tuple) -> "LaurentPoly":
        """Trusted constructor: keys and coeffs must already be canonical (see the module docstring)."""
        self = _new(cls)
        _set_m(self, m)
        _set_keys(self, keys)
        _set_coeffs(self, coeffs)
        return self

    @property
    def terms(self) -> tuple:
        """(exponent tuple, coefficient) pairs in descending lex order, unpacked once."""
        try:
            return self._view  # set on first use
        except AttributeError:
            shifts = _shifts(self.m)
            view = tuple([
                (tuple([(k >> s & _SLOT_MASK) - _EXP_BIAS for s in shifts]), c)
                for k, c in zip(self._keys, self._coeffs)
            ])
            _set_view(self, view)
            return view

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "LaurentPoly":
        _require_dimension(m)
        return LaurentPoly._from_canonical(m, (), ())

    @classmethod
    def const(cls, m: int, c: int) -> "LaurentPoly":
        _require_dimension(m)
        if type(c) is not int:
            _require_int(c, "Laurent polynomial coefficient")
        if not c:
            return LaurentPoly._from_canonical(m, (), ())
        return LaurentPoly._from_canonical(m, (_LAYOUT[m][0],), (c,))

    @classmethod
    def variable(cls, m: int, i: int) -> "LaurentPoly":
        """The coordinate monomial x_i (1-indexed)."""
        if type(i) is not int:  # the fast test, as in __init__
            _require_int(i, "variable index")
        _require_dimension(m)
        if not 1 <= i <= m:
            raise DimensionMismatch(f"variable index {i} outside 1..{m}")
        return LaurentPoly._from_canonical(m, (_LAYOUT[m][0] + (1 << _SLOT_BITS * (m - i)),), (1,))

    @classmethod
    def monomial(cls, m: int, exps: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return cls(m, {tuple(exps): coeff})

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._keys

    @property
    def is_one(self) -> bool:
        return self._coeffs == (1,) and self._keys[0] == _LAYOUT[self.m][0]

    @property
    def is_monomial(self) -> bool:
        return len(self._keys) == 1

    @property
    def term_count(self) -> int:
        """The number of terms, counted without unpacking them."""
        return len(self._keys)

    def support_vars(self) -> frozenset[int]:
        """1-indexed set of variables occurring with nonzero exponent."""
        out = set()
        for exps, _ in self.terms:
            for i, e in enumerate(exps):
                if e:
                    out.add(i + 1)
        return frozenset(out)

    def min_exponents(self) -> Exps:
        """Per-variable minimum exponent over all terms (zeros if empty)."""
        if not self._keys:
            return (0,) * self.m
        low = _slot_min(self._keys, _LAYOUT[self.m][1])
        return tuple([(low >> s & _SLOT_MASK) - _EXP_BIAS for s in _shifts(self.m)])

    def is_ordinary(self) -> bool:
        """True when no term carries a negative exponent."""
        bias, guard = _LAYOUT[self.m]
        # (k | guard) - bias keeps a slot's guard bit exactly when the slot holds >= bias
        return all(((k | guard) - bias) & guard == guard for k in self._keys)

    def sort_key(self):
        return tuple(zip(self._keys, self._coeffs))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"ambient dimensions differ: {self.m} vs {other.m}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not other._keys:
            return self
        if not self._keys:
            return other
        acc = dict(zip(self._keys, self._coeffs))
        get = acc.get
        for k, c in zip(other._keys, other._coeffs):
            acc[k] = get(k, 0) + c
        return LaurentPoly._from_canonical(self.m, *_sorted_parts(acc))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_canonical(self.m, self._keys, tuple([-c for c in self._coeffs]))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        m = self.m
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return LaurentPoly.zero(m)
            return LaurentPoly._from_canonical(m, self._keys, tuple([c * other for c in self._coeffs]))
        if other.m != m:
            self._check(other)
        a, b = (self, other) if len(self._keys) <= len(other._keys) else (other, self)
        akeys, bkeys, bcoeffs = a._keys, b._keys, b._coeffs
        bias, guard = _LAYOUT[m]
        if len(akeys) == 1:
            # a monomial factor adds one offset to every key and scales, keeping the order
            off, ca = akeys[0] - bias, a._coeffs[0]
            if len(bkeys) == 1:
                key = bkeys[0] + off
                if key & guard:
                    raise _range_error("a product exponent")
                return LaurentPoly._from_canonical(m, (key,), (ca * bcoeffs[0],))
            if ca != 1:
                bcoeffs = tuple([c * ca for c in bcoeffs])
            elif not off:
                return b
            if off:
                bkeys = tuple([k + off for k in bkeys])
                if reduce(or_, bkeys) & guard:
                    raise _range_error("a product exponent")
            return LaurentPoly._from_canonical(m, bkeys, bcoeffs)
        if not akeys:
            return a
        bterms = list(zip(bkeys, bcoeffs))
        acc: dict[int, int] = {}
        get = acc.get
        if a is b:
            # a square: each diagonal term once, each pair of distinct terms
            # once with its coefficient doubled; the sums are the general loop's
            for i, (ka, ca) in enumerate(bterms):
                off = ka - bias
                k = ka + off
                acc[k] = get(k, 0) + ca * ca
                ca += ca
                for kb, cb in bterms[i + 1:]:
                    k = kb + off
                    acc[k] = get(k, 0) + ca * cb
        else:
            for ka, ca in zip(akeys, a._coeffs):
                off = ka - bias
                for kb, cb in bterms:
                    k = kb + off
                    acc[k] = get(k, 0) + ca * cb
        # the extreme exponent of each slot never cancels (it comes from one
        # pair of terms), so the surviving keys show every overflow
        keys, coeffs = _sorted_parts(acc)
        if keys and reduce(or_, keys) & guard:
            raise _range_error("a product exponent")
        return LaurentPoly._from_canonical(m, keys, coeffs)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if type(k) is not int:  # the fast test; _power's k & 1 needs an int, and True is no exponent
            _require_int(k, "exponent")
        if k < 0:
            raise ValueError("negative powers are only defined for RationalFn values")
        return _power(self, k) if k else LaurentPoly.const(self.m, 1)

    def shift(self, offsets: Exps) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        if len(offsets) != self.m:
            raise DimensionMismatch(f"offsets of length {len(offsets)} in dimension {self.m}")
        bias, guard = _LAYOUT[self.m]
        off = _pack(offsets, "shift offset") - bias
        if not (off and self._keys):
            return self
        keys = tuple([k + off for k in self._keys])
        if reduce(or_, keys) & guard:
            raise _range_error("a shifted exponent")
        return LaurentPoly._from_canonical(self.m, keys, self._coeffs)

    def derivative(self, i: int) -> "LaurentPoly":
        """Formal partial derivative with respect to x_i (1-indexed)."""
        _require_int(i, "variable index")
        if not 1 <= i <= self.m:
            raise DimensionMismatch(f"variable index {i} outside 1..{self.m}")
        s = _SLOT_BITS * (self.m - i)
        one = 1 << s
        keys, coeffs = [], []
        # lowering one slot by 1 keeps the order of the terms it leaves nonzero
        for k, c in zip(self._keys, self._coeffs):
            e = (k >> s & _SLOT_MASK) - _EXP_BIAS
            if e:
                keys.append(k - one)
                coeffs.append(c * e)
        if keys and reduce(or_, keys) & _LAYOUT[self.m][1]:
            raise _range_error("a derivative exponent")
        return LaurentPoly._from_canonical(self.m, tuple(keys), tuple(coeffs))

    def evaluate(self, point: Sequence[int | Fraction]) -> Fraction:
        """Exact evaluation; coordinates hit by a negative exponent must be nonzero."""
        if len(point) != self.m:
            raise DimensionMismatch(f"point of length {len(point)} in dimension {self.m}")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for exps, c in self.terms:
            v = Fraction(c)
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.m == other.m and self._keys == other._keys and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        try:
            return self._hash  # set on first use
        except AttributeError:
            h = hash((self.m, self._keys, self._coeffs))
            _set_hash(self, h)
            return h

    def __repr__(self) -> str:
        return f"LaurentPoly({self.m}, {render_poly(self)!r})"


# __setattr__ refuses every assignment, so the constructors set the slots
# through their own descriptors
_new = object.__new__
_set_m = LaurentPoly.m.__set__
_set_keys = LaurentPoly._keys.__set__
_set_coeffs = LaurentPoly._coeffs.__set__
_set_view = LaurentPoly._view.__set__
_set_hash = LaurentPoly._hash.__set__


def _power(base, k: int):
    """base ** k for k >= 1 by square-and-multiply."""
    result = None
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a / b in the Laurent ring; NotDivisible if none exists.

    A monomial divisor c * x^e divides exactly when c divides every
    coefficient; the quotient is a shift and a scale.  Otherwise
    single-divisor leading-term reduction under descending lex order
    either terminates with zero remainder or proves that no exact quotient
    exists.  It runs on the terms as they are.  The lowest x_i-degree of a
    product is the sum of its factors' lowest x_i-degrees, so a quotient
    has exponents at least low = min(a) - min(b), per variable, and a
    quotient term below low proves that none exists; packed, that is one
    test of every slot at once.  This is reduction
    in the ordinary ring after shifting a by x^-min(a) and b by x^-min(b),
    because monomial shifts keep the lex order.  Each reduction step
    leaves a remainder whose terms all lie below the one just cancelled,
    so the quotient terms come out strictly descending, which is their
    canonical order.

    The remainder is a dictionary from key to coefficient, and its next
    leading key comes from a heap of negated keys (Monagan and Pearce,
    J. Symbolic Comput. 46, 2011), not from a scan of the dictionary.  The
    heap starts as a's keys, and a key is pushed when it enters the
    remainder, so the heap holds every remainder key.  It may also hold a
    key that has left: one cancelled by a later step (a stale entry), or
    a second copy of one cancelled and then re-created (a duplicate).  A
    popped key that is no longer in the remainder is such an entry and is
    skipped, so each step pops the largest remainder key.
    """
    a._check(b)
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    m = a.m
    bias, guard = _LAYOUT[m]
    bkeys, bcoeffs = b._keys, b._coeffs
    if len(bkeys) == 1:
        off, cb = bkeys[0] - bias, bcoeffs[0]
        keys, coeffs = a._keys, a._coeffs
        if cb != 1:
            if any(c % cb for c in coeffs):
                raise NotDivisible("coefficient not divisible by the monomial divisor's coefficient")
            coeffs = tuple([c // cb for c in coeffs])
        if off and keys:
            keys = tuple([k - off for k in keys])
            if reduce(or_, keys) & guard:
                raise _range_error("a quotient exponent")
        return LaurentPoly._from_canonical(m, keys, coeffs)
    if a.is_zero:
        return a
    # low, slot by slot, clamped to 0..guard bit: below the range every
    # quotient term passes, and above it none does
    min_a, min_b = _slot_min(a._keys, guard), _slot_min(bkeys, guard)
    low = 0
    for s in _shifts(m):
        v = (min_a >> s & _SLOT_MASK) - (min_b >> s & _SLOT_MASK) + _EXP_BIAS
        low = low << _SLOT_BITS | min(max(v, 0), _GUARD_BIT)
    lead, bl_c = bkeys[0] - bias, bcoeffs[0]
    tail = list(zip(bkeys[1:], bcoeffs[1:]))
    rem = dict(zip(a._keys, a._coeffs))
    get = rem.get
    # a max-heap of rem's keys, stored negated: every key is pushed when it
    # enters rem, and a's keys negated are ascending, which is already a heap
    heap = [-k for k in a._keys]
    qkeys, qcoeffs = [], []
    # a remainder key out of range is still exact and in lex order (every
    # slot is off by less than 2^31), so only the quotient terms are tested
    while rem:
        r = -heappop(heap)
        r_c = rem.pop(r, 0)
        if not r_c:
            continue  # cancelled since it was pushed, or a duplicate of one processed
        t = r - lead
        if t & guard:
            raise _range_error("a quotient exponent")
        if ((t | guard) - low) & guard != guard or r_c % bl_c:
            raise NotDivisible("leading term not divisible; quotient does not exist")
        t_c = r_c // bl_c
        qkeys.append(t)
        qcoeffs.append(t_c)
        off = t - bias
        for k, c in tail:
            k += off
            nc = get(k)
            if nc is None:
                rem[k] = -t_c * c
                heappush(heap, -k)
                continue
            nc -= t_c * c
            if nc:
                rem[k] = nc
            else:
                del rem[k]
    return LaurentPoly._from_canonical(m, tuple(qkeys), tuple(qcoeffs))


def _lead_quotient(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """lead(a) / lead(b) for nonzero a and b, or None when lead(b)'s coefficient
    does not divide lead(a)'s.

    A monomial factor keeps the order of the terms it multiplies, so this is
    the only monomial u that can give a == u * b.  Its key is ka - kb + bias,
    guard-checked like a quotient term of exact_div.
    """
    a._check(b)
    bias, guard = _LAYOUT[a.m]
    key = a._keys[0] - b._keys[0] + bias
    if key & guard:
        raise _range_error("a quotient exponent")
    ca, cb = a._coeffs[0], b._coeffs[0]
    if ca % cb:
        return None
    return LaurentPoly._from_canonical(a.m, (key,), (ca // cb,))


# ---------------------------------------------------------------------------
# multivariate gcd (ordinary polynomials, integer coefficients)
# ---------------------------------------------------------------------------


def _deg_in(p: LaurentPoly, v: int) -> int:
    s = _SLOT_BITS * (p.m - 1 - v)
    return max(map(and_, map(rshift, p._keys, repeat(s)), repeat(_SLOT_MASK))) - _EXP_BIAS


def _coefficients_in(p: LaurentPoly, v: int) -> dict[int, LaurentPoly]:
    """p as a polynomial in x_{v+1}: {exponent: coefficient with the v-slot zeroed}.

    One pass over p.  Zeroing one slot keeps the order of terms that agree
    in that slot, so every coefficient is canonical as collected.
    """
    s = _SLOT_BITS * (p.m - 1 - v)
    acc: dict[int, tuple[list, list]] = {}
    for k, c in zip(p._keys, p._coeffs):
        e = (k >> s & _SLOT_MASK) - _EXP_BIAS
        keys, coeffs = acc.setdefault(e, ([], []))
        keys.append(k - (e << s))
        coeffs.append(c)
    return {d: LaurentPoly._from_canonical(p.m, tuple(ks), tuple(cs)) for d, (ks, cs) in acc.items()}


def _prem(f: LaurentPoly, g: LaurentPoly, v: int) -> LaurentPoly:
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g in variable v."""
    dg = _deg_in(g, v)
    lg = _coefficients_in(g, v)[dg]
    e = _deg_in(f, v) - dg + 1
    r = f
    while not r.is_zero and _deg_in(r, v) >= dg:
        dr = _deg_in(r, v)
        offsets = (0,) * v + (dr - dg,) + (0,) * (f.m - v - 1)
        r = lg * r - (_coefficients_in(r, v)[dr] * g).shift(offsets)
        e -= 1
    return r * (lg**e) if e else r


def _content_in(p: LaurentPoly, v: int) -> LaurentPoly:
    g = LaurentPoly.zero(p.m)
    # ascending degree (the keys are distinct, so sorting never compares two
    # coefficients): the exit at 1 comes sooner than in term order
    for _, cf in sorted(_coefficients_in(p, v).items()):
        g = _poly_gcd_prs(g, cf)
        if g.is_one:
            break
    return g


def _normalize_sign(p: LaurentPoly) -> LaurentPoly:
    if p._coeffs and p._coeffs[0] < 0:
        return -p
    return p


def _prs_gcd(f: LaurentPoly, g: LaurentPoly, v: int) -> LaurentPoly:
    # subresultant polynomial remainder sequence on primitive inputs
    if _deg_in(f, v) < _deg_in(g, v):
        f, g = g, f
    r0, r1 = f, g
    coef = LaurentPoly.const(f.m, 1)
    h = LaurentPoly.const(f.m, 1)
    while True:
        d = _deg_in(r0, v) - _deg_in(r1, v)
        rem = _prem(r0, r1, v)
        if rem.is_zero:
            return r1
        if _deg_in(rem, v) == 0:
            return LaurentPoly.const(f.m, 1)
        r0, r1 = r1, exact_div(rem, coef * h**d)
        coef = _coefficients_in(r0, v)[_deg_in(r0, v)]
        if d > 0:
            h = exact_div(coef**d, h ** (d - 1)) if d > 1 else coef


def _poly_gcd_prs(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd by content/primitive-part recursion and subresultant sequences.

    Content and primitive part are split off recursively in the highest
    occurring variable; primitive parts go through a subresultant
    remainder sequence.  This is the fallback of poly_gcd and, in the
    tests, its reference.
    """
    if a.is_zero or b.is_zero:
        return _normalize_sign(a + b)  # gcd(0, p) = p up to sign
    va, vb = a.support_vars(), b.support_vars()
    if not va and not vb:
        return LaurentPoly.const(a.m, math.gcd(a._coeffs[0], b._coeffs[0]))
    v = max(va | vb) - 1
    if v + 1 not in va:
        return _poly_gcd_prs(a, _content_in(b, v))
    if v + 1 not in vb:
        return _poly_gcd_prs(_content_in(a, v), b)
    ca = _content_in(a, v)
    cb = _content_in(b, v)
    c = _poly_gcd_prs(ca, cb)
    pa = exact_div(a, ca)
    pb = exact_div(b, cb)
    g = _prs_gcd(pa, pb, v)
    if not g.is_one:
        g = exact_div(g, _content_in(g, v))
    return _normalize_sign(c * g)


# Evaluation points the heuristic tries per level before giving up.
_HEU_GCD_ATTEMPTS = 6


def _heu_gcd(f: LaurentPoly, g: LaurentPoly, active: tuple) -> tuple | None:
    """GCDHEU on nonzero ordinary polynomials whose variables lie in active.

    active holds the 0-based slots still free, in ascending order.  Evaluates
    the first of them at an integer xi, recurses on the images over the rest
    down to math.gcd, rebuilds a candidate h from the symmetric xi-adic digits
    of the image gcd and accepts its primitive part only if it divides both
    inputs in Z[x].  Returns (h, f/h, g/h), the quotients being the ones that
    acceptance computed, or None when it gives up, at this level or below.
    """
    content = math.gcd(_integer_content(f), _integer_content(g))
    if content > 1:
        f = _divide_coefficients(f, content)
        g = _divide_coefficients(g, content)
    if not active:
        return LaurentPoly.const(f.m, content), f, g  # no variables left: integer gcd
    # xi >= 2 * min(|f|, |g|) + 2 is the provable bound; +29 skips tiny xi
    xi = 2 * min(max(map(abs, f._coeffs)), max(map(abs, g._coeffs))) + 29
    v = active[0]
    for _ in range(_HEU_GCD_ATTEMPTS):
        fe = _evaluate_at(f, v, xi)
        ge = _evaluate_at(g, v, xi)
        if not (fe.is_zero or ge.is_zero):
            gamma = _heu_gcd(fe, ge, active[1:])
            if gamma is None:
                return None
            h = _interpolate_at(gamma[0], v, xi)
            cf = _ordinary_quotient(f, h)
            cg = None if cf is None else _ordinary_quotient(g, h)
            if cg is not None:
                return h * content, cf, cg
        # grow by about 2.73 * xi^(1/4), the schedule of sympy's heugcd
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_at(p: LaurentPoly, v: int, xi: int) -> LaurentPoly:
    """Substitute xi for x_{v+1}; the v-slot of the result is zero."""
    s = _SLOT_BITS * (p.m - 1 - v)
    powers = [1]
    acc: dict[int, int] = {}
    for k, c in zip(p._keys, p._coeffs):
        e = (k >> s & _SLOT_MASK) - _EXP_BIAS
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        k -= e << s
        acc[k] = acc.get(k, 0) + c * powers[e]
    return LaurentPoly._from_canonical(p.m, *_sorted_parts(acc))


def _interpolate_at(gamma: LaurentPoly, v: int, xi: int) -> LaurentPoly:
    """Primitive part of the polynomial whose x_{v+1}-coefficients are the
    symmetric xi-adic digits of gamma's coefficients (gamma's v-slot is zero)."""
    s = _SLOT_BITS * (gamma.m - 1 - v)
    half = xi // 2
    out: dict[int, int] = {}
    for k, c in zip(gamma._keys, gamma._coeffs):
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[k] = d
            c = (c - d) // xi
            k += 1 << s
    h = LaurentPoly._from_canonical(gamma.m, *_sorted_parts(out))
    return _divide_coefficients(h, _integer_content(h))


def _ordinary_quotient(f: LaurentPoly, h: LaurentPoly) -> LaurentPoly | None:
    """f / h when h divides f in Z[x] (a Laurent quotient with no negative exponent), else None."""
    if h.is_one:
        return f
    try:
        q = exact_div(f, h)
    except NotDivisible:
        return None
    return q if q.is_ordinary() else None


def _gcd_cofactors(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """(g, a/g, b/g) for nonzero ordinary a and b, g their gcd up to sign: the quotients
    GCDHEU accepted g by, or one exact division per operand after the fallback."""
    found = _heu_gcd(a, b, tuple(v - 1 for v in sorted(a.support_vars() | b.support_vars())))
    if found is not None:
        return found
    g = _poly_gcd_prs(a, b)
    return g, exact_div(a, g), exact_div(b, g)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Greatest common divisor of two ordinary integer polynomials.

    The heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput.
    1989) runs first: the common integer content is split off, one
    variable at a time is evaluated at an integer xi down to an integer
    gcd, and a candidate is rebuilt from symmetric xi-adic digits.  It is
    accepted only when both quotients are ordinary polynomials; exact_div
    alone would treat monomials as units and accept a candidate that is
    off by a monomial.  Every level starts at xi >= 2 * |f| + 2, with f
    the content-free input of smaller max-norm |f|, and only grows,
    because under that bound a candidate h dividing both inputs is their
    gcd (Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
    Thm 7.7).  In brief: the gcd is h * q with q(xi) dividing the content
    of the rebuilt candidate, which is at most xi/2.  Every root of a
    coefficient of f is below the Cauchy bound 1 + |f| <= xi/2, so q
    cannot involve the other variables (its leading coefficient in them
    would vanish at xi, and so would one of f) and, as a polynomial in
    the evaluated variable alone, would have |q(xi)| > xi/2; hence
    q = +-1.  The smaller start min(B, 99 * sqrt(B)) of other
    implementations falls below that bound once coefficients exceed about
    4,900.  When the heuristic gives up after a fixed number of
    evaluation points, the content/primitive-part subresultant remainder
    sequence computes the gcd instead.  The gcd comes with its cofactors:
    _gcd_cofactors returns the two quotients that accepted it (after the
    fallback, it divides once each), and RationalFn reduces by them.

    The result is normalized to a positive leading coefficient under lex
    order and divides both inputs exactly.
    """
    a._check(b)
    if not (a.is_ordinary() and b.is_ordinary()):
        raise ValueError("poly_gcd expects ordinary polynomials (no negative exponents)")
    if a.is_zero or b.is_zero:
        return _normalize_sign(a + b)  # gcd(0, p) = p up to sign
    return _normalize_sign(_gcd_cofactors(a, b)[0])


def xd_plus_one_reducible(d: int, field: FieldTag) -> bool:
    """Whether X^d + 1 factors nontrivially over the given scalar field.

    Over the complexes every degree >= 2 splits.  Over the rationals the
    polynomial is irreducible exactly when d is a power of two; any odd
    factor q > 1 of d yields the factor X^(d/q) + 1.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if field is FieldTag.COMPLEXES:
        return d >= 2
    return (d & (d - 1)) != 0


def odd_divisor(d: int) -> int | None:
    """The odd part of d, or None when d is a power of two.

    Any odd factor q > 1 of d shows X^d + 1 reducible over the rationals:
    with Y = X^(d/q), Y^q + 1 = (Y + 1)(Y^(q-1) - Y^(q-2) + ... + 1), so
    X^(d/q) + 1 divides X^d + 1.  The odd part is such a factor, found
    without factoring d, and it leaves d/q = 2^a: the factor X^(2^a) + 1
    is the 2^(a+1)-th cyclotomic polynomial, irreducible over Q.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    q = d // (d & -d)
    return q if q > 1 else None


# ---------------------------------------------------------------------------
# reduced rational functions
# ---------------------------------------------------------------------------


class RationalFn:
    """Reduced fraction of ordinary integer polynomials.

    Invariants: the denominator is nonzero, shares no factor (including
    integer content) with the numerator, and carries a positive leading
    coefficient under lex order.  The denominator is 1 exactly when the
    value is a polynomial.

    The field operations +, -, *, / and ** are kept public API: the
    package itself only divides (the CLI's --den) and splits Laurent
    values with from_laurent, but library users build fractions with the
    others, and the test suite's formal substitution uses them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        num._check(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not (num.is_ordinary() and den.is_ordinary()):
            raise ValueError("RationalFn components must be ordinary polynomials")
        num, den = _reduce_fraction(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @classmethod
    def _from_canonical(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFn":
        """Trusted constructor: num and den must already satisfy the class invariants."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def const(cls, m: int, c: int) -> "RationalFn":
        return RationalFn._from_canonical(LaurentPoly.const(m, c), LaurentPoly.const(m, 1))

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RationalFn":
        """Split a Laurent polynomial into an ordinary numerator over a monomial."""
        mins = p.min_exponents()
        den_exps = tuple(max(0, -e) for e in mins)
        num = p.shift(den_exps)
        den = LaurentPoly.monomial(p.m, den_exps)
        return RationalFn._from_canonical(num, den)

    @property
    def m(self) -> int:
        return self.num.m

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if not isinstance(other, RationalFn):
            return NotImplemented
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFn":
        return RationalFn._from_canonical(-self.num, self.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        if not isinstance(other, RationalFn):
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if not isinstance(other, RationalFn):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "RationalFn":
        """self ** k without a gcd: powers of coprime num and den stay coprime.

        In a UFD gcd(a^k, b^k) = gcd(a, b)^k = 1, and den^k keeps a positive
        leading coefficient.  A negative power inverts first: swapping the
        coprime pair needs only the sign moved onto the new numerator.
        """
        if type(k) is not int:
            _require_int(k, "exponent")
        num, den = self.num, self.den
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            num, den = (-den, -num) if num._coeffs[0] < 0 else (den, num)
            k = -k
        if not k:
            return RationalFn.const(self.m, 1)
        return RationalFn._from_canonical(num**k, den**k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial:
            return f"RationalFn({render_poly(self.num)!r})"
        return f"RationalFn({render_poly(self.num)!r} / {render_poly(self.den)!r})"


def _integer_content(p: LaurentPoly) -> int:
    """gcd of the coefficients of p (0 for the zero polynomial)."""
    return math.gcd(*p._coeffs)


def _divide_coefficients(p: LaurentPoly, d: int) -> LaurentPoly:
    """p with every coefficient divided by d, a nonzero divisor of all of them."""
    return LaurentPoly._from_canonical(p.m, p._keys, tuple([c // d for c in p._coeffs]))


def _reduce_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if num.is_zero:
        return num, LaurentPoly.const(num.m, 1)
    if den.is_monomial:
        # fast path: cancel the common monomial factor and integer content
        dexps, dc = den.terms[0]
        common = tuple(map(min, num.min_exponents(), dexps))
        num = num.shift(tuple(-e for e in common))
        g = math.gcd(_integer_content(num), dc)
        if g > 1:
            num = _divide_coefficients(num, g)
        den = LaurentPoly.monomial(num.m, tuple(map(sub, dexps, common)), dc // g)
    else:
        _, num, den = _gcd_cofactors(num, den)
    if den._coeffs[0] < 0:
        num, den = -num, -den
    return num, den


def _compose(polys: Sequence[LaurentPoly], images: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """Values of ordinary polynomials at Laurent-polynomial images x_i -> images[i-1].

    Multivariate Horner evaluation: p = sum over d of x1^d * p_d(x2, ...)
    is folded as (...(p_d1 * img1^(d1 - d2) + p_d2) * img1^(d2 - d3) + ...)
    * img1^dr over the degrees d1 > d2 > ... > dr of x1, and each p_d the
    same way in x2, and so on.  In descending lex order each p_d is a
    contiguous run of terms.  The walk keeps one accumulator per variable
    in a list, not in Python frames, so m is not bounded by the recursion
    limit: at each term it closes the levels after the first slot where the
    exponents differ from the previous term's, folding each into its
    parent, and steps that slot's level down by the gap.  Each degree step
    costs one multiply by a power of one image, where term-by-term
    composition multiplies full image powers for every term.  All the
    values share one table of these powers, so each is computed once per
    call, up from the largest lower power already in the table.  The sums
    and products are exact and the canonical form makes equal values
    identical, so the result is the term-by-term one.

    A negative exponent raises ValueError: RationalFn.from_laurent splits
    a Laurent value into the ordinary numerator and denominator that are
    composed instead.
    """
    m = images[0].m
    powers: list[dict[int, LaurentPoly]] = [{1: image} for image in images]

    def times_power(value: LaurentPoly, i: int, k: int) -> LaurentPoly:
        if not k:
            return value
        table = powers[i]
        power = table.get(k)
        if power is None:
            # up from the largest lower power in the table, each step by the
            # largest power in the table that still fits; every step is kept
            have = max(d for d in table if d < k)
            power = table[have]
            while have < k:
                step = max(d for d in table if d <= k - have)
                power = power * table[step]
                have += step
                table[have] = power
        return value * power

    values = []
    for p in polys:
        if not p.is_ordinary():
            raise ValueError("composition expects ordinary polynomials (no negative exponents)")
        n, zero = p.m, LaurentPoly.zero(m)
        if not p.terms:
            values.append(zero)
            continue
        # acc[i + 1] sums the closed runs of level i (the runs of one degree of
        # variable i + 1) in units of images[i] ** deg[i], deg[i] being the degree
        # of the open run; acc[0] collects the value
        acc = [zero] * (n + 1)
        prev = p.terms[0][0]
        deg = list(prev)
        for exps, c in p.terms:
            if exps is not prev:
                j = 0
                while exps[j] == prev[j]:
                    j += 1
                for i in range(n - 1, j, -1):
                    acc[i] = acc[i] + times_power(acc[i + 1], i, deg[i])
                    acc[i + 1] = zero
                acc[j + 1] = times_power(acc[j + 1], j, deg[j] - exps[j])
                deg[j:] = exps[j:]
                prev = exps
            acc[n] = acc[n] + LaurentPoly.const(m, c)
        for i in range(n - 1, -1, -1):
            acc[i] = acc[i] + times_power(acc[i + 1], i, deg[i])
        values.append(acc[0])
    return values


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def render_poly(p: LaurentPoly) -> str:
    """Canonical text form: terms joined by ' + '/' - ', factors by '*'."""
    if p.is_zero:
        return "0"
    names = [f"x{i + 1}" for i in range(p.m)]
    pieces = []
    for idx, (exps, c) in enumerate(p.terms):
        mag = abs(c)
        factors = []
        if mag != 1 or not any(exps):
            factors.append(str(mag))
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        body = "*".join(factors)
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


_SIGN = re.compile(r"\s*([-+−])")
_FACTOR = re.compile(r"\s*(?:([0-9]+)|x([0-9]+)(?:\s*\^\s*([-−]?)\s*([0-9]+)?)?)")
_STAR = re.compile(r"\s*\*")


def _expected(what: str, text: str, pos: int) -> ParseError:
    rest = text[pos:].lstrip()
    found = repr(rest[0]) if rest else "the end of the text"
    return ParseError(f"expected {what}, found {found}", len(text) - len(rest))


def parse_poly(text: str, m: int | None = None) -> LaurentPoly:
    """Parse the canonical text form back into a Laurent polynomial.

    A polynomial is a sequence of terms, each with a sign ('+', '-' or '−')
    that only the first may omit; a term is factors joined by '*'; a factor
    is an ASCII integer, or x<digits> with an optional '^', '-' or '−' and
    digits.  Whitespace may separate any two of these pieces.  Variables
    are 1-indexed (x1, x2, ...); when m is omitted it is inferred as the
    largest index seen.
    """
    end = len(text.rstrip())
    if not end:
        raise ParseError("empty polynomial", 0)
    raw_terms: list[tuple[int, dict[int, int]]] = []
    pos = 0
    while pos < end:
        sign = _SIGN.match(text, pos)
        if sign:
            pos = sign.end()
        elif raw_terms:
            raise _expected("'*', '+' or '-'", text, pos)
        coeff, exps = (-1 if sign and sign[1] != "+" else 1), {}
        star = True
        while star:
            factor = _FACTOR.match(text, pos)
            if factor is None:
                raise _expected("a coefficient or variable", text, pos)
            if factor[1]:
                coeff *= int(factor[1])
            elif int(factor[2]) < 1:
                raise ParseError("variable indices are 1-based", factor.start(2) - 1)
            elif factor[3] is not None and factor[4] is None:  # a '^' without its digits
                raise _expected("an integer exponent", text, factor.end())
            else:
                i, e = int(factor[2]), int(factor[4] or 1)
                exps[i] = exps.get(i, 0) + (-e if factor[3] else e)
            star = _STAR.match(text, factor.end())
            pos = star.end() if star else factor.end()
        raw_terms.append((coeff, exps))

    max_var = max((max(exps) for _, exps in raw_terms if exps), default=0)
    if m is None:
        m = max_var
    elif max_var > m:
        raise ParseError(f"variable x{max_var} outside ambient dimension {m}", 0)
    return LaurentPoly(m, [(tuple(exps.get(i, 0) for i in range(1, m + 1)), c) for c, exps in raw_terms])
