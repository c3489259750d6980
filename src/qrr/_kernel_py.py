"""Exact truncated convolution by Kronecker substitution.

A coefficient list a is packed into one Python int, a[0] + a[1]*2**w +
a[2]*2**(2w) + ..., with a digit width w wide enough that every output
coefficient fits in a signed w-bit digit.  One bignum multiply then does the
whole convolution, and the low digits of the product, read as signed digits,
are c[k] = sum_{i+j=k} a[i]*b[j].  Each output row takes its own width,
sized by what its terms can produce through the order (`_term`), and wide
enough for every digit packed for it; the cost of a bignum multiply grows
with that width.

Inputs are plain lists of Python ints of any size, and outputs are exact.

`conv_rows` is the one entry point.  It multiplies two windows of lists (the
z-slices of two z-series; a single product is a window of one list on each
side) and sums the products of given pairs into each output row.  A call of
more than one pair is planned per key pair, not per pair of lists: it keys
every list once by its content up to a unit of Z[i] (a real list up to
sign, a purely imaginary list as +-i times a real one), packs one list per
key and digit width, and in each row sums the Gaussian weights of its pairs,
the products of the two lists' units, into terms (unordered key pair,
shift).  Only then is a term looked at: one whose weights sum to 0 is not
planned or multiplied, and the others are multiplied once with the sum of
their weights.  So E(cz)*E(-cz), which holds each term twice in one row,
plans and forms none of its odd rows and each product of its even rows
once.  Rows with the same terms and weights are one plan entry that lists
every row it serves, formed once, and each of those rows is its one result
(the mirrored rows of E(z)*E(1/z), say).  Every entry is one accumulated
bignum, unpacked once.  Real and complex lists mix freely; a
complex list times a complex list takes three real products (Karatsuba).

Digits move between lists and ints (`_pack`, `_unpack`) by one of two paths,
chosen from the digit width wb and the list's length alone.  The per-digit
path makes one Python call per digit.  The byte path treats the digits as the
host's signed array cells of 1, 2, 4 or 8 bytes, the smallest that hold wb
bytes (`array`, `memoryview.cast`), and moves the wb low bytes of every cell
to or from the packed int's bytes with one strided copy per byte position: a
fixed number of C-level operations, whatever the length.  Widths of a cell's
own size need no copy and take the byte path at every length; the other
widths up to 8 bytes take it from 2*cell digits (unpack) or 8*wb digits
(pack), below which the copies cost more than the calls they replace.
Digits wider than 8 bytes keep the per-digit path, as does every width on a
big-endian host, whose cells hold their bytes in the other order.
"""

import sys
from array import array
from itertools import accumulate
from operator import neg


def _width(bound: int) -> int:
    """Bytes per digit that hold any integer of size at most bound, plus a
    sign bit."""
    return (bound.bit_length() + 8) // 8


def _tops(wb: int, n: int) -> int:
    """The top bit of each of n digits of wb bytes: sum 2**(8*wb*(k+1)-1)."""
    return int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")


def _cell_table() -> dict:
    """{wb: (size, typecode)} of the smallest signed array cell that holds wb
    bytes, for wb up to the largest cell; empty on a big-endian host, since
    array and memoryview.cast read and write cells in the host's byte order."""
    if sys.byteorder != "little":
        return {}
    cells = sorted((array(code).itemsize, code) for code in "bhiq")
    return {wb: next(c for c in cells if c[0] >= wb) for wb in range(1, cells[-1][0] + 1)}


_CELLS = _cell_table()
# a digit's top byte -> the byte that extends its sign
_SIGNS = bytes(128) + b"\xff" * 128


def _pack(a: list, wb: int) -> int:
    """sum a[i] * 2**(8*wb*i) for digits a[i] that fit in wb signed bytes.

    Both paths lay the digits out in wb-byte two's complement, read the bytes
    as one unsigned int and then undo the borrows.  The byte path writes the
    digits as cells with one `array(...).tobytes()`, keeping the low wb bytes
    of each cell with one strided copy per byte position (none when wb is the
    cell size); on a little-endian host it is taken when wb is a cell size,
    or from 8*wb digits, below which the copies cost more than the per-digit
    `to_bytes` calls."""
    n = len(a)
    cell = _CELLS.get(wb)
    if cell and (cell[0] == wb or n >= 8 * wb):
        slot, code = cell
        cells = array(code, a).tobytes()
        if slot == wb:
            buf = cells
        else:
            buf = bytearray(wb * n)
            for j in range(wb):
                buf[j::wb] = cells[j::slot]
    else:
        buf = b"".join([x.to_bytes(wb, "little", signed=True) for x in a])
    u = int.from_bytes(buf, "little")
    # each negative digit was written as x + 2**w, borrowing 2**w from the digit
    # above it; the digit's top bit marks exactly those borrows
    return u - ((u & _tops(wb, n)) << 1)


def _unpack(c: int, wb: int, nout: int) -> list:
    """The low nout signed digits of c, each smaller than 2**(8*wb-1) in size.

    The byte path reads the digits as cells with one
    `memoryview.cast(...).tolist()`.  It copies each digit's wb bytes of two's
    complement into a cell with one strided copy per byte position, and fills
    the cell's higher bytes from one `bytes.translate` of the digits' top
    bytes (no copy or fill when wb is the cell size).  On a little-endian
    host it is taken when wb is a cell size, or from twice the cell size in
    digits, below which those copies cost more than the per-digit
    `from_bytes` calls."""
    n = wb * nout
    tops = _tops(wb, nout)
    # adding 2**(w-1) to every digit makes each one nonnegative and below
    # 2**w, so no digit borrows from the next and each reads back on its own
    c = (c + tops) & ((1 << 8 * n) - 1)
    cell = _CELLS.get(wb)
    if cell and (cell[0] == wb or nout >= 2 * cell[0]):
        slot, code = cell
        buf = (c ^ tops).to_bytes(n, "little")  # each digit's two's complement
        if slot != wb:
            cells = bytearray(slot * nout)
            for j in range(wb):
                cells[j::slot] = buf[j::wb]
            signs = buf[wb - 1 :: wb].translate(_SIGNS)
            for j in range(wb, slot):
                cells[j::slot] = signs
            buf = cells
        return memoryview(buf).cast(code).tolist()
    buf = c.to_bytes(n, "little")
    half = 1 << 8 * wb - 1
    return [int.from_bytes(buf[i : i + wb], "little") - half for i in range(0, n, wb)]


def conv_rows(a: dict, b: dict, rows: dict, top: int, g: int) -> dict:
    """Rows of the product of two windows of coefficient lists.

    a[i] = (v, re, im) holds re[t] + i*im[t] at position v + g*t, v >= 0, with
    im None for a real list; b likewise.  For each k in rows, row k is the sum over the
    pairs (i, j) in rows[k] of the products a[i]*b[j], through position `top`;
    the positions v_a + v_b of the pairs in one row must agree mod g.  Returns
    {k: (v, re, im)} on the same stride (im None for a row of real lists),
    without the rows that have no position <= top or whose terms all cancel.

    A pair reaches n = (top - v_a - v_b)//g + 1 digits; a pair with n <= 0,
    or with a list that is empty or zero through n digits, adds nothing.  A
    call of more than one pair keys each list by its content up to a unit of
    Z[i] (`_form`), and packs the first list of each key; one pair is keyed by
    identity.  Each pair is then a term (unordered key pair, position v_a +
    v_b) with weight u_a*u_b, the units that take the packed lists to a[i] and
    b[j].  A row sums the weights of its terms first (`_plan_rows`), so a term
    whose weights sum to 0 is not formed: E(cz)*E(-cz) forms none of its
    odd rows and each product of its even rows once.  Each row's digit width
    holds the sum over its terms of (|w_re| + |w_im|) times the term's bound
    on its digits (`_term`: from the largest entries of its two lists over
    the digits it reaches, and, when the order cuts the product, over the
    first half of those of each list it cuts short), and every digit packed
    for the row.  A key is packed once per width, as far as the terms of
    that width reach, at the first plan entry that reads it, and dropped
    after the last entry that forms a product of it, as is each entry; each
    operand longer than its term's reach is masked to n digits: that changes
    it by a multiple of 2**(w*n), which moves only digits at or past the
    row's last.

    Two rows with the same terms and weights are equal: in one call the
    position fixes each term's reach, and so the row's base, length and width,
    and x*y = y*x exactly.  The planner makes them one entry that lists each
    row it serves, and the entry is formed and unpacked once and stored, one
    tuple, under each of its rows (the rows z**k and z**-k of E(z)*E(1/z),
    say).  Lists are never changed while a window holds them.
    """
    plan, reach, reps = _plan_rows(a, b, rows, top, g)
    done = {}  # plan entry -> the packs no later entry forms a product of
    for key, (_, r) in reach.items():
        done.setdefault(r, []).append(key)
    packs = {}

    def pack(x, wb):
        p = packs.get((x, wb))
        if p is None:
            n = reach[x, wb][0]
            re, im = reps[x]
            p = packs[x, wb] = (n, _pack(re[:n], wb), None if im is None else _pack(im[:n], wb))
        return p

    out = {}
    for r in range(len(plan)):
        ks, base, nout, wb, complex_row, terms = plan[r]
        plan[r] = None  # the entry's terms are not read again
        rr = ii = 0
        for x, y, v, n, _, _, wr, wi in terms:
            xr, xi = _reach(pack(x, wb), wb, n)
            yr, yi = _reach(pack(y, wb), wb, n)
            pr = xr * yr
            if xi is None:
                pi = 0 if yi is None else xr * yi
            elif yi is None:
                pi = xi * yr
            else:  # three products (Karatsuba)
                p2 = xi * yi
                pi = (xr + xi) * (yr + yi) - pr - p2
                pr -= p2
            s = 8 * wb * ((v - base) // g)
            rr += (wr * pr - wi * pi) << s
            ii += (wr * pi + wi * pr) << s
        for key in done.pop(r, ()):
            del packs[key]
        row = base, _unpack(rr, wb, nout), _unpack(ii, wb, nout) if complex_row else None
        for k in ks:
            out[k] = row
    return out


def _form(re: list, im, keyed: bool) -> tuple:
    """(key, e, f, parts) for the list x = re + i*im: x = i**e * L and parts =
    i**f * L, for a list L that depends only on the key.  parts is (re, im),
    or (im, None) for a purely imaginary list, never copied.  With `keyed`,
    the key is L's content as tuples built in C: a real list up to sign, and
    otherwise the unit multiple whose first nonzero entry has re > 0, im >= 0.
    Without, the key is None and L is parts."""
    e = 0
    if im is not None and not any(re):  # i times the real list im
        re, im, e = im, None, 1
    if not keyed:
        return None, e, 0, (re, im)
    if im is None:
        if next(filter(None, re), 0) > 0:
            return tuple(re), e, 0, (re, None)
        return tuple(map(neg, re)), e + 2, 2, (re, None)
    r, m = next((r, m) for r, m in zip(re, im) if r or m)
    if r > 0 <= m:
        f, key = 0, (tuple(re), tuple(im))
    elif m > 0:  # L = -i * x
        f, key = 1, (tuple(im), tuple(map(neg, re)))
    elif r < 0:  # L = -x
        f, key = 2, (tuple(map(neg, re)), tuple(map(neg, im)))
    else:  # L = i * x
        f, key = 3, (tuple(map(neg, im)), tuple(re))
    return key, f, f, (re, im)


def _peak(cache: dict, key: int, re: list, im, n: int) -> tuple:
    """(the largest |re[t]| or |im[t]| over t < n, and over t < ceil(n/2)),
    for 0 < n <= len(re) (an im of None is zero).  A list cut shorter reads
    both from its running maxima; a whole list takes one max/min pass and
    gives its peak for both.  Either is built once per key and kept in
    `cache`."""
    if n < len(re):
        m = cache.get(key)
        if m is None:
            m = map(abs, re) if im is None else map(max, map(abs, re), map(abs, im))
            m = cache[key] = list(accumulate(m, max))
        return m[n - 1], m[(n - 1) // 2]
    m = cache.get((key, True))
    if m is None:
        m = max(max(re), -min(re))
        if im is not None:
            m = max(m, max(im), -min(im))
        m = cache[key, True] = m, m
    return m


# i**u for u = 0..3: the weight of a pair whose units multiply to i**u.  A
# term's weight is their sum, a complex number with integer parts no larger
# than the number of pairs, so every sum is exact
_UNIT_WEIGHTS = (1, 1j, -1, -1j)


def _plan_rows(a: dict, b: dict, rows: dict, top: int, g: int) -> tuple:
    """conv_rows' plan: one entry per set of rows with the same terms and
    weights, some weight not 0, ([every k it serves], base position, digits
    out, width, complex?, [(key number x, key number y, position, n, digits
    of x used, digits of y used, w_re, w_im)]), x <= y; for each (key
    number, width), the digits to pack and the last entry that forms a
    product of it; and the (re, im) to pack for each key number.

    Each list's key number, unit and position are looked up once; a call of
    one pair keys its lists by identity.  In each row the pairs only sum their
    units into the weight of their term, the unordered key pair at the pair's
    position; each term whose weight is not 0 is then offered once (`_term`)
    for its reach, bound and peak, and a row whose weights repeat an earlier
    row's only adds its k to that row's entry.  A row's width holds the sum
    of (|w_re| + |w_im|) * bound over its terms, and the largest peak: a row
    whose digits all vanish may still pack a large one ([0, 0, 128, 1]
    times [0, 0, 1, 1] through the third digit).  The peaks are dropped on
    return."""
    keyed = sum(map(len, rows.values())) > 1
    keys = {}  # key -> (key number, power of i that takes L to the key's list)
    reps = []  # key number -> the (re, im) packed for it
    formed = {}  # id of a list -> its form: a list on both sides is keyed once

    def form(x):
        """(key number, power of i that takes the key's list to x, v, complex?)"""
        f = formed.get(id(x))
        if f is None:
            v, re, im = x
            key, e, u, parts = _form(re, im, keyed)
            n, u0 = keys.setdefault(id(x) if key is None else key, (len(reps), u))
            if n == len(reps):
                reps.append(parts)
            f = formed[id(x)] = n, e - u0, v, im is not None
        return f

    a = {i: form(x) for i, x in a.items()}
    b = {j: form(y) for j, y in b.items()}
    peaks = {}  # (key number, whole?) -> _peak's maximum or running maxima
    planned = {}  # a row's weights -> its plan entry, or None for a row with no term
    plan = []
    reach = {}  # (key number, width) -> digits to pack
    for k, pairs in rows.items():
        weights = {}  # (x, y, position), x <= y -> the sum of its pairs' units
        complex_row = False  # a row is complex when a list of its pairs is
        for i, j in pairs:
            x, ux, va, cx = a[i]
            y, uy, vb, cy = b[j]
            complex_row = complex_row or cx or cy
            t = (x, y, va + vb) if x <= y else (y, x, va + vb)
            weights[t] = weights.get(t, 0) + _UNIT_WEIGHTS[(ux + uy) % 4]
        sig = frozenset(weights.items())
        if sig in planned:
            if planned[sig]:
                planned[sig][0].append(k)
            continue
        live = []
        base, last = top + 1, 0  # the lowest position and the last one a product reaches
        bound = peak = 0
        for t, w in weights.items():
            if w:
                term = _term(reps, peaks, *t, top, g)
                if term:
                    head, end, s, p = term
                    wr, wi = int(w.real), int(w.imag)
                    live.append(head + (wr, wi))
                    if t[2] < base:
                        base = t[2]
                    if end > last:
                        last = end
                    if p > peak:
                        peak = p
                    bound += (abs(wr) + abs(wi)) * s
        planned[sig] = None
        if not live:
            continue
        # the row ends at `top` or where its longest product ends
        nout = (min(top, last) - base) // g + 1
        wb = _width(bound if bound > peak else peak)
        for x, y, _, _, la, lb, *_ in live:  # this entry is plan[len(plan)]
            reach[x, wb] = max(reach.get((x, wb), (0,))[0], la), len(plan)
            reach[y, wb] = max(reach.get((y, wb), (0,))[0], lb), len(plan)
        planned[sig] = [k], base, nout, wb, complex_row, live
        plan.append(planned[sig])
    return plan, reach, reps


def _term(reps: list, peaks: dict, x: int, y: int, v: int, top: int, g: int):
    """The term of key numbers x and y at position v, as ((x, y, v, n, la,
    lb), last position reached, bound, peak): a pair there reaches n =
    (top - v)//g + 1 digits and uses la digits of x and lb of y; no digit
    of its product below n is larger than `bound` in size, and no digit of
    x or y packed for it larger than `peak`.  None when a list is empty or
    zero as far as the pair reaches, since the term then adds nothing.

    With a and b the largest |x| and |y| over those digits, min(la, lb)*a*b
    bounds every digit.  When the order cuts the product (n < la + lb - 1),
    so may the halves: digit d < n is the sum of the products x[i]*y[d-i],
    of which at most ha = ceil(la/2) have i < ha, at most hb = ceil(lb/2)
    have d - i < hb, and at most n - ha - hb neither; so with a0 >= |x[i]|
    for i < ha and b0 >= |y[j]| for j < hb, ha*a0*b + hb*a*b0 +
    (n - ha - hb)*a*b bounds it too, and the smaller is taken.  A list cut
    to its reach reads a0 from the running maxima it keeps for a (`_peak`),
    and a whole list takes a0 = a, so no bound costs a pass of its own.
    Lists that grow, as 1/(q;q)_j does, have a0 and b0 far below a and b.
    A whole product keeps the first bound: with its la + lb - 1 digits in
    place of n, the halves' bound is at least (min(la, lb) - 2)*a*b.  Both
    bounds are doubled when x and y are complex."""
    n = (top - v) // g + 1
    (xr, xi), (yr, yi) = reps[x], reps[y]
    la = n if n < len(xr) else len(xr)
    lb = n if n < len(yr) else len(yr)
    if la <= 0 or lb <= 0:
        return None
    (a, a0), (b, b0) = _peak(peaks, x, xr, xi, la), _peak(peaks, y, yr, yi, lb)
    if not (a and b):
        return None
    bound = (la if la < lb else lb) * a * b
    if n < la + lb - 1:  # the order cuts the product
        ha, hb = (la + 1) // 2, (lb + 1) // 2
        cut = ha * a0 * b + hb * a * b0 + max(n - ha - hb, 0) * a * b
        if cut < bound:
            bound = cut
    if xi is not None and yi is not None:
        bound *= 2
    return (x, y, v, n, la, lb), v + g * (la + lb - 2), bound, a if a > b else b


def _reach(pack: tuple, wb: int, n: int) -> tuple:
    """The packed (re, im) of a list packed to pack[0] digits, masked to its
    low n digits when it is longer."""
    m, xr, xi = pack
    if m <= n:
        return xr, xi
    mask = (1 << 8 * wb * n) - 1
    return xr & mask, None if xi is None else xi & mask
