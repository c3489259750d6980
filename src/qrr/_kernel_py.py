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
side) and sums the products of given pairs into each output row.  Only real
lists are multiplied: each list is split once into its real part, of unit 1,
and its imaginary part, of unit i, and a part that is all zero is dropped.
Every call is planned per key pair, not per pair of lists: it keys every part
once by its content up to sign, packs one list per key and digit width, and
in each row sums the Gaussian weights of its pairs' part pairs, the products
of the two parts' units, into terms (unordered key pair, shift).  Only then
is a term looked at: one whose weights sum to 0 is not planned or multiplied,
and the others are multiplied once, one real bignum product added to the
row's real and imaginary sums with the two parts of their weight.  So the
plan, and the products formed, depend on the lists' contents alone, never on
which list objects a caller passes.  E(cz)*E(-cz), which holds each term
twice in one row, plans and forms none of its odd rows and each product of
its even rows once, and (a + i*b)*(b + i*a) forms a*a and b*b alone.  Rows
with the same terms and weights are one plan entry that lists every row it
serves, formed once, and each of those rows is its one result (the mirrored
rows of E(z)*E(1/z), say).  Every entry is two accumulated bignums, unpacked
once each (the imaginary one only for a row with a complex list).  A complex
list times a complex list with no part in common takes four real products.

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

    Each list is the sum of its parts, re with unit 1 and im with unit i,
    less a part that is all zero, and a pair's product is the sum of the
    products of their parts.  Each part is keyed by its content up to sign
    (`_form`), and one list is packed per key.  Each pair of parts is then a
    term (unordered key pair, position v_a + v_b) with weight u_x*u_y, each
    part being its unit times its key's packed list (`_plan_rows`).  A term
    reaches n = (top - v_a - v_b)//g + 1 digits, and one with n <= 0, or
    with a list that is empty or zero through n digits, adds nothing.  A row
    sums the weights of its terms first, so a term whose weights sum to 0 is
    not formed: E(cz)*E(-cz) forms none of its odd rows and each product of
    its even rows once.  Each other term is one bignum product p, added to
    the row as w_re*p + i*w_im*p.  Each row's digit width holds the sum over
    its terms of |w_re| times the term's bound on its digits (`_term`: from
    the largest entries of its two lists over the digits it reaches, and,
    when the order cuts the product, over the first half of those of each
    list it cuts short), the same sum of |w_im| times it, since the real and
    the imaginary sums are unpacked apart, and every digit packed for the
    row.  A key is packed once per width, as far as the terms of that width
    reach, at the first plan entry that reads it, and dropped after the last
    entry that forms a product of it, as is each entry; each operand longer
    than its term's reach is masked to n digits (`_reach`): that changes it
    by a multiple of 2**(w*n), which moves only digits at or past the row's
    last.

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

    def operand(x, wb, n):
        m = reach[x, wb][0]
        p = packs.get((x, wb))
        if p is None:
            p = packs[x, wb] = _pack(reps[x][:m], wb)
        return _reach(p, m, wb, n)

    out = {}
    for r in range(len(plan)):
        ks, base, nout, wb, complex_row, terms = plan[r]
        plan[r] = None  # the entry's terms are not read again
        rr = ii = 0
        for x, y, v, n, _, _, wr, wi in terms:
            p = operand(x, wb, n) * operand(y, wb, n) << 8 * wb * ((v - base) // g)
            rr += wr * p
            ii += wi * p
        for key in done.pop(r, ()):
            del packs[key]
        row = base, _unpack(rr, wb, nout), _unpack(ii, wb, nout) if complex_row else None
        for k in ks:
            out[k] = row
    return out


def _form(part: list):
    """(key, e) for a real list with a nonzero entry: part = i**e * key, e 0
    or 2, the key being part's content up to sign, its first nonzero entry
    > 0, as one tuple built in C; it is also the list packed for the key.
    None for a list that is all zero."""
    first = next(filter(None, part), 0)
    if not first:
        return None
    if first > 0:
        return tuple(part), 0
    return tuple(map(neg, part)), 2


def _peak(cache: dict, key: int, x, n: int) -> tuple:
    """(the largest |x[t]| over t < n, and over t < ceil(n/2)), for 0 < n <=
    len(x).  A list cut shorter reads both from its running maxima; a whole
    list takes one max/min pass and gives its peak for both.  Either is
    built once per key and kept in `cache`."""
    if n < len(x):
        m = cache.get(key)
        if m is None:
            m = cache[key] = list(accumulate(map(abs, x), max))
        return m[n - 1], m[(n - 1) // 2]
    m = cache.get((key, True))
    if m is None:
        m = max(max(x), -min(x))
        m = cache[key, True] = m, m
    return m


# i**u for u = 0..3: the weight of a pair of parts whose units multiply to
# i**u.  A term's weight is their sum, a complex number with integer parts no
# larger than the number of pairs of parts, so every sum is exact
_UNIT_WEIGHTS = (1, 1j, -1, -1j)


def _plan_rows(a: dict, b: dict, rows: dict, top: int, g: int) -> tuple:
    """conv_rows' plan: one entry per set of rows with the same terms and
    weights, some weight not 0, ([every k it serves], base position, digits
    out, width, complex?, [(key number x, key number y, position, n, digits
    of x used, digits of y used, w_re, w_im)]), x <= y; for each (key
    number, width), the digits to pack and the last entry that forms a
    product of it; and the real list to pack for each key number.

    Each list's parts, with their key numbers and units, and its position
    are looked up once.  The real part has unit i**0 and the imaginary part
    i**1, times the sign `_form` takes out, and a part that is all zero is
    dropped.  In each row the pairs only sum the units of their pairs of
    parts into the weight of their term, the unordered key pair at the
    pair's position; each term whose weight is not 0 is then offered once
    (`_term`) for its reach, bound and peak, and a row whose weights repeat
    an earlier row's only adds its k to that row's entry.  A row is complex
    when a list of its pairs is.  A row's width holds the sum of
    |w_re|*bound over its terms, the sum of |w_im|*bound, and the largest
    peak: a row whose digits all vanish may still pack a large one ([0, 0,
    128, 1] times [0, 0, 1, 1] through the third digit).  The peaks are
    dropped on return."""
    keys = {}  # key -> key number
    reps = []  # key number -> the real list packed for it
    formed = {}  # id of a list -> its form: a list on both sides is keyed once

    def form(x):
        """([(key number, unit as a power of i)] of x's parts, v, complex?)"""
        f = formed.get(id(x))
        if f is None:
            v, re, im = x
            parts = []
            for part, u in ((re, 0),) if im is None else ((re, 0), (im, 1)):
                kept = _form(part)
                if kept:
                    key, e = kept
                    n = keys.setdefault(key, len(reps))
                    if n == len(reps):
                        reps.append(key)
                    parts.append((n, u + e))
            f = formed[id(x)] = parts, v, im is not None
        return f

    a = {i: form(x) for i, x in a.items()}
    b = {j: form(y) for j, y in b.items()}
    peaks = {}  # (key number, whole?) -> _peak's maximum or running maxima
    planned = {}  # a row's weights -> its plan entry, or None for a row with no term
    plan = []
    reach = {}  # (key number, width) -> digits to pack
    for k, pairs in rows.items():
        weights = {}  # (x, y, position), x <= y -> the sum of its pairs' units
        complex_row = False
        for i, j in pairs:
            px, va, cx = a[i]
            py, vb, cy = b[j]
            complex_row = complex_row or cx or cy
            v = va + vb
            for x, ux in px:
                for y, uy in py:
                    t = (x, y, v) if x <= y else (y, x, v)
                    weights[t] = weights.get(t, 0) + _UNIT_WEIGHTS[(ux + uy) % 4]
        sig = frozenset(weights.items())
        if sig in planned:
            if planned[sig]:
                planned[sig][0].append(k)
            continue
        live = []
        base, last = top + 1, 0  # the lowest position and the last one a product reaches
        bound_re = bound_im = peak = 0
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
                    bound_re += abs(wr) * s
                    bound_im += abs(wi) * s
        planned[sig] = None
        if not live:
            continue
        # the row ends at `top` or where its longest product ends
        nout = (min(top, last) - base) // g + 1
        wb = _width(max(bound_re, bound_im, peak))
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
    place of n, the halves' bound is at least (min(la, lb) - 2)*a*b."""
    n = (top - v) // g + 1
    xs, ys = reps[x], reps[y]
    la = n if n < len(xs) else len(xs)
    lb = n if n < len(ys) else len(ys)
    if la <= 0 or lb <= 0:
        return None
    (a, a0), (b, b0) = _peak(peaks, x, xs, la), _peak(peaks, y, ys, lb)
    if not (a and b):
        return None
    bound = (la if la < lb else lb) * a * b
    if n < la + lb - 1:  # the order cuts the product
        ha, hb = (la + 1) // 2, (lb + 1) // 2
        cut = ha * a0 * b + hb * a * b0 + max(n - ha - hb, 0) * a * b
        if cut < bound:
            bound = cut
    return (x, y, v, n, la, lb), v + g * (la + lb - 2), bound, a if a > b else b


def _reach(p: int, m: int, wb: int, n: int) -> int:
    """A list packed to m digits as p, masked to its low n digits when it
    is longer."""
    return p if m <= n else p & (1 << 8 * wb * n) - 1
