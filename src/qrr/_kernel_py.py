"""Exact truncated convolution by Kronecker substitution.

A coefficient list a is packed into one Python int, a[0] + a[1]*2**w +
a[2]*2**(2w) + ..., with a digit width w wide enough that every output
coefficient fits in a signed w-bit digit.  One bignum multiply then does the
whole convolution, and the low digits of the product, read as signed digits,
are c[k] = sum_{i+j=k} a[i]*b[j].  Each output row takes its own width,
sized by what its terms can produce through the order (`_plan`), and wide
enough for every digit packed for it; the cost of a bignum multiply grows
with that width.

Inputs are plain lists of Python ints of any size, and outputs are exact.

`conv_terms` is the one entry point.  It takes real lists, each one key, and
rows of weighted terms: a term is an unordered pair of keys at a position,
and its weight a Gaussian integer, the sum of the units of the pairs of
parts that meet there.  The caller (qrr.series._rows) splits each series
into its real part, of unit 1, and its imaginary part, of unit i, keys each
part by its content up to sign, and sums the units in its one walk over the
pairs, so the kernel never sees a pair and has no loop over them.  Only
then is a term looked at: one whose weight is 0 is not planned or
multiplied, and each other is multiplied once, one real bignum product
added to the row's real and imaginary sums with the two parts of its
weight.  So the plan, and the products formed, depend on the lists'
contents alone, never on which list objects a caller passes.  E(cz)*E(-cz),
which holds each term twice in one row, plans and forms none of its odd rows
and each product of its even rows once, and (a + i*b)*(b + i*a) forms a*a
and b*b alone.  Rows with the same terms and weights are one plan entry
that lists every row it serves, formed once, and each of those rows is its
one result (the mirrored rows of E(z)*E(1/z), say).  Every entry is two
accumulated bignums, unpacked once each, the imaginary one only for a row
with a term of imaginary weight: the even rows of E(iz)*E(-iz), whose
weights are all real, unpack one.  A complex list times a complex list with
no part in common takes four real products.

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


def conv_terms(lists: list, rows: dict, top: int, g: int) -> dict:
    """Rows of weighted sums of products of real lists.

    lists[x] is a list of ints with a nonzero entry, on stride g: entry t
    sits at offset g*t.  rows[k] = {(x, y, v): w}, x <= y, holds the terms of
    row k: the product lists[x]*lists[y] placed at position v >= 0, with a
    Gaussian weight w, an int or a complex number with integer parts.  Row k
    is the sum of w times its terms, through position `top`; the positions
    of one row's terms must agree mod g.  Returns {k: (v, re, im)} on the
    same stride, im None for a row with no term of imaginary weight, without
    the rows that have no position <= top or whose terms all add nothing.

    A term reaches n = (top - v)//g + 1 digits, and one with weight 0 or n
    <= 0, or with a list zero through n digits, adds nothing.  Each other
    term is one bignum product p, added to the row as w_re*p + i*w_im*p.
    Each row's digit width holds the sum over its terms of |w_re| times the
    term's bound on its digits (`_plan`: from the largest entries of its two
    lists over the digits it reaches, and, when the order cuts the product,
    over the first half of those of each list it cuts short), the same sum
    of |w_im| times it, since the real and the imaginary sums are unpacked
    apart, and every digit packed for the row.  A list is packed once per
    width, as far as the terms of that width reach, at the first plan entry
    that reads it, and dropped after the last entry that forms a product of
    it, as is each entry; each operand longer than its term's reach is
    masked to n digits: that changes it by a multiple of 2**(w*n), which
    moves only digits at or past the row's last.

    Two rows with the same terms and weights are equal: in one call the
    position fixes each term's reach, and so the row's base, length and width,
    and x*y = y*x exactly.  The planner makes them one entry that lists each
    row it serves, and the entry is formed and unpacked once and stored, one
    tuple, under each of its rows (the rows z**k and z**-k of E(z)*E(1/z),
    say).  Lists are never changed.
    """
    plan, reach = _plan(lists, rows, top, g)
    done = {}  # plan entry -> the packs no later entry forms a product of
    for key, (_, r) in reach.items():
        done.setdefault(r, []).append(key)
    packs = {}  # width -> {key number: (its packed list, the digits packed)}

    def pack(x, wb, held):
        m = reach[x, wb][0]
        p = held[x] = _pack(lists[x][:m], wb), m
        return p

    out = {}
    for r in range(len(plan)):
        ks, base, nout, wb, complex_row, terms = plan[r]
        plan[r] = None  # the entry's terms are not read again
        held = packs.get(wb) or packs.setdefault(wb, {})
        w = 8 * wb
        rr = ii = 0
        for x, y, v, n, _, _, _, wr, wi in terms:
            px, mx = held.get(x) or pack(x, wb, held)
            py, my = held.get(y) or pack(y, wb, held)
            if mx > n or my > n:
                mask = (1 << w * n) - 1
                if mx > n:
                    px &= mask
                if my > n:
                    py &= mask
            p = px * py << w * ((v - base) // g)
            rr += wr * p
            if wi:
                ii += wi * p
        for x, wb in done.pop(r, ()):
            del packs[wb][x]
        row = base, _unpack(rr, wb, nout), _unpack(ii, wb, nout) if complex_row else None
        for k in ks:
            out[k] = row
    return out


def _plan(lists: list, rows: dict, top: int, g: int) -> tuple:
    """conv_terms' plan: one entry per set of rows with the same terms and
    weights, some term live, ([every k it serves], base position, digits
    out, width, complex?, [(x, y, position, n, digits of x used, digits of y
    used, bound, w_re, w_im)]) over its live terms; and for each (key
    number, width) the digits to pack and the last entry that forms a
    product of it.

    A row whose weights repeat an earlier row's only adds its k to that
    row's entry.  Each live term is read once for its reach, bound and peak,
    from the largest |entry| of each list: a list used whole (n >= its
    length) reads its peak, a list cut to n digits its running maxima, each
    built once per list.  With a and b the largest |x| and |y| over the
    digits used, la and lb, min(la, lb)*a*b bounds every digit.  When the
    order cuts the product (n < la + lb - 1), so may the halves: digit d < n
    is the sum of the products x[i]*y[d-i], of which at most ha = ceil(la/2)
    have i < ha, at most hb = ceil(lb/2) have d - i < hb, and at most n - ha
    - hb neither; so with a0 >= |x[i]| for i < ha and b0 >= |y[j]| for j <
    hb, ha*a0*b + hb*a*b0 + (n - ha - hb)*a*b bounds it too, and the smaller
    is taken.  A cut list reads a0 from its running maxima, and a whole list
    takes a0 = a, so no bound costs a pass of its own.  Lists that grow, as
    1/(q;q)_j does, have a0 and b0 far below a and b.  A whole product keeps
    the first bound: with its la + lb - 1 digits in place of n, the halves'
    bound is at least (min(la, lb) - 2)*a*b.

    A row is complex when a live term has an imaginary weight.  Its width
    holds the sum of |w_re|*bound over its terms, the sum of |w_im|*bound,
    and the largest peak: a row whose digits all vanish may still pack a
    large one ([0, 0, 128, 1] times [0, 0, 1, 1] through the third digit).
    The row ends at `top` or where its longest product ends."""
    peaks = {}  # key number -> the largest |entry| of its list
    runs = {}  # key number -> the running maxima of |entry| of its list
    planned = {}  # a row's weights -> its plan entry, or None for a row with no live term
    plan = []
    reach = {}  # (key number, width) -> (digits to pack, last entry)
    for k, weights in rows.items():
        terms = [t for t in weights.items() if t[1]]
        if not terms:
            continue
        sig = frozenset(terms)
        if sig in planned:
            if planned[sig]:
                planned[sig][0].append(k)
            continue
        live = []
        base, last = top + 1, 0  # the lowest position and the last one a product reaches
        bound_re = bound_im = peak = 0
        for (x, y, v), w in terms:
            n = (top - v) // g + 1
            if n <= 0:
                continue
            xs, ys = lists[x], lists[y]
            la, lb = len(xs), len(ys)
            if n < la:
                m = runs.get(x) or runs.setdefault(x, list(accumulate(map(abs, xs), max)))
                la, a, a0 = n, m[n - 1], m[(n - 1) // 2]
            else:
                a = a0 = peaks.get(x) or peaks.setdefault(x, max(max(xs), -min(xs)))
            if n < lb:
                m = runs.get(y) or runs.setdefault(y, list(accumulate(map(abs, ys), max)))
                lb, b, b0 = n, m[n - 1], m[(n - 1) // 2]
            else:
                b = b0 = peaks.get(y) or peaks.setdefault(y, max(max(ys), -min(ys)))
            if not (a and b):  # a list is zero as far as the term reaches
                continue
            ab = a * b
            bound = (la if la < lb else lb) * ab
            if n < la + lb - 1:  # the order cuts the product
                ha, hb = (la + 1) // 2, (lb + 1) // 2
                cut = ha * a0 * b + hb * a * b0
                if n > ha + hb:
                    cut += (n - ha - hb) * ab
                if cut < bound:
                    bound = cut
            wr, wi = int(w.real), int(w.imag)
            live.append((x, y, v, n, la, lb, bound, wr, wi))
            if v < base:
                base = v
            if v + g * (la + lb - 2) > last:
                last = v + g * (la + lb - 2)
            if a > peak or b > peak:
                peak = a if a > b else b
            bound_re += abs(wr) * bound
            if wi:
                bound_im += abs(wi) * bound
        planned[sig] = None
        if not live:
            continue
        nout = (min(top, last) - base) // g + 1
        wb = _width(max(bound_re, bound_im, peak))
        for x, y, _, _, la, lb, *_ in live:  # this entry is plan[len(plan)]
            reach[x, wb] = max(reach.get((x, wb), (0,))[0], la), len(plan)
            reach[y, wb] = max(reach.get((y, wb), (0,))[0], lb), len(plan)
        planned[sig] = [k], base, nout, wb, bound_im > 0, live
        plan.append(planned[sig])
    return plan, reach
