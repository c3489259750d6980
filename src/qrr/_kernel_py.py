"""Exact truncated convolution by Kronecker substitution.

A coefficient list a is packed into one Python int, a[0] + a[1]*2**w +
a[2]*2**(2w) + ..., with a digit width w wide enough that every output
coefficient fits in a signed w-bit digit.  One bignum multiply then does the
whole convolution, and the low digits of the product, read as signed digits,
are c[k] = sum_{i+j=k} a[i]*b[j].

Inputs are plain lists of Python ints of any size, and outputs are exact.

`conv_rows` is the one entry point.  It multiplies two windows of lists (the
z-slices of two z-series; a single product is a window of one list on each
side) and sums the products of given pairs into each output row: packs are
keyed by list identity, so each list is packed once per digit width even
when both windows hold it, and every row is one accumulated bignum, unpacked
once.  When a list occurs more than once among the two windows, rows made of
the same unordered list pairs at the same reaches and shifts are formed once
and share one result (the mirrored rows of E(z)*E(1/z), say).  Real and
complex lists mix freely; a complex list times a complex list takes three
real products (Karatsuba) when all four packed parts are nonzero, and two
when one is zero (a purely imaginary slice, say).
"""

from itertools import accumulate


def _width(amax: int, bmax: int, n: int) -> int:
    """Bytes per digit that hold any sum of n products x*y with |x| <= amax,
    |y| <= bmax, plus a sign bit."""
    return ((amax * bmax * n).bit_length() + 8) // 8


def _tops(wb: int, n: int) -> int:
    """The top bit of each of n digits of wb bytes: sum 2**(8*wb*(k+1)-1)."""
    return int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")


def _pack(a: list, wb: int) -> int:
    """sum a[i] * 2**(8*wb*i) for digits a[i] that fit in wb signed bytes."""
    u = int.from_bytes(b"".join([x.to_bytes(wb, "little", signed=True) for x in a]), "little")
    # each negative digit was written as x + 2**w, borrowing 2**w from the digit
    # above it; the digit's top bit marks exactly those borrows
    return u - ((u & _tops(wb, len(a))) << 1)


def _unpack(c: int, wb: int, nout: int) -> list:
    """The low nout signed digits of c, each smaller than 2**(8*wb-1) in size."""
    n = wb * nout
    # adding 2**(w-1) to every digit makes each one nonnegative and below
    # 2**w, so no digit borrows from the next and each reads back on its own
    buf = ((c + _tops(wb, nout)) & ((1 << 8 * n) - 1)).to_bytes(n, "little")
    half = 1 << 8 * wb - 1
    return [int.from_bytes(buf[i : i + wb], "little") - half for i in range(0, n, wb)]


def _peaks(re: list, im) -> list:
    """Running maxima of |re[t]| and |im[t]| (an im of None is zero): entry n - 1
    bounds every entry of the first n."""
    m = map(abs, re) if im is None else map(max, map(abs, re), map(abs, im))
    return list(accumulate(m, max))


def conv_rows(a: dict, b: dict, rows: dict, top: int, g: int) -> dict:
    """Rows of the product of two windows of coefficient lists.

    a[i] = (v, re, im) holds re[t] + i*im[t] at position v + g*t, with im None
    for a real list; b likewise.  For each k in rows, row k is the sum over the
    pairs (i, j) in rows[k] of the products a[i]*b[j], through position `top`;
    the positions v_a + v_b of the pairs in one row must agree mod g.  Returns
    {k: (v, re, im)} on the same stride (im None for a row of real pairs),
    without the rows that have no position <= top.

    A pair reaches n = (top - v_a - v_b)//g + 1 digits; a pair with n <= 0,
    or with a list that is empty or zero through n digits, adds nothing.  Each
    row's digit width holds its largest |a|*|b| over the digits the pairs
    reach, times the number of products that land in one digit, doubled when
    a complex list meets a complex list.  A list is keyed by the identity of
    its (v, re, im) tuple, so one tuple on both sides is one list: it is
    packed once per width, as far as the pairs of that width reach, at the
    first row that reads it, and dropped after the last such row, as is each
    row's plan; each operand longer than its pair's reach is masked to n
    digits: that changes it by a multiple of 2**(w*n), which moves only
    digits at or past the row's last.

    When some list occurs more than once among the two windows and there is
    more than one row, two rows with the same multiset of (unordered list
    pair, position v_a + v_b) are equal: in one call the position fixes each
    pair's reach, and so the row's base, length and width, and x*y = y*x
    exactly.  The later row is the earlier one's result object, formed and
    unpacked once (the rows z**k and z**-k of E(z)*E(1/z), say).  Lists are
    never changed while a window holds them.
    """
    plan, reach = _plan_rows(a, b, rows, top, g)
    shared = len(plan) > 1 and len({*map(id, a.values()), *map(id, b.values())}) < len(a) + len(b)
    repeats = _repeats(plan) if shared else {}
    last = {}  # (list id, width) -> the last plan row that packs it
    for r, (_, _, _, wb, _, live) in enumerate(plan):
        if r not in repeats:
            for x, y, _, _, _, _ in live:
                last[id(x), wb] = last[id(y), wb] = r
    done = {}  # plan row -> the packs no later row reads
    for key, r in last.items():
        done.setdefault(r, []).append(key)
    packs = {}

    def pack(x, wb):
        p = packs.get((id(x), wb))
        if p is None:
            n = reach[id(x), wb]
            _, re, im = x
            p = packs[id(x), wb] = (n, _pack(re[:n], wb), None if im is None else _pack(im[:n], wb))
        return p

    out = {}
    for r in range(len(plan)):
        k, base, nout, wb, complex_row, live = plan[r]
        plan[r] = None  # the row's pair records are not read again
        if r in repeats:
            out[k] = out[repeats[r]]
            continue
        rr = ii = 0
        for x, y, v, n, _, _ in live:
            xr, xi = _reach(pack(x, wb), wb, n)
            yr, yi = _reach(pack(y, wb), wb, n)
            s = 8 * wb * ((v - base) // g)
            if xi is not None and yi is not None:
                if xr and xi and yr and yi:  # three products
                    pr = xr * yr
                    pi = xi * yi
                    rr += (pr - pi) << s
                    ii += ((xr + xi) * (yr + yi) - pr - pi) << s
                else:  # a zero part leaves two nonzero products
                    rr += (xr * yr - xi * yi) << s
                    ii += (xr * yi + xi * yr) << s
                continue
            rr += (xr * yr) << s
            if xi is not None:
                ii += (xi * yr) << s
            if yi is not None:
                ii += (xr * yi) << s
        for key in done.pop(r, ()):
            del packs[key]
        out[k] = base, _unpack(rr, wb, nout), _unpack(ii, wb, nout) if complex_row else None
    return out


def _repeats(plan: list) -> dict:
    """{r: k} for each plan row r with the same multiset of (unordered list
    pair, position) as an earlier row k."""
    first = {}
    repeats = {}
    for r, (k, _, _, _, _, live) in enumerate(plan):
        pairs = sorted((*sorted((id(x), id(y))), v) for x, y, v, _, _, _ in live)
        k0 = first.setdefault(tuple(pairs), k)
        if k0 != k:
            repeats[r] = k0
    return repeats


def _peak(cache: dict, key: int, re: list, im, n: int) -> int:
    """The largest |re[t]| or |im[t]| over t < n, for 0 < n <= len(re) (an im
    of None is zero).  A whole list takes one max/min pass, a list cut shorter
    its running maxima; either is built once per key and kept in `cache`."""
    whole = n == len(re)
    m = cache.get((key, whole))
    if m is None:
        if whole:
            m = max(max(re), -min(re))
            if im is not None:
                m = max(m, max(im), -min(im))
        else:
            m = _peaks(re, im)
        cache[key, whole] = m
    return m if whole else m[n - 1]


def _plan_rows(a: dict, b: dict, rows: dict, top: int, g: int) -> tuple:
    """conv_rows' plan: for each row with a position <= top, (k, base
    position, digits out, width, complex?, [(a[i], b[j], v_a + v_b, n, digits
    of a[i] used, digits of b[j] used)]); and the digits to pack for each
    (list id, width).  The peaks are dropped on return."""
    peaks = {}  # (list id, whole?) -> _peak's maximum or running maxima
    plan = []
    reach = {}  # (list id, width) -> digits to pack
    for k, pairs in rows.items():
        live = []
        big = count = 0
        doubled = complex_row = False
        for i, j in pairs:
            x, y = a[i], b[j]
            va, ar, ai = x
            vb, br, bi = y
            n = (top - va - vb) // g + 1
            la, lb = min(len(ar), n), min(len(br), n)
            if la <= 0 or lb <= 0:
                continue
            m = _peak(peaks, id(x), ar, ai, la) * _peak(peaks, id(y), br, bi, lb)
            if not m:  # a list that is zero as far as the pair reaches
                continue
            big = max(big, m)
            count += min(la, lb)
            doubled = doubled or (ai is not None and bi is not None)
            complex_row = complex_row or ai is not None or bi is not None
            live.append((x, y, va + vb, n, la, lb))
        if not live:
            continue
        base = min(p[2] for p in live)
        # the row ends at `top` or where its longest product ends
        nout = min((top - base) // g + 1, max((p[2] - base) // g + p[4] + p[5] - 1 for p in live))
        wb = _width(2 * big if doubled else big, 1, count)
        for x, y, _, _, la, lb in live:
            reach[id(x), wb] = max(reach.get((id(x), wb), 0), la)
            reach[id(y), wb] = max(reach.get((id(y), wb), 0), lb)
        plan.append((k, base, nout, wb, complex_row, live))
    return plan, reach


def _reach(pack: tuple, wb: int, n: int) -> tuple:
    """The packed (re, im) of a list packed to pack[0] digits, masked to its
    low n digits when it is longer."""
    m, xr, xi = pack
    if m <= n:
        return xr, xi
    mask = (1 << 8 * wb * n) - 1
    return xr & mask, None if xi is None else xi & mask
