"""Exact truncated convolution by Kronecker substitution.

A coefficient list a is packed into one Python int, a[0] + a[1]*2**w +
a[2]*2**(2w) + ..., with a digit width w wide enough that every output
coefficient fits in a signed w-bit digit.  One bignum multiply then does the
whole convolution, and the low `nout` digits of the product, read as signed
digits, are c[k] = sum_{i+j=k} a[i]*b[j] for k < nout.

Inputs are plain lists of Python ints of any size, and outputs are exact.
"""


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


def conv_real(a: list, b: list, nout: int) -> list:
    """c[k] = sum_{i+j=k} a[i]*b[j] for k < nout."""
    if len(a) > nout:
        a = a[:nout]
    if len(b) > nout:
        b = b[:nout]
    if not a or not b:
        return [0] * nout
    amax = max(max(a), -min(a))
    bmax = max(max(b), -min(b))
    if not amax or not bmax:
        return [0] * nout
    wb = _width(amax, bmax, min(len(a), len(b)))
    return _unpack(_pack(a, wb) * _pack(b, wb), wb, nout)


def conv_real_pair(a: list, b: list, c: list, nout: int) -> tuple:
    """(conv_real(a, b, nout), conv_real(a, c, nout)) with a packed once: the
    real times complex product a * (b + i*c)."""
    a, b, c = a[:nout], b[:nout], c[:nout]
    bc = b + c
    if not a or not bc:
        return [0] * nout, [0] * nout
    amax = max(max(a), -min(a))
    bmax = max(max(bc), -min(bc))
    if not amax or not bmax:
        return [0] * nout, [0] * nout
    wb = _width(amax, bmax, min(len(a), max(len(b), len(c))))
    x = _pack(a, wb)
    return _unpack(x * _pack(b, wb), wb, nout), _unpack(x * _pack(c, wb), wb, nout)


def conv_complex(ar: list, ai: list, br: list, bi: list, nout: int) -> tuple:
    """(ar + i*ai) * (br + i*bi) from three real products (Karatsuba)."""
    if len(ar) > nout:
        ar, ai = ar[:nout], ai[:nout]
    if len(br) > nout:
        br, bi = br[:nout], bi[:nout]
    if not ar or not br:
        return [0] * nout, [0] * nout
    amax = max(max(ar), -min(ar), max(ai), -min(ai))
    bmax = max(max(br), -min(br), max(bi), -min(bi))
    if not amax or not bmax:
        return [0] * nout, [0] * nout
    # |re c[k]| and |im c[k]| are each at most two sums of n products
    wb = _width(2 * amax, bmax, min(len(ar), len(br)))
    xr, xi, yr, yi = (_pack(v, wb) for v in (ar, ai, br, bi))
    rr = xr * yr
    ii = xi * yi
    return _unpack(rr - ii, wb, nout), _unpack((xr + xi) * (yr + yi) - rr - ii, wb, nout)
