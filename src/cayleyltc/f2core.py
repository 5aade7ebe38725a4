"""Exact linear algebra over GF(2).

Words and matrices are stored bit-packed into uint64 numpy arrays (LSB of
word 0 = coordinate 0), so row operations run word-parallel.  Everything a
code computation needs lives here: rank, reduced row echelon form, kernel
bases, the table of all XOR combinations of some rows (the codewords a
generator spans) and the f2mat format, written and read as bytes.

Elimination is blocked Four-Russians (Arlazarov et al. 1970; M4RI in
Albrecht, Bard & Hart, ACM TOMS 2010).  Columns are taken a byte (8
columns) at a time: the block's pivots are found from the distinct bytes of
the rows below, and every row whose byte there is nonzero is cleared with
one lookup in a table of the 2^k XOR combinations of the block's k pivot
rows; rows with a zero byte are skipped.  rank runs this forward pass, and
row_basis and kernel_basis add the back pass, last block first, that clears
the rows above each block's pivots the same way.

No matrix is unpacked whole on the way from checks to a kernel basis: dense
temporaries are slabs of at most PACK_BLOCK bytes (1 MB).  reduced_echelon
certifies a reduced row echelon form without elimination.

All values are immutable after construction from the caller's perspective;
the operations below are pure functions.
"""

from __future__ import annotations

import numpy as np

#: Hard cap on the dimension of exhaustive codeword enumeration (~16.7M words).
MAX_ENUM_DIMENSION = 24

#: bytes of one dense slab packed by BitMatrix or _kernel_words (1 MB)
PACK_BLOCK = 1 << 20


class DimensionBudgetError(ValueError):
    """Raised when an exhaustive enumeration would exceed its stated budget."""


def check_enum_budget(k: int) -> None:
    """Refuse to enumerate a span of dimension k above MAX_ENUM_DIMENSION."""
    if k > MAX_ENUM_DIMENSION:
        raise DimensionBudgetError(
            f"dimension {k} exceeds exhaustive enumeration budget {MAX_ENUM_DIMENSION}")


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 uint8 array into uint64 words, LSB-first."""
    n = bits.shape[-1]
    nwords = max(1, -(-n // 64))
    nbytes = -(-n // 8)
    # byte j of a row holds coordinates 8j..8j+7, bit t = coordinate 8j+t
    out = np.zeros(bits.shape[:-1] + (nwords * 8,), dtype=np.uint8)
    out[..., :nbytes] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pack_bits; returns a 0/1 uint8 array of length n."""
    bytes_ = words.view(np.uint8)
    bits = np.unpackbits(bytes_, axis=-1, bitorder="little")
    return bits[..., :n]


class BitVector:
    """A word in GF(2)^n, bit-packed."""

    __slots__ = ("n", "words")

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=np.uint8) & 1
        if bits.ndim != 1:
            raise ValueError("BitVector expects a 1-d bit sequence")
        self.n = int(bits.shape[0])
        self.words = _pack_bits(bits)
        self.words.flags.writeable = False

    @classmethod
    def _from_words(cls, words: np.ndarray, n: int) -> "BitVector":
        v = cls.__new__(cls)
        v.n = n
        v.words = words
        v.words.flags.writeable = False
        return v

    def to_bits(self) -> np.ndarray:
        return _unpack_bits(self.words, self.n)

    def weight(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"BitVector('{''.join(map(str, self.to_bits()))}')"
        return f"BitVector(n={self.n}, weight={self.weight()})"


class BitMatrix:
    """A dense GF(2) matrix, rows bit-packed into uint64 words."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=np.uint8)
        if entries.ndim != 2:
            raise ValueError("BitMatrix expects a 2-d 0/1 array")
        self.rows, self.cols = (int(x) for x in entries.shape)
        self.words = np.zeros((self.rows, max(1, -(-self.cols // 64))), dtype=np.uint64)
        # entries mod 2, a block of rows at a time: no masked copy of it all
        step = max(1, PACK_BLOCK // max(1, self.cols))
        for lo in range(0, self.rows, step):
            self.words[lo:lo + step] = _pack_bits(entries[lo:lo + step] & 1)
        self.words.flags.writeable = False

    @classmethod
    def _from_words(cls, words: np.ndarray, rows: int, cols: int) -> "BitMatrix":
        m = cls.__new__(cls)
        m.rows, m.cols, m.words = rows, cols, words
        m.words.flags.writeable = False
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    def to_array(self) -> np.ndarray:
        return _unpack_bits(self.words, self.cols)

    def matvec(self, v: BitVector) -> BitVector:
        """Compute M v over GF(2)."""
        if v.n != self.cols:
            raise ValueError(f"length mismatch: matrix has {self.cols} cols, vector {v.n}")
        # the parity of a row's popcounts is the parity of their XOR's popcount
        folded = np.bitwise_xor.reduce(self.words & v.words[None, :], axis=1)
        out = (np.bitwise_count(folded) & 1).astype(np.uint8)
        return BitVector(out)

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        words = np.vstack([self.words, other.words])
        return BitMatrix._from_words(words, self.rows + other.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and bool(
            np.array_equal(self.words, other.words))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """table[..., x, :] = XOR of rows[..., i, :] over the set bits i of x,
    for the k rows on the second-to-last axis; shape (..., 2^k, nwords)."""
    k = rows.shape[-2]
    table = np.zeros(rows.shape[:-2] + (1 << k, rows.shape[-1]), dtype=np.uint64)
    for i in range(k):
        np.bitwise_xor(table[..., : 1 << i, :], rows[..., i, None, :],
                       out=table[..., 1 << i: 2 << i, :])
    return table


def _byte_lut(masks: dict) -> np.ndarray:
    """lut[b] = XOR of masks[t] over the set bits t of the byte b."""
    lut = np.zeros(256, dtype=np.intp)
    for t in range(8):
        lut[1 << t: 2 << t] = lut[: 1 << t] ^ masks.get(t, 0)
    return lut


def _block_pivots(values):
    """Echelon basis of the span of some byte values, lowest set bit leading.

    Returns (masks, chosen): chosen are independent values among `values`
    spanning them all, and masks[t], for each pivot bit t, has bit i set for
    each chosen[i] in the XOR that is the reduced basis vector leading at t
    (zero at the other pivot bits).
    """
    red, chosen, span = {}, [], {0}
    for v in values:
        if v in span:
            continue
        span |= {u ^ v for u in span}
        x, s = v, 1 << len(chosen)
        for t, (y, u) in red.items():
            if x >> t & 1:
                x, s = x ^ y, s ^ u
        t = (x & -x).bit_length() - 1
        for t2, (y, u) in red.items():
            if y >> t & 1:
                red[t2] = (y ^ x, u ^ s)
        red[t] = (x, s)
        chosen.append(v)
        if len(chosen) == 8:
            break
    return {t: s for t, (_, s) in red.items()}, chosen


def _echelon_words(words: np.ndarray, cols: int):
    """Forward Four-Russians elimination on packed rows, 8 columns a block.

    Returns (R, pivots, blocks): R is in row echelon form, each row i <
    len(pivots) leading at column pivots[i] and zero at the other pivot
    columns of its own block; blocks lists (byte j, first pivot row, pivot
    bits) for the back pass.  Per block, the pivots are found on the block's
    bytes alone, and every row below them with a nonzero byte there is
    cleared by one lookup in a table of the XOR combinations of the pivot
    rows.
    """
    R = np.array(words, dtype=np.uint64, order="C")
    m = R.shape[0]
    Rb = R.view(np.uint8)
    pivots, blocks = [], []
    prow = 0
    for j in range(-(-cols // 8)):
        if prow >= m:
            break
        cand = prow + np.flatnonzero(Rb[prow:, j])
        if not cand.size:
            continue
        # one candidate row per distinct byte value; any of them will do,
        # because the reduced form does not depend on the pivot rows chosen
        row_of = np.full(256, -1, dtype=np.intp)
        row_of[Rb[cand, j]] = cand
        masks, chosen = _block_pivots(np.flatnonzero(row_of >= 0).tolist())
        rows = row_of[chosen].tolist()
        k, w0 = len(rows), j >> 3
        table = _xor_table(R[rows, w0:])
        # rows in the pivot slots that are not pivots take the freed places
        moved = [r for r in range(prow, prow + k) if r not in rows]
        if moved:
            R[[r for r in rows if r >= prow + k]] = R[moved]
        bits = sorted(masks)
        R[prow: prow + k, w0:] = table[[masks[t] for t in bits]]
        below = prow + k + np.flatnonzero(Rb[prow + k:, j])
        if below.size:
            R[below, w0:] ^= table[_byte_lut(masks)[Rb[below, j]]]
        pivots += [8 * j + t for t in bits]
        blocks.append((j, prow, bits))
        prow += k
    return R, pivots, blocks


def row_basis(M: BitMatrix) -> BitMatrix:
    """The reduced row echelon form of M without its zero rows.

    The forward pass (_echelon_words) is followed by a back pass clearing
    each block's pivot columns from the rows above it, one table lookup per
    row.  Blocks go last first: the pivot rows of a later block are zero on
    the columns of earlier ones, so a block's bytes are still those the
    forward pass left when its turn comes, and it touches only the rows that
    had a pivot bit there.
    """
    R, pivots, blocks = _echelon_words(M.words, M.cols)
    Rb = R.view(np.uint8)
    for j, prow, bits in reversed(blocks):
        above = np.flatnonzero(Rb[:prow, j] & sum(1 << t for t in bits))
        if above.size:
            w0 = j >> 3
            table = _xor_table(R[prow: prow + len(bits), w0:])
            lut = _byte_lut({t: 1 << i for i, t in enumerate(bits)})
            R[above, w0:] ^= table[lut[Rb[above, j]]]
    r = len(pivots)
    return BitMatrix._from_words(R[:r].copy(), r, M.cols)


def rank(M: BitMatrix) -> int:
    """GF(2) row rank of M."""
    _, pivots, _ = _echelon_words(M.words, M.cols)
    return len(pivots)


def _leading_bits(words: np.ndarray) -> np.ndarray:
    """Column of the lowest set bit of each packed row; every row must be
    nonzero."""
    w = (words != 0).argmax(axis=1)
    low = words[np.arange(len(words)), w]
    low &= ~low + np.uint64(1)
    return 64 * w + np.bitwise_count(low - np.uint64(1)).astype(np.intp)


def reduced_echelon(M: BitMatrix) -> bool:
    """Whether M is in reduced row echelon form without zero rows, as row_basis
    returns it, without elimination: the leading bits strictly increase, and
    each row meets the pivot columns (the leading bits) in its own only."""
    W = M.words
    if not (M.rows and W.any(axis=1).all()):
        return not M.rows
    pivots = _leading_bits(W)
    if not (np.diff(pivots) > 0).all():
        return False
    mask = np.zeros(W.shape[1], dtype=np.uint64)
    np.bitwise_or.at(mask, pivots >> 6, np.uint64(1) << (pivots & 63).astype(np.uint64))
    step = max(1, PACK_BLOCK // W.shape[1])      # a block of rows at a time
    return all((np.bitwise_count(W[lo:lo + step] & mask).sum(axis=1) == 1).all()
               for lo in range(0, len(W), step))


def _kernel_words(R: np.ndarray, n: int) -> np.ndarray:
    """Packed kernel basis of the packed rows R of a reduced row echelon
    form with no zero rows; shape (n - len(R), nwords).

    One vector per free column f: e_f plus column f of R scattered onto the
    pivot coordinates (the leading bit of each row).  K is written a block
    of its columns at a time: the block's pivot rows of R, read on the free
    columns, and its unit entries fill a dense (free x block) slab, which is
    packed into K's words there.  The slab and those bits of R fill at most
    PACK_BLOCK bytes between them (one word of K a block at the least).
    """
    pivots = _leading_bits(R)
    free = np.setdiff1d(np.arange(n), pivots)
    nfree = free.size
    K = np.zeros((nfree, R.shape[1]), dtype=np.uint64)
    if not nfree:
        return K
    Rb = np.ascontiguousarray(R).view(np.uint8)
    byte, shift = free >> 3, (free & 7).astype(np.uint8)
    width = 64 * max(1, PACK_BLOCK // (128 * nfree))
    for c0 in range(0, n, width):
        c1 = min(n, c0 + width)
        (i0, i1), (f0, f1) = np.searchsorted(pivots, [c0, c1]), np.searchsorted(free, [c0, c1])
        slab = np.zeros((nfree, c1 - c0), dtype=np.uint8)
        bits = Rb[i0:i1][:, byte]
        bits >>= shift
        bits &= 1
        slab[:, pivots[i0:i1] - c0] = bits.T
        del bits
        slab[np.arange(f0, f1), free[f0:f1] - c0] = 1
        K[:, c0 >> 6: -(-c1 // 64)] = _pack_bits(slab)
    return K


def kernel_basis(M: BitMatrix) -> list[BitVector]:
    """A basis of {v : M v = 0}; size = cols - rank(M)."""
    return [BitVector._from_words(w, M.cols) for w in reduced_kernel_basis(row_basis(M)).words]


def reduced_kernel_basis(R: BitMatrix) -> BitMatrix:
    """Kernel basis, as rows, of a matrix already in reduced row echelon
    form without zero rows (as row_basis returns it); no elimination."""
    K = _kernel_words(R.words, R.cols)
    return BitMatrix._from_words(K, K.shape[0], R.cols)


# ---------------------------------------------------------------------------
# Text exchange format.
#
# "f2mat v1 <rows> <cols>" followed by one hex row per line; the most
# significant hex digit of each line holds the lowest column indices
# (column 0 = MSB of the first digit), zero-padded to ceil(cols/4) digits.
# ---------------------------------------------------------------------------


#: _HEX_PAIRS[b] holds, as the two bytes of one uint16, the two ASCII hex
#: digits of the byte b with its bit order reversed, so that column 0 is the
#: high bit of the first digit
_HEX_PAIRS = np.frombuffer(bytes(np.packbits(np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"),
    axis=1).ravel()).hex().encode(), dtype=np.uint16)


#: _NIBBLES[c] is the hex digit of the ASCII byte c with its 4 bits reversed,
#: so that its low bit is the digit's first column; 255 marks a byte that is
#: not a digit dump_matrix writes
_NIBBLES = np.full(256, 255, dtype=np.uint8)
_NIBBLES[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.packbits(
    np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1)[:, 4:],
    axis=1, bitorder="little").ravel()


def f2mat_shape(data: bytes) -> tuple[int, int]:
    """(rows, cols) from the header line that opens the f2mat bytes data,
    which must be the line dump_matrix writes; ValueError otherwise."""
    end = data.find(b"\n")
    fields = data[:end].split(b" ") if end >= 0 else []
    if len(fields) == 4 and fields[2].isdigit() and fields[3].isdigit():
        rows, cols = int(fields[2]), int(fields[3])
        if data[:end + 1] == b"f2mat v1 %d %d\n" % (rows, cols):
            return rows, cols
    head = data[:64].partition(b"\n")[0]
    raise ValueError(f"bad f2mat header: {head!r}")


def dump_matrix(M: BitMatrix) -> bytes:
    """The f2mat bytes of M, written into one buffer: the header, then each
    row's first ceil(cols/4) digits and a newline, by one lookup in
    _HEX_PAIRS per packed byte, a block of rows at a time."""
    head = b"f2mat v1 %d %d\n" % (M.rows, M.cols)
    ndigits, nbytes = -(-M.cols // 4), -(-M.cols // 8)
    buf = np.empty(len(head) + M.rows * (ndigits + 1), dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    lines = buf[len(head):].reshape(M.rows, ndigits + 1)
    lines[:, ndigits] = ord("\n")
    Wb = np.ascontiguousarray(M.words).view(np.uint8)
    # np.take widens a block's byte indices to intp, 8 bytes each
    step = max(1, PACK_BLOCK // max(1, 8 * nbytes))
    for lo in range(0, M.rows, step):
        hi = min(M.rows, lo + step)
        lines[lo:hi, :ndigits] = np.take(_HEX_PAIRS, Wb[lo:hi, :nbytes]).view(
            np.uint8)[:, :ndigits]
    return buf.tobytes()


def _f2mat_digits(data: bytes) -> tuple[np.ndarray, int]:
    """The (rows, ceil(cols/4)) digits of the f2mat bytes data and cols, refused
    with its reason unless each row is its digits and a newline, and no more."""
    rows, cols = f2mat_shape(data)
    start = data.index(b"\n") + 1
    ndigits = -(-cols // 4)
    body, need = len(data) - start, rows * (ndigits + 1)
    if body < need:
        raise ValueError(f"truncated f2mat body: {body} of {need} bytes")
    if body > need:
        raise ValueError(f"{body - need} trailing bytes after the f2mat body")
    lines = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(rows, ndigits + 1)
    short = np.flatnonzero(lines[:, ndigits] != ord("\n"))
    if short.size:
        raise ValueError(f"f2mat row {short[0]} is not {ndigits} digits and a newline")
    return lines[:, :ndigits], cols


def f2mat_echelon(data: bytes) -> bool:
    """Whether each row of the f2mat bytes data leads with a bit strictly right
    of the previous row's lead, a rank certificate read without elimination."""
    digits = _f2mat_digits(data)[0]
    if not digits.shape[1]:
        return not len(digits)                  # rows of no columns are zero
    first = np.empty(len(digits), dtype=np.intp)
    step = max(1, PACK_BLOCK // digits.shape[1])   # a block of rows at a time
    for lo in range(0, len(digits), step):
        first[lo:lo + step] = (digits[lo:lo + step] != ord("0")).argmax(axis=1)
    lead = _NIBBLES[digits[np.arange(len(digits)), first]]
    bit = np.unpackbits(lead[:, None], axis=1, bitorder="little").argmax(axis=1)
    return bool(((lead > 0) & (lead < 16)).all() and (np.diff(4 * first + bit) > 0).all())


def load_matrix(data: bytes) -> BitMatrix:
    """The BitMatrix of f2mat bytes, the exact inverse of dump_matrix; a body
    of anything but lowercase hex digits is refused with its reason.  Digits
    map through _NIBBLES and pairs of them are ORed into the packed bytes a
    block of rows at a time; bits past cols in the last digit are dropped."""
    lines, cols = _f2mat_digits(data)
    (rows, ndigits), nbytes = lines.shape, -(-cols // 8)
    words = np.zeros((rows, max(1, -(-cols // 64))), dtype=np.uint64)
    Wb = words.view(np.uint8)
    step = max(1, PACK_BLOCK // max(1, ndigits))
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        nib = _NIBBLES[lines[lo:hi]]
        if nib.max(initial=0) > 15:
            r, c = np.argwhere(nib > 15)[0]
            raise ValueError(f"f2mat row {lo + r} has the non-hex digit "
                             f"{bytes([lines[lo + r, c]])!r}")
        nib[:, 1::2] <<= 4
        Wb[lo:hi, :nbytes] = nib[:, 0::2]
        Wb[lo:hi, : ndigits // 2] |= nib[:, 1::2]
        del nib
    if cols % 64:
        words[:, -1] &= np.uint64((1 << cols % 64) - 1)
    return BitMatrix._from_words(words, rows, cols)
