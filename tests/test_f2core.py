import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import rows_orthogonal
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyltc import codes, f2core
from cayleyltc.f2core import (
    BitMatrix,
    BitVector,
    kernel_basis,
    rank,
)

# Parity-check matrix of the [7,4] Hamming code (columns = 1..7 in binary).
HAMMING_H = [
    [0, 0, 0, 1, 1, 1, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [1, 0, 1, 0, 1, 0, 1],
]

# Generator matrix of the [7,4,3] Hamming code, orthogonal to HAMMING_H.
HAMMING_G = [
    [1, 1, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 0, 0],
    [0, 1, 0, 1, 0, 1, 0],
    [1, 1, 0, 1, 0, 0, 1],
]


def brute_force_rank(arr):
    """Independent oracle: enumerate all row combos, count span size."""
    arr = np.asarray(arr, dtype=np.uint8) % 2
    m = arr.shape[0]
    span = set()
    for mask in range(1 << m):
        v = np.zeros(arr.shape[1], dtype=np.uint8)
        for i in range(m):
            if (mask >> i) & 1:
                v ^= arr[i]
        span.add(v.tobytes())
    size = len(span)
    return size.bit_length() - 1


def test_rank_identity_and_zero():
    assert rank(BitMatrix(np.eye(3, dtype=np.uint8))) == 3
    assert rank(BitMatrix.zeros(2, 5)) == 0


@pytest.mark.parametrize("shape", [(2, 5), (0, 5), (3, 0), (0, 0)], ids="{0[0]}x{0[1]}".format)
def test_zero_matrix_has_rank_zero_and_a_full_kernel(shape):
    # empty shapes take the same elimination path as any other zero matrix
    rows, cols = shape
    M = BitMatrix.zeros(rows, cols)
    assert rank(M) == 0
    R = f2core.row_basis(M)
    assert (R.rows, R.cols) == (0, cols) and f2core.reduced_echelon(R)
    K = f2core.reduced_kernel_basis(R)
    assert np.array_equal(K.to_array(), np.eye(cols, dtype=np.uint8))
    assert len(kernel_basis(M)) == cols


def test_rank_hamming_parity_check():
    H = BitMatrix(HAMMING_H)
    assert rank(H) == 3
    assert rank(H) == brute_force_rank(HAMMING_H)


def test_kernel_trivial_cases():
    assert kernel_basis(BitMatrix(np.eye(4, dtype=np.uint8))) == []
    assert len(kernel_basis(BitMatrix.zeros(2, 3))) == 3


def test_kernel_hamming():
    H = BitMatrix(HAMMING_H)
    basis = kernel_basis(H)
    assert len(basis) == 4
    for v in basis:
        assert H.matvec(v).weight() == 0
    # the kernel of H is exactly the Hamming code spanned by HAMMING_G
    G = BitMatrix(HAMMING_G)
    assert rank(G.stack(BitMatrix([v.to_bits() for v in basis]))) == 4


def test_weight_and_distance():
    assert BitVector([0] * 8).weight() == 0
    assert BitVector([1] * 8).weight() == 8


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_rank_transpose_and_kernel_dim(n, m, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    M = BitMatrix(arr)
    r = rank(M)
    assert r == rank(BitMatrix(M.to_array().T))
    assert len(kernel_basis(M)) + r == n


def _rref_words_loop(words, cols):
    """Reference: one elimination step per column, each XORing the pivot
    row into every other row with a 1 there."""
    R = words.copy()
    m = R.shape[0]
    pivots = []
    prow = 0
    for c in range(cols):
        if prow >= m:
            break
        w, b = c >> 6, np.uint64(c & 63)
        colbits = (R[prow:, w] >> b) & np.uint64(1)
        hits = np.nonzero(colbits)[0]
        if hits.size == 0:
            continue
        piv = prow + int(hits[0])
        if piv != prow:
            R[[prow, piv]] = R[[piv, prow]]
        mask = ((R[:, w] >> b) & np.uint64(1)).astype(bool)
        mask[prow] = False
        if mask.any():
            R[mask] ^= R[prow]
        pivots.append(c)
        prow += 1
    return R, pivots


def _assert_row_basis_matches_loop(M):
    R = f2core.row_basis(M)
    ref_R, ref_pivots = _rref_words_loop(M.words, M.cols)
    assert (R.rows, R.cols) == (len(ref_pivots), M.cols)
    assert np.array_equal(R.words, ref_R[: len(ref_pivots)])
    assert rank(M) == R.rows


def _random_matrix(rng, m, n, shape):
    if shape == "low_rank":   # rank below 6: no block has 8 pivots
        k = int(rng.integers(0, 6))
        return (rng.integers(0, 2, size=(m, k)) @ rng.integers(0, 2, size=(k, n))) & 1
    arr = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    if shape == "sparse":
        arr &= rng.random((m, n)) < 0.05
    elif shape == "zero_cols":
        arr[:, rng.random(n) < 0.5] = 0
    elif shape == "dup_rows" and m:
        arr = arr[rng.integers(0, m, size=m)]
    return arr


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 90), st.sampled_from([0, 1, 5, 8, 9, 63, 64, 65, 100, 130, 200]),
       st.sampled_from(["random", "sparse", "zero_cols", "dup_rows", "low_rank"]),
       st.integers(0, 2**32 - 1))
def test_row_basis_matches_loop(m, n, shape, seed):
    rng = np.random.default_rng(seed)
    _assert_row_basis_matches_loop(BitMatrix(_random_matrix(rng, m, n, shape)))


def test_row_basis_matches_loop_edge_cases():
    rng = np.random.default_rng(9)
    for M in (BitMatrix.zeros(0, 13), BitMatrix.zeros(4, 0), BitMatrix.zeros(5, 70),
              BitMatrix(np.eye(67, dtype=np.uint8)),
              BitMatrix(np.ones((9, 17), dtype=np.uint8)),
              BitMatrix(np.eye(12, dtype=np.uint8)[::-1]),
              BitMatrix(rng.integers(0, 2, size=(300, 40), dtype=np.uint8)),
              BitMatrix(rng.integers(0, 2, size=(40, 300), dtype=np.uint8))):
        _assert_row_basis_matches_loop(M)


@pytest.mark.parametrize("name", ["z5", "z10", "z12"])
def test_row_basis_matches_loop_on_square_checks(toy_instances, name):
    X, base, _, _ = toy_instances[name]
    _assert_row_basis_matches_loop(BitMatrix(codes._edge_wise_checks(X, base)))
    _assert_row_basis_matches_loop(
        BitMatrix(codes._vertex_wise_checks(X, codes.tensor_code(base))))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 90), st.sampled_from([0, 1, 5, 8, 9, 63, 64, 65, 100, 130, 200]),
       st.sampled_from(["random", "sparse", "zero_cols", "dup_rows", "low_rank"]),
       st.integers(0, 2**32 - 1))
def test_reduced_echelon_holds_exactly_where_row_basis_returns_its_input(m, n, shape, seed):
    # the input, its reduced echelon form, and that form with a later row
    # added to an earlier one (unreduced), two rows swapped (leads out of
    # order) or a zero row appended
    rng = np.random.default_rng(seed)
    M = BitMatrix(_random_matrix(rng, m, n, shape))
    R = f2core.row_basis(M).to_array()
    cases = [M, BitMatrix(R) if len(R) else BitMatrix.zeros(0, n),
             BitMatrix(np.vstack([R, np.zeros((1, n), dtype=np.uint8)]))]
    if len(R) >= 2:
        i, j = sorted(rng.choice(len(R), size=2, replace=False))
        added, swapped = R.copy(), R.copy()
        added[i] ^= R[j]
        swapped[[i, j]] = R[[j, i]]
        cases += [BitMatrix(added), BitMatrix(swapped)]
    for case in cases:
        assert f2core.reduced_echelon(case) == (f2core.row_basis(case) == case)
    assert f2core.reduced_echelon(cases[1])


def _kernel_basis_loop(M):
    """Reference: one kernel vector per free column, built bit by bit."""
    n = M.cols
    if n == 0:
        return []
    if M.rows == 0:
        return [BitVector(np.eye(n, dtype=np.uint8)[i]) for i in range(n)]
    R, pivots = _rref_words_loop(M.words, n)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    Rbits = f2core._unpack_bits(R[: len(pivots)], n)
    basis = []
    for f in free_cols:
        v = np.zeros(n, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = Rbits[i, f]
        basis.append(BitVector(v))
    return basis


def _assert_kernel_matches_loop(M):
    new, ref = kernel_basis(M), _kernel_basis_loop(M)
    assert [v.n for v in new] == [v.n for v in ref]
    assert [v.words.tolist() for v in new] == [v.words.tolist() for v in ref]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(1, 150), st.sampled_from(["random", "sparse", "zero_cols"]),
       st.integers(0, 2**32 - 1))
def test_kernel_basis_matches_loop(m, n, shape, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    if shape == "sparse":
        arr &= rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    elif shape == "zero_cols":
        arr[:, rng.random(n) < 0.5] = 0
    _assert_kernel_matches_loop(BitMatrix(arr))


def test_kernel_basis_matches_loop_edge_cases():
    rng = np.random.default_rng(5)
    for M in (BitMatrix.zeros(0, 7), BitMatrix.zeros(3, 0), BitMatrix.zeros(3, 70),
              BitMatrix(np.eye(65, dtype=np.uint8)),
              BitMatrix(np.hstack([np.eye(5, dtype=np.uint8),
                                   rng.integers(0, 2, size=(5, 130), dtype=np.uint8)])),
              BitMatrix(rng.integers(0, 2, size=(40, 20), dtype=np.uint8))):
        _assert_kernel_matches_loop(M)
    assert kernel_basis(BitMatrix(np.eye(65, dtype=np.uint8))) == []


def _kernel_words_unpacked(R, n):
    """Reference: the kernel basis of a packed RREF without zero rows, from
    the whole unpacked R: e_f plus column f of R on the pivot coordinates."""
    Rbits = f2core._unpack_bits(R, n)
    pivots = Rbits.argmax(axis=1) if Rbits.size else np.zeros(0, dtype=np.intp)
    free = np.setdiff1d(np.arange(n), pivots)
    B = np.zeros((free.size, n), dtype=np.uint8)
    B[np.arange(free.size), free] = 1
    B[:, pivots] = Rbits[:, free].T
    return f2core._pack_bits(B)


@pytest.mark.parametrize("shape", ["random", "sparse", "full_rank", "no_rows"])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@settings(max_examples=12, deadline=None)
@given(m=st.integers(0, 220), block=st.sampled_from([1, 64 * 7, f2core.PACK_BLOCK]),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_words_matches_unpacked(n, shape, m, block, seed):
    # block 1 makes every word of K a block of its own, 64 * 7 a few words;
    # no rows is full_code, whose kernel is the identity
    rng = np.random.default_rng(seed)
    if shape == "full_rank":
        arr = np.hstack([np.eye(min(m, n), dtype=np.uint8),
                         rng.integers(0, 2, size=(min(m, n), n - min(m, n)), dtype=np.uint8)])
        arr = arr[:, rng.permutation(n)]
    elif shape == "no_rows":
        arr = np.zeros((0, n), dtype=np.uint8)
    else:
        arr = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if shape == "sparse":
            arr &= rng.random((m, n)) < 0.05
    R = f2core.row_basis(BitMatrix(arr))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2core, "PACK_BLOCK", block)
        K = f2core._kernel_words(R.words, n)
    assert K.dtype == np.uint64
    assert np.array_equal(K, _kernel_words_unpacked(R.words, n))


def test_reduced_kernel_basis_peak_memory_is_one_block_over_its_operands(p13_instance):
    # an unpacked R (14 MB on p13) or K would exceed this
    X, C1 = p13_instance[:2]
    R = f2core.row_basis(BitMatrix(codes._edge_wise_checks(X, C1)))
    tracemalloc.start()
    try:
        K = f2core.reduced_kernel_basis(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.rows == R.cols - R.rows
    assert peak < R.words.nbytes + K.words.nbytes + f2core.PACK_BLOCK


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.sampled_from([0, 1, 7, 64, 65, 130]),
       st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_rows_orthogonal_matches_the_integer_product(m, p, n, density, seed):
    # the matvec reference agrees with A B^T computed over the integers mod 2
    rng = np.random.default_rng(seed)
    a = (rng.random((m, n)) < density).astype(np.int64)
    b = (rng.random((p, n)) < density).astype(np.int64)
    expected = not ((a @ b.T) % 2).any()
    assert rows_orthogonal(BitMatrix(a), BitMatrix(b)) == expected
    assert rows_orthogonal(BitMatrix(b), BitMatrix(a)) == expected


def test_rows_orthogonal_on_hamming():
    G, H = BitMatrix(HAMMING_G), BitMatrix(HAMMING_H)
    assert rows_orthogonal(G, H) and rows_orthogonal(H, G)
    assert not rows_orthogonal(G, G)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_pack_bits_layout(shape, seed):
    # bit i of a row is bit i % 64 of word i // 64; padding bits are zero
    rng = np.random.default_rng(seed)
    shape = tuple(shape[:-1]) + (shape[-1] * 37,)
    bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
    words = f2core._pack_bits(bits)
    n = shape[-1]
    assert words.dtype == np.uint64 and words.shape == shape[:-1] + (max(1, -(-n // 64)),)
    idx = np.arange(words.shape[-1] * 64)
    unpacked = (words[..., idx // 64] >> (idx % 64).astype(np.uint64)) & np.uint64(1)
    assert np.array_equal(unpacked[..., :n], bits)
    assert not unpacked[..., n:].any()


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
def test_bitmatrix_packs_entries_mod_2_in_row_blocks(monkeypatch, block):
    # blocks of one row, of a few rows, and of the whole matrix give the
    # one-pass packing of the masked entries; values above 1 count mod 2
    monkeypatch.setattr(f2core, "PACK_BLOCK", block)
    rng = np.random.default_rng(4)
    for rows, cols in ((0, 5), (1, 1), (9, 70), (40, 3), (5, 0), (33, 130)):
        entries = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        M = BitMatrix(entries)
        assert (M.rows, M.cols) == (rows, cols)
        assert M.words.shape == (rows, max(1, -(-cols // 64)))
        if rows:
            assert np.array_equal(M.words, f2core._pack_bits(entries & 1))
        assert np.array_equal(M.to_array(), entries & 1)
    assert BitMatrix([[3, 2], [5, 4]]) == BitMatrix([[1, 0], [1, 0]])


def test_bitmatrix_peak_memory_is_the_packed_matrix_and_one_block(p13_instance):
    # a masked copy of the whole dense input (19 MB on p13) would exceed this
    X, C1 = p13_instance[:2]
    He = codes._edge_wise_checks(X, C1)
    packed = He.shape[0] * (-(-He.shape[1] // 64)) * 8
    tracemalloc.start()
    try:
        M = BitMatrix(He)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.words.nbytes == packed
    assert peak < packed + (2 << 20)


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 2, size=(9, 70), dtype=np.uint8)
    x = rng.integers(0, 2, size=70, dtype=np.uint8)
    M = BitMatrix(arr)
    v = BitVector(x)
    expected = (arr @ x) % 2
    assert np.array_equal(M.matvec(v).to_bits(), expected.astype(np.uint8))


def test_matrix_roundtrip_formats():
    rng = np.random.default_rng(11)
    for rows, cols in [(3, 7), (1, 1), (4, 64), (2, 65), (5, 129)]:
        arr = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        M = BitMatrix(arr)
        M2 = f2core.load_matrix(f2core.dump_matrix(M))
        assert M == M2


def _bits_to_hex(bits):
    """Reference: the hex line of one row."""
    ndigits = max(1, -(-bits.shape[0] // 4))
    return np.packbits(bits, bitorder="big").tobytes().hex()[:ndigits]


@pytest.mark.parametrize("block", [1, f2core.PACK_BLOCK])
def test_dump_formats_match_row_formula(monkeypatch, block):
    # block 1 writes and reads each row's digits as a block of its own;
    # cols = 0 writes empty lines, which load_matrix reads back
    monkeypatch.setattr(f2core, "PACK_BLOCK", block)
    rng = np.random.default_rng(13)
    for cols in range(0, 131):
        for rows in (0, 1, 3):
            M = BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))
            arr = M.to_array()
            lines = [f"f2mat v1 {rows} {cols}"] + [_bits_to_hex(arr[i]) for i in range(rows)]
            data = f2core.dump_matrix(M)
            assert data == ("\n".join(lines) + "\n").encode()
            assert f2core.f2mat_shape(data) == (rows, cols)
            assert f2core.load_matrix(data) == M


@pytest.mark.parametrize("block", [1, f2core.PACK_BLOCK])
def test_echelon_certificate_reads_the_leading_digits(monkeypatch, block):
    # every RREF dump is certified; a swapped, repeated or zero row is not.
    # Block 1 scans each row's digits as a block of its own
    monkeypatch.setattr(f2core, "PACK_BLOCK", block)
    rng = np.random.default_rng(14)
    for cols in (1, 3, 4, 5, 9, 64, 130):
        for rows in (1, 2, 5, 12):
            R = f2core.row_basis(BitMatrix(rng.integers(0, 2, (rows, cols), dtype=np.uint8)))
            rank, arr = R.rows, R.to_array()
            assert f2core.f2mat_echelon(f2core.dump_matrix(R)), (rows, cols)
            if rank < 2:
                continue
            for bad in (arr[[1, 0, *range(2, rank)]], arr[[0, 0, *range(2, rank)]],
                        np.vstack([arr, np.zeros((1, cols), dtype=np.uint8)])):
                assert not f2core.f2mat_echelon(f2core.dump_matrix(BitMatrix(bad)))
    # leads in one digit, column 0 as the digit's high bit: 8 = column 0, 1 = 3
    assert f2core.f2mat_echelon(b"f2mat v1 4 5\n88\n48\n28\n18\n")
    assert not f2core.f2mat_echelon(b"f2mat v1 4 5\n88\n48\n28\n28\n")
    assert not f2core.f2mat_echelon(b"f2mat v1 2 5\n18\n88\n")
    assert not f2core.f2mat_echelon(b"f2mat v1 2 5\n88\ng8\n")   # not a digit
    assert f2core.f2mat_echelon(b"f2mat v1 0 5\n")
    assert f2core.f2mat_echelon(b"f2mat v1 0 0\n")
    assert not f2core.f2mat_echelon(b"f2mat v1 2 0\n\n\n")
    with pytest.raises(ValueError, match="truncated"):
        f2core.f2mat_echelon(b"f2mat v1 2 5\n88\n")


def test_format_hex_convention():
    # column 0 is the most significant digit's high bit
    m = BitMatrix([[1, 0, 0, 0, 1]])
    assert f2core.dump_matrix(m).splitlines()[1] == b"88"


def test_load_ignores_padding_bits_past_cols():
    # the last digit of 5 columns holds 3 padding bits
    M = f2core.load_matrix(b"f2mat v1 2 5\nff\n8f\n")
    assert np.array_equal(M.to_array(), [[1, 1, 1, 1, 1], [1, 0, 0, 0, 1]])
    assert M == BitMatrix(M.to_array())


CORRUPT_F2MAT = [
    (b"f2mat v2 1 1\n8\n", "bad f2mat header: b'f2mat v2 1 1'"),
    (b"f2mat v1 1 8", "bad f2mat header: b'f2mat v1 1 8'"),
    (b"f2mat v1 01 8\nff\n", "bad f2mat header: b'f2mat v1 01 8'"),
    (b"f2mat v1 -1 8\n", "bad f2mat header: b'f2mat v1 -1 8'"),
    (b"f2mat v1 1 8\r\nff\r\n", "bad f2mat header: b'f2mat v1 1 8\\r'"),
    (b"\x00\x01", "bad f2mat header: b'\\x00\\x01'"),
    (b"f2mat v1 2 4\n8\n", "truncated f2mat body: 2 of 4 bytes"),
    (b"f2mat v1 2 4\n8\n8", "truncated f2mat body: 3 of 4 bytes"),
    (b"f2mat v1 1 4\n8\n\n", "1 trailing bytes after the f2mat body"),
    (b"f2mat v1 1 8\nff\r\n", "1 trailing bytes after the f2mat body"),
    (b"f2mat v1 2 8\nf\nfff\n", "f2mat row 0 is not 2 digits and a newline"),
    (b"f2mat v1 2 8\nff\n f\n", "f2mat row 1 has the non-hex digit b' '"),
    (b"f2mat v1 1 8\nzz\n", "f2mat row 0 has the non-hex digit b'z'"),
    (b"f2mat v1 1 8\nFF\n", "f2mat row 0 has the non-hex digit b'F'"),
]


def test_load_rejects_corrupt():
    for data, reason in CORRUPT_F2MAT:
        with pytest.raises(ValueError) as info:
            f2core.load_matrix(data)
        assert str(info.value) == reason


def test_load_matrix_peak_memory_is_its_words_and_one_block(p13_instance):
    # a dense (rows x cols) array (14 MB on p13) would exceed this
    H = p13_instance[2].parity
    data = f2core.dump_matrix(H)
    tracemalloc.start()
    try:
        M = f2core.load_matrix(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M == H
    assert peak < H.words.nbytes + len(data) + f2core.PACK_BLOCK


def test_p13_square_code_dump_is_the_recorded_file(p13_instance):
    # the sha256 of the p13 code.f2mat that build wrote before dump_matrix
    # returned bytes
    data = f2core.dump_matrix(p13_instance[2].parity)
    assert hashlib.sha256(data).hexdigest() == (
        "1c7bb2b7abff6fc33e13ee06be272fb52134f6643880481e52c8aa9c744e7bf9")
