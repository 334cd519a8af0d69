"""The exact integer helpers against oracles that share no code with them."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from geomlie import _exact
from geomlie._exact import (_CERT_PRIMES, SparseSquare, det_exact, det_mod_p, inv_unitriangular,
                            is_nonsingular, short_vectors)
from geomlie.lattice import cartan_matrix, make_type, matrix_payload, pairing
from geomlie.liealg import build, n_sign
from geomlie.rootsys import enumerate_roots


def _block_diag(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=np.int64)
    out[:len(a), :len(a)] = a
    out[len(a):, len(a):] = b
    return out


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 4)), max_size=8))
def test_ranges_concatenate_the_ranges(spans):
    # Zero counts and an empty input included.
    lo, count = (np.array([s[k] for s in spans], dtype=np.int64) for k in (0, 1))
    want = np.concatenate([np.arange(a, a + c) for a, c in spans] + [np.arange(0)])
    assert _exact._ranges(lo, count).tolist() == want.tolist()


@pytest.mark.parametrize("first, second", [("E8", "E8"), ("D8", "E8"), ("A8", "D8"), ("E7", "A1")])
def test_direct_sum_norm_two_is_union_of_root_systems(first, second):
    # In C1 (+) C2 a norm-2 vector has norm 2 in one block and 0 in the other,
    # so the norm-2 set is the disjoint union of the two embedded root sets.
    r1, r2 = make_type(first).rank, make_type(second).rank
    got = short_vectors(_block_diag(cartan_matrix(first), cartan_matrix(second)), 2)
    want = {root + (0,) * r2 for root in enumerate_roots(first).roots}
    want |= {(0,) * r1 + root for root in enumerate_roots(second).roots}
    assert len(got) == make_type(first).root_count + make_type(second).root_count
    assert set(got) == want


@st.composite
def _gram_and_norm(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    M = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=np.int64)
    return M.T @ M + np.eye(n, dtype=np.int64), draw(st.integers(1, 6))


@given(_gram_and_norm())
def test_short_vectors_equal_brute_force_over_the_ellipsoid_box(case):
    # |v_i| <= sqrt(N (G^-1)_ii) is the exact half-width of v^t G v <= N along
    # axis i; for (G^-1)_ii = p/q its floor is isqrt(N p q) // q.
    G, norm = case
    inv = sympy.Matrix(G.tolist()).inv()
    half = [math.isqrt(norm * inv[i, i].p * inv[i, i].q) // inv[i, i].q for i in range(len(G))]
    want = [v for v in itertools.product(*(range(-h, h + 1) for h in half))
            if int(np.array(v) @ G @ np.array(v)) == norm]
    assert short_vectors(G, norm) == want


@pytest.mark.parametrize("gram, message", [
    ([[2, -1, 0], [-1, 2, -1]], "square"),
    ([[2, -1], [0, 2]], "symmetric"),
    ([[1, 2], [2, 1]], "positive definite"),
])
def test_short_vectors_refuses_bad_matrix(gram, message):
    with pytest.raises(ValueError, match=message):
        short_vectors(gram, 2)


@pytest.mark.parametrize("gram, norm", [
    # The discriminant delta_1 delta_2 N = 2**82.
    ([[2 ** 20, 0], [0, 2 ** 20]], 2 ** 22),
    # A discriminant of at most N = 2**46, but the Bareiss entry 2**40 times
    # |v_1| <= 2**23 reaches 2**63.
    ([[1, 2 ** 40], [2 ** 40, 2 ** 80 + 1]], 2 ** 46),
], ids=["discriminant", "bareiss-entry"])
def test_short_vectors_refuses_int64_overflow(gram, norm):
    with pytest.raises(ValueError, match=r"2\*\*62"):
        short_vectors(gram, norm)


@st.composite
def _upper_unitriangular(draw):
    n = draw(st.integers(1, 6))
    m = np.eye(n, dtype=np.int64)
    m[np.triu_indices(n, 1)] = draw(st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    return m


@given(_upper_unitriangular())
def test_inv_unitriangular_equals_sympy_inverse(m):
    assert inv_unitriangular(m).tolist() == sympy.Matrix(m.tolist()).inv().tolist()


@pytest.mark.parametrize("m", [[[2, 1], [0, 1]], [[1, 0], [1, 1]]],
                         ids=["diagonal-2", "below-diagonal"])
def test_inv_unitriangular_refuses_other_matrices(m):
    with pytest.raises(ValueError, match="unitriangular"):
        inv_unitriangular(m)


def test_inv_unitriangular_refuses_int64_overflow():
    # The input fits in int64; the corner entry of its inverse is 2**80.
    with pytest.raises(OverflowError):
        inv_unitriangular([[1, -2 ** 40, 0], [0, 1, -2 ** 40], [0, 0, 1]])


@st.composite
def _square_matrix(draw):
    """A square integer matrix, int64 or (with entries past 2**63) object, and
    whether it is singular by construction: a zero column or a row that is a
    combination of two others."""
    n = draw(st.integers(0, 6))
    big = draw(st.booleans())
    entries = st.integers(-2 ** 70, 2 ** 70) if big else st.integers(-4, 4)
    m = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["any", "zero-column", "dependent"]))
    if shape == "zero-column" and n:
        col = draw(st.integers(0, n - 1))
        for row in m:
            row[col] = 0
    if shape == "dependent" and n >= 3:
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [x * a + y * b for a, b in zip(m[0], m[1])]
    singular = (shape == "zero-column" and n > 0) or (shape == "dependent" and n >= 3)
    return np.array(m, dtype=object if big else np.int64), singular


@pytest.mark.parametrize("p", [2, 3, 7, *_CERT_PRIMES])
@given(_square_matrix())
def test_det_mod_p_equals_exact_determinant(p, case):
    m, singular = case
    want = det_exact(m) % p
    assert want == int(sympy.Matrix(m.tolist()).det()) % p
    assert det_mod_p(m, p) == want
    if singular:
        assert want == 0


@pytest.mark.parametrize("m", [np.array([[2 ** 64 - 1, 0], [0, 1]], dtype=np.uint64),
                               [[2 ** 63, -1], [1, 2 ** 63]]], ids=["uint64", "big-and-negative"])
def test_det_mod_p_reduces_entries_past_int64_exactly(m):
    # numpy reads the first as uint64 and the second as float64; neither may wrap or round.
    for p in (7, *_CERT_PRIMES):
        assert det_mod_p(m, p) == det_exact(m) % p


def test_is_nonsingular_reads_nested_lists_exactly():
    # numpy reads these ints, past int64 beside a negative one, as float64,
    # which would round the singular 2 x 2 block to a nonsingular one.
    u = 2 ** 63 // 36 + 12345
    m = [[36 * u, 42 * u, 0], [42 * u, 49 * u, 0], [0, 0, -1]]
    assert np.asarray(m).dtype == np.float64 and det_exact(m) == 0
    assert is_nonsingular(m) is False


@pytest.mark.parametrize("m", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]],
                         ids=["2x3", "3x2"])
def test_det_mod_p_refuses_non_square_matrices(m):
    with pytest.raises(ValueError, match="square"):
        det_mod_p(m, 7)
    with pytest.raises(ValueError, match="square"):
        is_nonsingular(m)


@pytest.mark.parametrize("m", [[1, 2], np.array([1, 2])], ids=["list", "array"])
def test_one_dimensional_input_is_refused(m):
    # The entries of a 1-D input are not rows.
    for call in (det_exact, lambda m: det_mod_p(m, 7), is_nonsingular, lambda m: short_vectors(m, 2)):
        with pytest.raises(ValueError, match="square"):
            call(m)
    with pytest.raises(ValueError, match="unitriangular"):
        inv_unitriangular(m)


@given(_square_matrix())
def test_sparse_square_holds_the_matrix_and_decides_like_it(case):
    m, _ = case
    assume(m.dtype == np.int64 and len(m))
    # Every position given, the zeros are dropped.
    S = SparseSquare.from_keys(len(m), np.arange(m.size), m.ravel())
    dense = np.asarray(S)
    assert dense.dtype == np.int64 and np.array_equal(dense, m)
    assert np.count_nonzero(S.value) == len(S.value) and not S.row.flags.writeable
    assert is_nonsingular(S) == is_nonsingular(m) == (det_exact(m) != 0)


@pytest.mark.parametrize("key", [[1, 0], [2, 2]], ids=["descending", "repeated"])
def test_sparse_square_refuses_keys_out_of_order(key):
    with pytest.raises(ValueError, match="ascending"):
        SparseSquare.from_keys(2, key, [1, 1])


# Entries include values past 2**63 (object dtype) and multiples of every
# certificate prime, which only the Bareiss fallback decides.
_CERT_PRODUCT = math.prod(_CERT_PRIMES)
_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(2 ** 63, 2 ** 66),
                     st.integers(-2 ** 66, -2 ** 63), st.sampled_from([_CERT_PRODUCT, -2 * _CERT_PRODUCT]))


def _matrices(rows: int, cols: int):
    return st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _square_block(rows, factor):
    # A nonzero factor makes the last row that multiple of the sum of the
    # others: a singular block, a zero one at size 1.
    if factor:
        rows[-1] = [factor * sum(col[:-1]) for col in zip(*rows)]
    return rows


def _wide_matrix(k: int, rng) -> list[list[int]]:
    """A k x k matrix whose entries are drawn like ``_ENTRIES`` by one seeded generator.

    Drawn entry by entry through hypothesis, the wide blocks made these
    tests about four times slower.
    """
    kinds = (lambda: rng.randint(-3, 3), lambda: rng.randint(2 ** 63, 2 ** 66),
             lambda: rng.randint(-2 ** 66, -2 ** 63),
             lambda: rng.choice([_CERT_PRODUCT, -2 * _CERT_PRODUCT]))
    return [[rng.choice(kinds)() for _ in range(k)] for _ in range(k)]


# Up to 31 wide, the widest block is_nonsingular meets in the package (A31's
# Cartan block of the Killing form).
_SQUARE_BLOCKS = st.builds(
    _square_block,
    st.one_of(st.integers(1, 4).flatmap(lambda k: _matrices(k, k)),
              st.builds(_wide_matrix, st.integers(5, 31), st.randoms(use_true_random=False))),
    st.sampled_from([0, 0, 1, -2]))


@given(_SQUARE_BLOCKS)
def test_det_mod_p_agrees_with_det_exact_and_sympy_on_wide_blocks(block):
    # Entries that are multiples of every certificate prime vanish mod p, so
    # the elimination must swap rows to find its pivots.
    want = det_exact(block)
    assert want == DomainMatrix.from_list(block, sympy.ZZ).det()
    for p in _CERT_PRIMES:
        assert det_mod_p(block, p) == det_mod_p(np.array(block, dtype=object), p) == want % p


def _scrambled(blocks, data) -> np.ndarray:
    """The block-diagonal matrix of ``blocks``, its rows and columns permuted."""
    rows, cols = sum(len(b) for b in blocks), sum(len(b[0]) for b in blocks)
    out = np.zeros((rows, cols), dtype=object)
    r = c = 0
    for b in blocks:
        out[r:r + len(b), c:c + len(b[0])] = b
        r, c = r + len(b), c + len(b[0])
    row_order = data.draw(st.permutations(range(rows)))
    col_order = data.draw(st.permutations(range(cols)))
    return out[np.ix_(row_order, col_order)]


@given(st.lists(_SQUARE_BLOCKS, min_size=1, max_size=5), st.booleans(), st.data())
def test_is_nonsingular_agrees_with_det_exact_on_scrambled_blocks(blocks, zero_row, data):
    # 1x1 and 2x2 blocks are certified together, larger ones one by one.
    m = _scrambled(blocks, data)
    if zero_row:
        m[data.draw(st.integers(0, len(m) - 1))] = 0
    assert is_nonsingular(m) == (det_exact(m) != 0)


@given(st.lists(_SQUARE_BLOCKS, max_size=3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_is_nonsingular_refuses_a_non_square_component_without_bareiss(blocks, r, c, data):
    # An r x c block with r != c, made square by a c x r one, leaves some
    # component with unequal row and column counts: the matrix is singular.
    if r == c:
        c += 1
    pair = [data.draw(_matrices(r, c)), data.draw(_matrices(c, r))]
    m = _scrambled(blocks + pair, data)
    assert det_exact(m) == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_exact, "det_exact", lambda m: pytest.fail("det_exact was called"))
        assert is_nonsingular(m) is False


@pytest.mark.parametrize("p", [2 ** 31, 2 ** 61 - 1, 1])
def test_det_mod_p_refuses_modulus_out_of_range(p):
    with pytest.raises(ValueError, match=r"2\*\*31"):
        det_mod_p([[1]], p)


# Each call with a leading coordinate x; x = 1 is valid input for all six.
LEADING_COORDINATE_CALLS = {
    "pairing": lambda x: pairing("A2", [x, 0], [1, 0]),
    "n_sign": lambda x: n_sign("A2", (x, 0), (0, 1)),
    "root_gen": lambda x: build("A2").root_gen((x, 0)),
    "bracket_basis": lambda x: build("A2").bracket_basis(x, 3),
    "locate": lambda x: enumerate_roots("A2").locate([[x, 0]]).tolist(),
    "matrix_payload": lambda x: matrix_payload("A2", [[x, 0]]),
}


@pytest.mark.parametrize("name", LEADING_COORDINATE_CALLS)
def test_non_integer_input_is_refused_not_truncated(name):
    call = LEADING_COORDINATE_CALLS[name]
    assert call(1) == call(1.0) == call(np.int8(1))
    for x in (1.5, 1.9, np.float64(1.7), math.nan, np.uint64(2**64 - 1)):
        with pytest.raises(ValueError, match="expected integers"):
            call(x)
