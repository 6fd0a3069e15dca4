import itertools
import math
import re

import numpy as np
import pytest

from conftest import random_complex, random_hermitian
from dissipforge import algebra
from dissipforge.algebra import dag
from dissipforge.algebra import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHASES,
    PauliString,
    PauliSum,
    anticommutes,
    kron,
    kron_all,
    matexp,
    null_space,
    pauli_decompose,
    pauli_mul,
)


def _kron_oracle(A, B):
    """Direct index formula (A kron B)[i p, j q] = A[i, j] B[p, q]."""
    ra, ca = A.shape
    rb, cb = B.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for p in range(rb):
                for q in range(cb):
                    out[i * rb + p, j * cb + q] = A[i, j] * B[p, q]
    return out


def _series_exp(A, terms=30):
    """Taylor-series exponential, summed to a fixed order."""
    out = np.eye(A.shape[0], dtype=complex)
    power = np.eye(A.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        power = power @ A / k
        out = out + power
    return out


# ---------------------------------------------------------------- basics


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(100)
    M = random_complex((3, 5), rng)
    assert np.array_equal(dag(dag(M)), M)


# ---------------------------------------------------------------- kron


def test_kron_identities():
    assert np.array_equal(kron(PAULI_I, PAULI_I), np.eye(4))
    assert np.array_equal(kron(PAULI_Z, PAULI_I), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_xy_against_index_oracle():
    got = kron(PAULI_X, PAULI_Y)
    assert np.array_equal(got, _kron_oracle(PAULI_X, PAULI_Y))
    # block structure [[0, Y], [Y, 0]]
    assert np.array_equal(got[:2, 2:], PAULI_Y)
    assert np.array_equal(got[2:, :2], PAULI_Y)
    assert np.all(got[:2, :2] == 0) and np.all(got[2:, 2:] == 0)


def test_kron_random_against_index_oracle():
    rng = np.random.default_rng(0)
    A = random_complex((3, 2), rng)
    B = random_complex((2, 4), rng)
    assert np.max(np.abs(kron(A, B) - _kron_oracle(A, B))) < 1e-15


def test_kron_mixed_product_rule():
    rng = np.random.default_rng(1)
    A, C = random_complex((3, 3), rng), random_complex((3, 3), rng)
    B, D = random_complex((2, 2), rng), random_complex((2, 2), rng)
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kron_associativity_exact():
    # integer entries keep float products exact, so equality is bitwise
    rng = np.random.default_rng(2)
    mats = [
        (rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))).astype(complex)
        for _ in range(3)
    ]
    A, B, C = mats
    assert np.array_equal(kron(kron(A, B), C), kron(A, kron(B, C)))
    assert np.array_equal(kron_all([A, B, C]), kron(A, kron(B, C)))


# ---------------------------------------------------------------- matexp


def test_matexp_zero_is_identity():
    assert np.array_equal(matexp(np.zeros((3, 3))), np.eye(3))
    assert matexp(np.zeros((0, 0))).shape == (0, 0)


# 1-norms inside each Pade degree's theta_m (3, 5, 7, 9, then 13 with s = 0,
# 3 and 6 squarings)
_MATEXP_NORMS = (0.01, 0.2, 0.9, 2.0, 5.0, 40.0, 300.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 64])
def test_matexp_matches_scipy_on_non_normal_matrices(monkeypatch, n):
    expm = pytest.importorskip("scipy.linalg").expm
    degrees = []
    pade = algebra._pade
    monkeypatch.setattr(algebra, "_pade", lambda A, m: degrees.append(m) or pade(A, m))
    rng = np.random.default_rng(100 + n)
    for norm in _MATEXP_NORMS:
        A = np.triu(random_complex((n, n), rng))  # upper triangular: far from normal
        A += 0.1 * random_complex((n, n), rng)
        A *= norm / np.abs(A).sum(axis=0).max()
        want = expm(A)
        assert np.linalg.norm(matexp(A) - want) <= 1e-12 * np.linalg.norm(want), norm
    assert degrees == [3, 5, 7, 9, 13, 13, 13]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_matexp_rejects_a_non_finite_entry(bad):
    A = np.zeros((3, 3), dtype=complex)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        matexp(A)


def test_matexp_diagonal():
    got = matexp(1j * (np.pi / 2) * PAULI_Z)
    assert np.max(np.abs(got - np.diag([1j, -1j]))) < 1e-14


def test_matexp_quarter_x():
    got = matexp(1j * (np.pi / 4) * PAULI_X)
    frozen = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    assert np.max(np.abs(got - frozen)) < 1e-14
    assert np.max(np.abs(got - _series_exp(1j * (np.pi / 4) * PAULI_X))) < 1e-14


def test_matexp_series_oracle_random():
    rng = np.random.default_rng(3)
    A = 0.5 * random_complex((4, 4), rng)
    assert np.max(np.abs(matexp(A) - _series_exp(A))) < 1e-12


def test_matexp_inverse_pairs():
    rng = np.random.default_rng(4)
    A = random_complex((5, 5), rng)
    assert np.max(np.abs(matexp(A) @ matexp(-A) - np.eye(5))) < 1e-12


def test_matexp_antihermitian_gives_unitary():
    rng = np.random.default_rng(5)
    H = random_hermitian(6, rng)
    U = matexp(1j * H)
    assert np.linalg.norm(U.conj().T @ U - np.eye(6)) < 1e-12


def test_matexp_rejects_nonsquare():
    with pytest.raises(ValueError):
        matexp(np.zeros((2, 3)))


# ---------------------------------------------------------------- null_space


def test_null_space_identity_empty():
    assert null_space(np.eye(4)) == []


def test_null_space_zero_matrix_full():
    basis = null_space(np.zeros((3, 3)))
    assert len(basis) == 3
    gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_null_space_diagonal():
    basis = null_space(np.diag([0.0, 1.0, 2.0]))
    assert len(basis) == 1
    assert abs(abs(basis[0][0]) - 1.0) < 1e-12


def test_null_space_rejects_bad_tol():
    with pytest.raises(ValueError):
        null_space(np.eye(2), tol=0.0)
    with pytest.raises(ValueError):
        null_space(np.eye(2), tol=-1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf], ids=repr)
def test_null_space_rejects_a_non_finite_tol(tol):
    # NaN would accept no singular value and return an empty basis
    with pytest.raises(ValueError, match="tol"):
        null_space(np.zeros((2, 2)), tol=tol)


@pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3)], ids=str)
def test_null_space_rejects_an_empty_or_non_square_matrix(shape):
    with pytest.raises(ValueError, match=r"non-empty square matrix A"):
        null_space(np.zeros(shape))


def test_null_space_vectors_annihilated():
    rng = np.random.default_rng(6)
    # rank-2 matrix on C^4
    A = random_complex((2, 4), rng)
    M = A.conj().T @ A
    basis = null_space(M)
    assert len(basis) == 2
    for v in basis:
        assert np.linalg.norm(M @ v) < 1e-12 * np.linalg.norm(M)


def test_null_space_keeps_real_input_real():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 6))
    M = A.T @ A  # rank 3 on R^6
    basis = null_space(M)
    assert len(basis) == len(null_space(M.astype(complex))) == 3
    assert all(v.dtype == np.float64 for v in basis)
    gram = np.array([[a @ b for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    for v in basis:
        assert np.linalg.norm(M @ v) < 1e-12 * np.linalg.norm(M)


# ---------------------------------------------------------------- Pauli words


def test_pauli_mul_single_qubit_table():
    X, Y, Z = PauliString("X"), PauliString("Y"), PauliString("Z")
    assert pauli_mul(X, Y) == PauliString("Z", 1j)
    assert pauli_mul(Y, Z) == PauliString("X", 1j)
    assert pauli_mul(Z, X) == PauliString("Y", 1j)
    assert pauli_mul(Y, X) == PauliString("Z", -1j)
    assert pauli_mul(Z, Y) == PauliString("X", -1j)
    assert pauli_mul(X, Z) == PauliString("Y", -1j)


def test_pauli_mul_two_qubit_example():
    got = pauli_mul(PauliString("ZX"), PauliString("YI"))
    assert got == PauliString("XX", -1j)
    dense = PauliString("ZX").dense() @ PauliString("YI").dense()
    assert np.array_equal(got.dense(), dense)


@pytest.mark.parametrize("n", [2, 3])
def test_pauli_mul_dense_oracle_exhaustive(n):
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
    for a in words:
        for b in words:
            P, Q = PauliString(a), PauliString(b)
            assert np.array_equal(pauli_mul(P, Q).dense(), P.dense() @ Q.dense())


def test_pauli_mul_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        pauli_mul(PauliString("X"), PauliString("XX"))


def test_pauli_string_validation():
    for letters in ("", "XQ", "xy", "X Y", "XI\n"):
        message = f"letters must be a nonempty word over IXYZ, got {letters!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PauliString(letters)
    with pytest.raises(ValueError):
        PauliString("X", phase=2.0)
    with pytest.raises(ValueError):
        PauliString.single(2, 3, "X")
    for n, qubit in ((3, True), (True, 1), (3, 1.5), (3, "2"), (3.5, 1)):
        with pytest.raises(ValueError, match="integer"):
            PauliString.single(n, qubit, "X")
    assert PauliString.single(3.0, 2.0, "X") == PauliString("IXI")


@pytest.mark.parametrize("value, least, expected", [
    (4, None, 4), (4.0, None, 4), (np.int64(4), 1, 4), (np.float64(-2.0), None, -2), (0, 0, 0),
], ids=["int", "integral-float", "numpy-int", "numpy-float", "at-least"])
def test_integer_returns_an_int(value, least, expected):
    out = algebra._integer(value, "count", least)
    assert out == expected and type(out) is int


@pytest.mark.parametrize("value, least, message", [
    (True, None, "count must be an integer, got True"),
    (np.bool_(False), None, "count must be an integer, got"),
    (2.5, None, "count must be an integer, got 2.5"),
    (math.nan, None, "count must be an integer, got nan"),
    ("3", None, "count must be an integer, got '3'"),
    (0, 1, "count must be an integer of at least 1, got 0"),
    (-1.0, 0, "count must be an integer of at least 0, got -1"),
], ids=["bool", "numpy-bool", "fractional", "nan", "string", "below-least", "float-below-least"])
def test_integer_refuses_booleans_other_types_and_small_values(value, least, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        algebra._integer(value, "count", least)


@pytest.mark.parametrize("value, expected", [
    (-2, -2.0), (0.5, 0.5), (np.float64(0.25), 0.25), (np.float32(1.5), 1.5), (np.int64(-3), -3.0),
    (10**300, 1e300),
], ids=["int", "float", "numpy-float64", "numpy-float32", "numpy-int", "large-int"])
def test_real_returns_a_float(value, expected):
    out = algebra._real(value, "angle")
    assert out == expected and type(out) is float


@pytest.mark.parametrize("value, message", [
    (True, "angle must be a finite real number, got True"),
    (np.bool_(False), "angle must be a finite real number, got"),
    ("3", "angle must be a finite real number, got '3'"),
    (None, "angle must be a finite real number, got None"),
    (1j, "angle must be a finite real number, got 1j"),
    (math.nan, "angle must be a finite real number, got nan"),
    (math.inf, "angle must be a finite real number, got inf"),
    (-math.inf, "angle must be a finite real number, got -inf"),
    (10**400, "angle must be a finite real number, got 1000"),
], ids=["bool", "numpy-bool", "string", "none", "complex", "nan", "inf", "-inf", "10**400"])
def test_real_refuses_booleans_other_types_and_non_finite_values(value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        algebra._real(value, "angle")


@pytest.mark.parametrize("value", [True, "2", None, 10**400],
                         ids=["bool", "string", "none", "10**400"])
def test_positive_refuses_what_real_refuses_in_its_own_words(value):
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        algebra._positive(value, "rate")


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf], ids=repr)
def test_positive_refuses_a_value_that_is_not_positive_and_finite(value):
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        algebra._positive(value, "rate")


def test_operator_returns_the_frozen_array_and_its_largest_entry():
    A, peak = algebra._operator([[1.0, -3j], [2.0, 0.0]], "operator")
    assert A.dtype == complex and not A.flags.writeable
    assert peak == 3.0 and type(peak) is float


def test_pauli_square_and_unitarity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        phase = [1, 1j, -1, -1j][int(rng.integers(4))]
        P = PauliString(word, phase)
        sq = pauli_mul(P, P)
        assert sq.letters == "I" * n
        assert sq.phase in (1, -1)
        D = P.dense()
        assert np.max(np.abs(D @ D.conj().T - np.eye(2**n))) < 1e-15
        if phase in (1, -1):  # real-phase words are Hermitian
            assert np.array_equal(D, D.conj().T)


def test_anticommutes():
    assert anticommutes(PauliString("X"), PauliString("Y"))
    assert not anticommutes(PauliString("X"), PauliString("X"))
    assert not anticommutes(PauliString("XX"), PauliString("YY"))
    assert anticommutes(PauliString("ZX"), PauliString("YI"))


def _tableau_dense(e, x, z, n):
    """i^e X^x Z^z, bit n - q of x and z on qubit q."""
    out = np.array([[1j ** e]])
    for q in range(1, n + 1):
        bit = 1 << (n - q)
        out = np.kron(out, (PAULI_X if x & bit else PAULI_I) @ (PAULI_Z if z & bit else PAULI_I))
    return out


def test_tableau_is_the_dense_word_exhaustive():
    for n in (1, 2, 3):
        for letters in itertools.product("IXYZ", repeat=n):
            for phase in PHASES:
                P = PauliString("".join(letters), phase)
                e, x, z = P.tableau
                assert 0 <= e < 4 and 0 <= x < 2 ** n and 0 <= z < 2 ** n
                assert np.array_equal(_tableau_dense(e, x, z, n), P.dense()), P


# the letter table pauli_mul used before it read products off the tableau
_LETTER_PRODUCTS = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def _letterwise_mul(P, Q):
    """Oracle: the product letter by letter, with phase tracking."""
    phase, letters = P.phase * Q.phase, []
    for a, b in zip(P.letters, Q.letters):
        ph, c = _LETTER_PRODUCTS[a, b]
        phase *= ph
        letters.append(c)
    return PauliString("".join(letters), phase)


def _clashes(P, Q):
    """Oracle: the count of qubits on which both words carry different non-identity letters."""
    return sum(1 for a, b in zip(P.letters, Q.letters) if a != "I" and b != "I" and a != b)


def test_pauli_mul_and_anticommutes_match_the_letterwise_oracle_up_to_1024_letters():
    rng = np.random.default_rng(23)
    anti = 0
    for k in range(400):
        n = 1024 if k < 8 else int(rng.integers(1, 1025 if k % 2 else 9))
        p_id = rng.random()  # identity density, so supports overlap in part
        words = ["".join(rng.choice(list("IXYZ"), n, p=[p_id] + [(1 - p_id) / 3] * 3))
                 for _ in (0, 1)]
        P, Q = (PauliString(w, PHASES[int(rng.integers(4))]) for w in words)
        assert pauli_mul(P, Q) == _letterwise_mul(P, Q)
        assert anticommutes(P, Q) == (_clashes(P, Q) % 2 == 1)
        anti += anticommutes(P, Q)
    assert 100 <= anti <= 300


def test_weight_counts_the_non_identity_letters():
    assert [PauliString(w).weight for w in ("I", "IIII", "XIZ", "YYYY")] == [0, 0, 2, 4]


def test_support_matches_the_letterwise_scan_up_to_1024_letters():
    rng = np.random.default_rng(29)
    words = ["I", "X", "IIII", "YYYY", "I" * 1023 + "Z", "Z" + "I" * 1023]
    for k in range(200):
        n = int(rng.integers(1, 1025))
        p_id = rng.random()
        words.append("".join(rng.choice(list("IXYZ"), n, p=[p_id] + [(1 - p_id) / 3] * 3)))
    for w in words:
        assert PauliString(w).support == tuple(q for q, c in enumerate(w, start=1) if c != "I")


# ---------------------------------------------------------------- decomposition


def test_decompose_identity():
    ps = pauli_decompose(np.eye(2), 1)
    assert len(ps) == 1
    coeff, word = ps.terms[0]
    assert word.letters == "I" and abs(coeff - 1.0) < 1e-15


def test_decompose_z_minus_iy():
    ps = pauli_decompose(PAULI_Z - 1j * PAULI_Y, 1)
    got = {w.letters: c for c, w in ps.terms}
    assert set(got) == {"Y", "Z"}
    assert abs(got["Z"] - 1.0) < 1e-15
    assert abs(got["Y"] + 1j) < 1e-15


def test_decompose_bell_preset_operator():
    # i(X1 Y2 + Y1 X2) - Z1 - Z2 decomposes back into exactly those words
    M = (
        1j * (PauliString("XY").dense() + PauliString("YX").dense())
        - PauliString("ZI").dense()
        - PauliString("IZ").dense()
    )
    got = {w.letters: c for c, w in pauli_decompose(M, 2).terms}
    expected = {"XY": 1j, "YX": 1j, "ZI": -1.0, "IZ": -1.0}
    assert set(got) == set(expected)
    for key, val in expected.items():
        assert abs(got[key] - val) < 1e-14


def test_decompose_reconstructs_random_matrix():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        M = random_complex((2**n, 2**n), rng)
        ps = pauli_decompose(M, n)
        assert len(ps) <= 4**n
        assert np.max(np.abs(ps.dense() - M)) < 1e-12


def test_decompose_roundtrip_on_sums():
    rng = np.random.default_rng(9)
    words = ["IX", "ZZ", "YI", "XY"]
    coeffs = random_complex(4, rng)
    ps = PauliSum.from_terms(2, list(zip(coeffs, words)))
    back = pauli_decompose(ps.dense(), 2)
    got = {w.letters: c for c, w in back.terms}
    for c, w in ps.terms:
        assert abs(got[w.letters] - c) < 1e-12


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_decompose_rejects_a_non_finite_matrix(entry):
    # abs(NaN) >= tol is False, so every NaN coefficient used to be dropped
    with pytest.raises(ValueError, match="finite"):
        pauli_decompose(np.diag([entry, 1.0]), 1)


def test_from_terms_rejects_a_nan_coefficient():
    # it used to drop the NaN term and return Z alone
    with pytest.raises(ValueError, match="not finite"):
        PauliSum.from_terms(1, [(np.nan, "X"), (1.0, "Z")])
    with pytest.raises(ValueError, match="not finite"):
        PauliSum(1, ((np.inf, PauliString("X")),))


@pytest.mark.parametrize("make", [
    lambda n: PauliSum(n, ()), lambda n: pauli_decompose(np.eye(2), n),
], ids=["PauliSum", "pauli_decompose"])
def test_pauli_sums_take_their_qubit_count_as_an_integer(make):
    for bad in (True, np.bool_(True), 1.5, "1", 0):
        with pytest.raises(ValueError, match="n must be an integer"):
            make(bad)
    assert make(1.0).n == 1 and type(make(1.0).n) is int


def test_decompose_rejects_bad_dimension():
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(3), 1)
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(4), 1)


def test_pauli_sum_canonical_form():
    with pytest.raises(ValueError):
        PauliSum(1, ((1.0, PauliString("X")), (2.0, PauliString("X"))))
    with pytest.raises(ValueError):
        PauliSum(1, ((1.0, PauliString("X", 1j)),))
    # from_terms folds phases and merges duplicates
    ps = PauliSum.from_terms(1, [(1.0, PauliString("X", 1j)), (2j, "X")])
    assert len(ps) == 1
    coeff, word = ps.terms[0]
    assert word == PauliString("X") and abs(coeff - 3j) < 1e-15
