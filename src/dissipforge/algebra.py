"""Dense complex linear algebra and Pauli-word algebra shared by every module.

Operators are plain complex numpy arrays. Qubit 1 is the leftmost (most
significant) tensor factor throughout, so the dense form of an n-qubit word
is kron(P_1, kron(P_2, ...)).
"""

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)  # PHASES[e] = i^e

# a word phase * letters is i^e X^x Z^z with Y = i X Z; bit n - q of x and z is qubit q
_X_BIT, _Z_BIT = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
_NOT_PAULI = str.maketrans("", "", "IXYZ")  # deletes every Pauli letter
_NON_IDENTITY = re.compile("[XYZ]")
_LETTER = {("0", "0"): "I", ("1", "0"): "X", ("1", "1"): "Y", ("0", "1"): "Z"}  # (x, z) bits


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(A).conj().T


def _frozen(A) -> np.ndarray:
    """A as a read-only complex array that owns its data, the one intake of every
    constructor that keeps an array: such an array is kept as it is, so one frozen
    by its maker is held once; anything else, a read-only view included, is copied."""
    if (isinstance(A, np.ndarray) and A.dtype == complex
            and A.flags.owndata and not A.flags.writeable):
        return A
    A = np.array(A, dtype=complex)
    A.setflags(write=False)
    return A


def _operator(A, what: str) -> tuple[np.ndarray, float]:
    """(`_frozen(A)`, its largest |entry|), the one intake of every constructor that
    keeps an operator: A must be square, non-empty and finite, or ValueError names
    `what`. The largest |entry| is the one pass that tests finiteness."""
    A = _frozen(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError(f"{what} must be square and non-empty, got shape {A.shape}")
    peak = float(np.max(np.abs(A)))
    if not math.isfinite(peak):  # an inf or NaN entry
        raise ValueError(f"{what} entries must be finite, got {peak}")
    return A, peak


def _times_power_of_two(x: np.ndarray, k: int) -> np.ndarray:
    """x 2^k for a complex array, exact while its entries stay normal floats."""
    return np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)


def _rank_one(u, v, what: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(u 2^e, v 2^-e, max|u| max|v|), the one intake of every constructor that keeps
    a rank-one operator L = u v^dag as its factors, beside `_operator`: u and v must be
    non-empty vectors of one length whose product L is finite, or ValueError names
    `what`. max|u| max|v| is L's largest |entry|, as ||u|| ||v|| is its Frobenius
    norm, to rounding; L itself is never built here.

    The pair is balanced so that v's largest |entry| lies in [1, 2) and u carries L's
    scale, at most the peak: e is set by v's binary exponent, the scaling is exact
    while the entries stay normal floats, so u v^dag keeps its bits, and a factor of
    1e200 beside one of 1e-200 leaves neither norm to overflow or underflow where L's
    does not (`DissipatorSet._rescaled` then divides u alone). Both factors come
    through `_frozen`; a pair already balanced is kept as it is."""
    u, v = _frozen(u), _frozen(v)
    if u.ndim != 1 or u.shape != v.shape or not u.size:
        raise ValueError(f"{what} factors must be non-empty vectors of one length, "
                         f"got shapes {u.shape} and {v.shape}")
    v_peak = float(np.max(np.abs(v)))
    peak = float(np.max(np.abs(u))) * v_peak
    if not math.isfinite(peak):  # an inf or NaN entry, or a product beyond the float range
        raise ValueError(f"{what} entries must be finite, got {peak}")
    e = math.frexp(v_peak)[1] - 1  # v_peak = m 2^(e + 1) with 1/2 <= m < 1
    if v_peak and e:  # a zero v is kept as it is
        u, v = _times_power_of_two(u, e), _times_power_of_two(v, -e)
        u.setflags(write=False)
        v.setflags(write=False)
    return u, v, peak


def _integer(value, what: str, least: int | None = None) -> int:
    """value as an int, the one check of every count: an integral float becomes an
    int; a boolean, any other type or a value below least raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """value as a float, the one check of every real number: an int or float, numpy
    scalars included, that is finite and within the float range; a boolean, a string,
    any other type, a non-finite value or a larger int raises ValueError naming `what`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:  # an int beyond the float range
            out = math.inf
        if math.isfinite(out):
            return out
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


def _positive(value, what: str) -> float:
    """`_real(value)`, the one check of every rate, step and tolerance, which must
    also be positive; every refusal says "positive and finite" and names `what`."""
    try:
        out = _real(value, what)
    except ValueError:
        out = math.nan  # refused below with this check's own message
    if not out > 0:
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return out


def complex_pairs(A: np.ndarray) -> list:
    """Entries of a complex array in C order as [re, im] float pairs (the JSON form)."""
    flat = np.asarray(A).reshape(-1)
    return np.column_stack((flat.real, flat.imag)).tolist()


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B; A is the more significant factor."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def kron_all(ops) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


# degree m: (theta_m, the largest ||A||_1 at which the degree-m Pade approximant
# keeps its backward error within the double unit roundoff, and its numerator
# coefficients b_0..b_m); the denominator is the numerator at -A (Higham, SIAM
# J. Matrix Anal. Appl. 26, 1179 (2005))
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
         110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
          129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
          40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def _add_terms(out, scratch, terms, c0=0.0):
    """out += c P for each (c, P) of terms, then c0 on the diagonal, in place."""
    for c, P in terms:
        out += np.multiply(P, c, out=scratch)
    if c0:
        out.flat[:: len(out) + 1] += c0
    return out


def _pade(A, m):
    """(U, V), odd and even in A, of the degree-m Pade approximant
    (V - U)^-1 (V + U) of exp(A), written into six n x n buffers at most.

    Degree 13 overwrites A, which must be the caller's scaled copy, and nests
    its terms as Higham 2005 does: U = A [A6 (b13 A6 + b11 A4 + b9 A2) + ...]."""
    b = _PADE[m][1]
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        X, Y = np.multiply(A6, b[13]), np.empty_like(A)
        _add_terms(X, Y, ((b[11], A4), (b[9], A2)))
        np.matmul(A6, X, out=Y)
        U = np.matmul(A, _add_terms(Y, X, ((b[7], A6), (b[5], A4), (b[3], A2)), b[1]), out=X)
        np.multiply(A6, b[12], out=Y)
        V = np.matmul(A6, _add_terms(Y, A, ((b[10], A4), (b[8], A2))), out=A)
        return U, _add_terms(V, Y, ((b[6], A6), (b[4], A4), (b[2], A2)), b[0])
    powers = [A2]  # A^2, A^4, ..., A^(m - 1)
    while len(powers) < (m - 1) // 2:
        powers.append(powers[-1] @ A2)
    top, lower = powers[-1], powers[-2::-1]
    S = np.empty_like(A)
    Y = _add_terms(np.multiply(top, b[m]), S, zip(b[m - 2:2:-2], lower), b[1])
    U = np.matmul(A, Y, out=S)
    np.multiply(top, b[m - 1], out=Y)
    return U, _add_terms(Y, top, zip(b[m - 3:1:-2], lower), b[0])


def matexp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square complex matrix, in numpy alone.

    Scaling and squaring (Higham 2005): the Pade degree m in 3, 5, 7, 9 is the
    least whose theta_m bounds ||A||_1; past theta_9, degree 13 at A / 2^s,
    with s the least that brings the norm within theta_13, then s squarings.
    A NaN or inf entry raises ValueError.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matexp needs a square matrix, got shape {A.shape}")
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"matexp needs a matrix with a finite 1-norm, got {norm}")
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE[m][0]), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE[13][0]))) if m == 13 else 0
    U, V = _pade(A * 2.0 ** -s if m == 13 else A, m)
    Q = V - U
    V += U
    R = np.linalg.solve(Q, V)
    if s:
        T = np.empty_like(R)
        for _ in range(s):
            np.matmul(R, R, out=T)
            R, T = T, R
    return R


def null_space(A: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of a square matrix.

    A right singular vector is accepted when its singular value is at most
    tol times the largest singular value, so the returned dimension equals
    the count of singular values below that relative threshold. The SVD
    runs in double precision, real for real input, which gives a real basis.
    """
    A = np.asarray(A)
    A = A.astype(np.result_type(A.dtype, np.float64), copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError(f"null_space needs a non-empty square matrix A, got shape {A.shape}")
    tol = _positive(tol, "tol")
    _, s, vh = np.linalg.svd(A)
    cutoff = tol * s[0]
    return [vh[i].conj() for i in range(len(s)) if s[i] <= cutoff]


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli word phase * P_1 (x) ... (x) P_n, phase in {1, i, -1, -i}."""

    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if not self.letters or self.letters.translate(_NOT_PAULI):
            raise ValueError(f"letters must be a nonempty word over IXYZ, got {self.letters!r}")
        object.__setattr__(self, "phase", complex(self.phase))
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of 1, i, -1, -i, got {self.phase}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return len(self.letters) - self.letters.count("I")

    @property
    def support(self) -> tuple[int, ...]:
        """1-based indices of the non-identity qubits."""
        return tuple(m.start() + 1 for m in _NON_IDENTITY.finditer(self.letters))

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """One letter on a single qubit (1-based), identity elsewhere."""
        n, qubit = _integer(n, "qubit count"), _integer(qubit, "qubit")
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} outside 1..{n}")
        word = ["I"] * n
        word[qubit - 1] = letter
        return cls("".join(word))

    def letter(self, qubit: int) -> str:
        """Letter acting on the given qubit (1-based)."""
        return self.letters[qubit - 1]

    @property
    def tableau(self) -> tuple[int, int, int]:
        """(e, x, z) with this word = i^e X^x Z^z: e mod 4, x and z bit strings as ints."""
        letters = self.letters
        e = PHASES.index(self.phase) + letters.count("Y")
        return e % 4, int(letters.translate(_X_BIT), 2), int(letters.translate(_Z_BIT), 2)

    def dense(self) -> np.ndarray:
        out = np.array([[self.phase]], dtype=complex)
        for c in self.letters:
            out = np.kron(out, PAULIS[c])
        return out

    def __str__(self):
        prefix = {1 + 0j: "+", 1j: "+i", -1 + 0j: "-", -1j: "-i"}[self.phase]
        return prefix + self.letters


def tableau_mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """(e, x, z) of i^e_a X^x_a Z^z_a i^e_b X^x_b Z^z_b: moving Z^z_a past X^x_b costs
    (-1)^{|z_a & x_b|} (Aaronson & Gottesman, PRA 70, 052328 (2004))."""
    (e_a, x_a, z_a), (e_b, x_b, z_b) = a, b
    return (e_a + e_b + 2 * (z_a & x_b).bit_count()) % 4, x_a ^ x_b, z_a ^ z_b


def tableau_anticommutes(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """True when the words of two tableaux anticommute: |x_a & z_b| + |z_a & x_b| is odd."""
    (_, x_a, z_a), (_, x_b, z_b) = a, b
    return ((x_a & z_b).bit_count() + (z_a & x_b).bit_count()) % 2 == 1


def pauli_mul(P: PauliString, Q: PauliString) -> PauliString:
    """Exact product of two Pauli words, by the tableau rule (tableau_mul)."""
    if P.n != Q.n:
        raise ValueError(f"qubit counts differ: {P.n} vs {Q.n}")
    e, x, z = tableau_mul(P.tableau, Q.tableau)
    letters = map(_LETTER.__getitem__, zip(format(x, f"0{P.n}b"), format(z, f"0{P.n}b")))
    return PauliString("".join(letters), PHASES[(e - (x & z).bit_count()) % 4])


def anticommutes(P: PauliString, Q: PauliString) -> bool:
    """True when the words anticommute (tableau_anticommutes)."""
    if P.n != Q.n:
        raise ValueError(f"qubit counts differ: {P.n} vs {Q.n}")
    return tableau_anticommutes(P.tableau, Q.tableau)


@dataclass(frozen=True)
class PauliSum:
    """Complex combination of phase-free Pauli words in canonical merged form."""

    n: int
    terms: tuple  # of (complex coefficient, PauliString with phase +1)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        seen = set()
        norm = []
        for coeff, word in self.terms:
            if word.n != self.n:
                raise ValueError(f"term {word} does not act on {self.n} qubits")
            if word.phase != 1:
                raise ValueError(f"term words must carry phase +1, got {word}")
            if word.letters in seen:
                raise ValueError(f"duplicate word {word.letters}")
            seen.add(word.letters)
            if not np.isfinite(complex(coeff)):
                raise ValueError(f"coefficient of {word.letters} is not finite: {coeff}")
            norm.append((complex(coeff), word))
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def from_terms(cls, n: int, terms, tol: float = 1e-14) -> "PauliSum":
        """Merge duplicate words, fold word phases into coefficients, drop zeros
        (|c| < tol); a non-finite coefficient is kept, so the constructor rejects it."""
        acc: dict[str, complex] = {}
        for coeff, word in terms:
            if isinstance(word, str):
                word = PauliString(word)
            acc[word.letters] = acc.get(word.letters, 0j) + complex(coeff) * word.phase
        merged = tuple(
            (c, PauliString(w)) for w, c in sorted(acc.items()) if not abs(c) < tol
        )
        return cls(n, merged)

    def dense(self) -> np.ndarray:
        out = np.zeros((1 << self.n, 1 << self.n), dtype=complex)
        for coeff, word in self.terms:
            out += coeff * word.dense()
        return out

    def __len__(self):
        return len(self.terms)


_PAULI_STACK = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
_LETTER_ORDER = "IXYZ"


def pauli_decompose(M: np.ndarray, n: int, tol: float = 1e-14) -> PauliSum:
    """Expand a 2^n x 2^n matrix in the Pauli-word basis.

    Coefficients are Tr(W M) / 2^n for each Hermitian word W; terms with
    magnitude below tol are dropped. A non-finite entry of M, or a coefficient
    that overflows, raises ValueError. The contraction runs one qubit at a
    time, so the cost is O(n 4^n) rather than O(16^n).
    """
    M = np.asarray(M, dtype=complex)
    n = _integer(n, "n", 1)
    dim = 1 << n
    if M.shape != (dim, dim):
        raise ValueError(f"matrix shape {M.shape} is not ({dim}, {dim})")
    if not np.isfinite(M).all():  # NaN would be dropped as a zero coefficient
        raise ValueError("matrix entries must be finite")
    T = M.reshape((2,) * (2 * n))
    for k in range(n):
        # contract column bit (axis n) and row bit (axis k) of the next qubit
        T = np.tensordot(_PAULI_STACK, T, axes=([1, 2], [n, k]))
    coeffs = np.transpose(T, tuple(reversed(range(n)))) / dim
    terms = []
    for idx in np.ndindex(coeffs.shape):
        c = coeffs[idx]
        if not abs(c) < tol:  # NaN is kept, and rejected by PauliSum
            word = "".join(_LETTER_ORDER[i] for i in idx)
            terms.append((complex(c), PauliString(word)))
    return PauliSum(n, tuple(terms))
