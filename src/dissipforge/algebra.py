"""Dense complex linear algebra and Pauli-word algebra shared by every module.

Operators are plain complex numpy arrays. Qubit 1 is the leftmost (most
significant) tensor factor throughout, so the dense form of an n-qubit word
is kron(P_1, kron(P_2, ...)).
"""

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
_LETTER = {("0", "0"): "I", ("1", "0"): "X", ("1", "1"): "Y", ("0", "1"): "Z"}  # (x, z) bits


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(A).conj().T


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


def matexp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square complex matrix (scaling-and-squaring Pade).

    scipy.linalg is imported here, on first use, so only the compiler pays
    for its import time.
    """
    from scipy.linalg import expm

    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matexp needs a square matrix, got shape {A.shape}")
    return expm(A)


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
    if not 0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
        return tuple(q for q, c in enumerate(self.letters, start=1) if c != "I")

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """One letter on a single qubit (1-based), identity elsewhere."""
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
        if self.n < 1:
            raise ValueError("need at least one qubit")
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
    if n < 1:
        raise ValueError("need at least one qubit")
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
