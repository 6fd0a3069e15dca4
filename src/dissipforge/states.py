"""Pure states, density matrices, and cluster/graph-state constructions."""

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import PAULI_X, PAULI_Z, kron_all

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PHASE_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)

# per-qubit corrections used when relating locally equivalent states
CORRECTION_GATES = (
    np.eye(2, dtype=complex),
    PAULI_X,
    PAULI_Z,
    PHASE_S,
    HADAMARD,
    HADAMARD @ PAULI_Z,
    PAULI_Z @ HADAMARD,
    HADAMARD @ PHASE_S,
)


def _integer(value, what: str) -> int:
    """value as an int; booleans, non-numbers and non-integral numbers raise ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph on vertices 1..n (no self-loops, no duplicates)."""

    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "vertex count"))
        if self.n < 1:
            raise ValueError("need at least one vertex")
        norm = []
        seen = set()
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"edge {edge!r} does not have two vertices")
            a, b = (_integer(v, "vertex label") for v in edge)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a}, {b}) outside 1..{self.n}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def path(cls, n: int) -> "GraphSpec":
        return cls(n, tuple((q, q + 1) for q in range(1, n)))

    @classmethod
    def complete(cls, n: int) -> "GraphSpec":
        return cls(n, tuple(itertools.combinations(range(1, n + 1), 2)))

    @classmethod
    def from_obj(cls, obj) -> "GraphSpec":
        """Build from the JSON form {"n": int, "edges": [[a, b], ...]}."""
        return cls(obj["n"], tuple(tuple(e) for e in obj.get("edges", ())))

    def to_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


class PureState:
    """Normalized n-qubit state vector; qubit 1 is the most significant bit."""

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        n = int(amp.size).bit_length() - 1
        if amp.size < 2 or amp.size != 1 << n:
            raise ValueError(f"amplitude count {amp.size} is not 2^n for n >= 1")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"state is not normalized: ||amp|| = {norm!r}")
        amp.setflags(write=False)
        self.amplitudes = amp
        self.n = n

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __repr__(self):
        return f"PureState(n={self.n})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on n qubits."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        n = int(m.shape[0]).bit_length() - 1
        if m.shape[0] < 2 or m.shape[0] != 1 << n:
            raise ValueError(f"dimension {m.shape[0]} is not 2^n for n >= 1")
        if not np.all(np.isfinite(m)):  # NaN would pass every test below
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian to 1e-12")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace is {tr!r}, not 1 to 1e-12")
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        if min_eig < -1e-10:
            raise ValueError(f"minimum eigenvalue {min_eig:.3e} below -1e-10")
        m.setflags(write=False)
        self.matrix = m
        self.n = n

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        d = 1 << n
        return cls(np.eye(d, dtype=complex) / d)

    def __repr__(self):
        return f"DensityMatrix(n={self.n})"


def basis_state(n: int, index: int) -> PureState:
    """Computational basis state |index> on n qubits."""
    amp = np.zeros(1 << n, dtype=complex)
    amp[index] = 1.0
    return PureState(amp)


def plus_state(n: int = 1) -> PureState:
    return PureState(np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex))


def bell_state() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    return PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def ghz_state(n: int) -> PureState:
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amp)


def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) array of bits; column q-1 is the bit of qubit q (MSB first)."""
    idx = np.arange(1 << n)
    return (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1


def graph_state(g: GraphSpec) -> PureState:
    """Controlled-phase gates along every edge applied to |+>^n.

    The CZ gates commute, so the result does not depend on edge order.
    """
    bits = _bit_table(g.n)
    signs = np.ones(1 << g.n)
    for a, b in g.edges:
        signs *= 1.0 - 2.0 * (bits[:, a - 1] * bits[:, b - 1])
    return PureState(signs * 2.0 ** (-g.n / 2.0))


def cluster_formula(n: int) -> PureState:
    """One-dimensional cluster state from the literal product form.

    Factor q contributes |0>_q together with a Z on qubit q+1, or |1>_q
    alone; the trailing Z on qubit n+1 is the identity. Expanding the
    product gives amplitude 2^(-n/2) * prod_q [(-1)^(b_{q+1}) if b_q = 0].
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    bits = _bit_table(n)
    signs = np.ones(1 << n)
    for q in range(n - 1):
        signs *= np.where(bits[:, q] == 0, 1.0 - 2.0 * bits[:, q + 1], 1.0)
    return PureState(signs * 2.0 ** (-n / 2.0))


def as_matrix(rho) -> np.ndarray:
    """The matrix of a DensityMatrix, or any array-like as a complex array."""
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def as_vector(phi) -> np.ndarray:
    """The amplitudes of a PureState, or any array-like as a flat complex vector."""
    return phi.amplitudes if isinstance(phi, PureState) else np.asarray(phi, complex).reshape(-1)


def fidelity(rho, phi) -> float:
    """Overlap <phi| rho |phi>, real, clipped to [0, 1]; a non-finite entry raises ValueError."""
    m = as_matrix(rho)
    v = as_vector(phi)
    if m.shape[0] != v.size:
        raise ValueError(f"dimension mismatch: {m.shape[0]} vs {v.size}")
    with np.errstate(invalid="ignore"):  # inf times 0 is NaN, refused below
        val = np.vdot(v, m @ v)
    if not np.isfinite(val):  # clipping would pass NaN and map inf to 1
        raise ValueError("state and target entries must be finite")
    return float(min(max(val.real, 0.0), 1.0))


def purity(rho) -> float:
    """Tr(rho^2)."""
    m = as_matrix(rho)
    return float(np.trace(m @ m).real)


def max_local_overlap(psi, phi, gates=CORRECTION_GATES) -> float:
    """Largest |<phi| (U_1 (x) ... (x) U_n) |psi>| over per-qubit gate choices.

    The default 8-gate set (products over I, X, Z, S, H) is enough to relate
    the small cluster/graph states handled here.
    """
    psi_v = as_vector(psi)
    phi_v = as_vector(phi)
    if psi_v.size != phi_v.size:
        raise ValueError("states live on different registers")
    n = int(psi_v.size).bit_length() - 1
    best = 0.0
    for combo in itertools.product(gates, repeat=n):
        u = kron_all(combo)
        best = max(best, abs(np.vdot(phi_v, u @ psi_v)))
    return best
