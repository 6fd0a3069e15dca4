"""Compilation of many-body system-bath couplings into two-qubit conjugations.

A conjugation gate T_A wraps the current coupling V as U_A V U_A^dag with
U_A = exp(i pi/4 A); when A and G anticommute this maps e^{i theta G} to
e^{i theta (iAG)}. Chains of such gates grow a single-qubit seed coupling
e^{i theta Y_q (x) B} into e^{i theta W (x) B} for an arbitrary Pauli word W,
touching at most two qubits per gate; verify_sequence exponentiates only the
bath, as exp(i theta P (x) B) = P+ (x) e^{i theta B} + P- (x) e^{-i theta B}
with P+- = (I +- P)/2 when P^2 = I. The module also lowers e^{i theta XX} to
Molmer-Sorensen pulses around an ancilla rotation and builds Trotter products.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliString,
    anticommutes,
    dag,
    kron,
    kron_all,
    matexp,
    pauli_mul,
)
from .states import GraphSpec

VERIFY_TOL = 1e-10  # bound on the relative deviation of verify_sequence


@dataclass(frozen=True)
class Conjugation:
    """Conjugation by exp(i pi/4 axis); the axis touches one or two qubits."""

    axis: PauliString

    def __post_init__(self):
        if self.axis.phase != 1:
            raise ValueError("conjugation axes carry phase +1")
        if self.axis.weight not in (1, 2):
            raise ValueError(f"axis weight must be 1 or 2, got {self.axis.weight}")


@dataclass(frozen=True)
class SeedCoupling:
    """System half of the seed coupling e^{i theta Y_qubit (x) B}."""

    qubit: int


@dataclass(frozen=True)
class AncillaRotation:
    """exp(-i angle Z) on the ancilla qubit."""

    angle: float


@dataclass(frozen=True)
class MSGate:
    """Molmer-Sorensen pulse exp[-i mu (cos(nu) Sx + sin(nu) Sy)^2 / 4]."""

    mu: float
    nu: float


@dataclass(frozen=True, eq=False)
class GateSequence:
    """Ordered gates realizing e^{i theta target (x) B}; first gate acts first.

    Conjugation sequences wrap gates[0] (the seed) outward in list order.
    MS sequences store the register labels (ancilla, p, q) in `qubits`.
    """

    gates: tuple
    target: PauliString
    theta: float
    qubits: tuple | None = None

    @property
    def conjugations(self) -> tuple[Conjugation, ...]:
        return tuple(g for g in self.gates if isinstance(g, Conjugation))

    @property
    def seed(self) -> SeedCoupling | None:
        for g in self.gates:
            if isinstance(g, SeedCoupling):
                return g
        return None

    def to_json_obj(self) -> dict:
        gates = []
        for g in self.gates:
            if isinstance(g, SeedCoupling):
                gates.append({"kind": "seed", "qubits": [g.qubit], "pauli_word": "Y",
                              "angle": self.theta})
            elif isinstance(g, Conjugation):
                gates.append({"kind": "conjugation", "qubits": list(g.axis.support),
                              "pauli_word": g.axis.letters, "angle": math.pi / 4})
            elif isinstance(g, AncillaRotation):
                gates.append({"kind": "ancilla_rotation", "qubits": [0], "pauli_word": "Z",
                              "angle": g.angle})
            elif isinstance(g, MSGate):
                gates.append({"kind": "ms", "qubits": list(self.qubits or ()),
                              "pauli_word": "", "angle": g.mu, "angle2": g.nu})
            else:
                raise TypeError(f"unknown gate {g!r}")
        return {
            "target": self.target.letters,
            "theta": self.theta,
            "register": list(self.qubits) if self.qubits else None,
            "gates": gates,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "GateSequence":
        gates = []
        for g in obj["gates"]:
            kind = g["kind"]
            if kind == "seed":
                gates.append(SeedCoupling(int(g["qubits"][0])))
            elif kind == "conjugation":
                gates.append(Conjugation(PauliString(g["pauli_word"])))
            elif kind == "ancilla_rotation":
                gates.append(AncillaRotation(float(g["angle"])))
            elif kind == "ms":
                gates.append(MSGate(float(g["angle"]), float(g.get("angle2", 0.0))))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        register = obj.get("register")
        return cls(tuple(gates), PauliString(obj["target"]), float(obj["theta"]),
                   tuple(register) if register else None)

    def render_text(self) -> str:
        """One gate per line, in application order."""
        lines = [f"# target exp(i theta {self.target.letters} B), theta = {self.theta:.15g}"]
        for g in self.gates:
            if isinstance(g, SeedCoupling):
                lines.append(f"seed        q{g.qubit}  exp(i theta Y{g.qubit} B)")
            elif isinstance(g, Conjugation):
                qs = ",".join(f"q{q}" for q in g.axis.support)
                lines.append(f"conjugation {qs}  exp(i pi/4 {g.axis.letters})")
            elif isinstance(g, AncillaRotation):
                lines.append(f"rotation    q0  exp(-i {g.angle:.15g} Z0)")
            elif isinstance(g, MSGate):
                lines.append(f"ms          all  U_MS({g.mu:.15g}, {g.nu:.15g})")
            else:
                raise TypeError(f"unknown gate {g!r}")
        return "\n".join(lines) + "\n"


def conjugation_step(A: PauliString, G: PauliString) -> PauliString:
    """Image of G under conjugation by exp(i pi/4 A): G -> iAG.

    Requires A and G to anticommute; a commuting pair would leave G
    unchanged, which is rejected rather than silently accepted.
    """
    if A.n != G.n:
        raise ValueError(f"qubit counts differ: {A.n} vs {G.n}")
    if A.weight > 2:
        raise ValueError("conjugation axes touch at most two qubits")
    if not anticommutes(A, G):
        raise ValueError(f"{A} commutes with {G}; conjugation would be trivial")
    prod = pauli_mul(A, G)
    return PauliString(prod.letters, 1j * prod.phase)


# sign-free single-letter moves: current letter -> (conjugation axis, new letter);
# each satisfies i * axis * letter = +new letter, so chained fixes never pick up
# a sign (the reverse moves would).
_FORWARD = {"Y": ("Z", "X"), "X": ("Y", "Z"), "Z": ("X", "Y")}


def compile_coupling(W: PauliString, theta: float, allowed: GraphSpec | None = None) -> GateSequence:
    """Conjugation sequence growing a Y seed on the lowest support qubit into W.

    The support is swept outward one adjacent qubit at a time with two-qubit
    conjugators (placing X on each new qubit), then every local letter is
    fixed with at most two single-qubit conjugators along the sign-free
    cycle, so the realized word is exactly W with phase +1. Gate count is
    at most 3 weight(W) - 2. The output is certified by verify_sequence,
    never trusted structurally.
    """
    if W.phase != 1:
        raise ValueError("target must carry phase +1; absorb signs into theta upstream")
    if W.weight < 1:
        raise ValueError("target must act on at least one qubit")
    if allowed is None:
        allowed = GraphSpec.complete(W.n)
    if allowed.n != W.n:
        raise ValueError(f"adjacency graph has {allowed.n} vertices, word has {W.n} qubits")
    edge_set = set(allowed.edges)

    support = list(W.support)
    seed = support[0]
    current = PauliString.single(W.n, seed, "Y")
    gates: list = [SeedCoupling(seed)]

    def apply(axis: PauliString):
        nonlocal current
        gates.append(Conjugation(axis))
        current = conjugation_step(axis, current)

    visited = {seed}
    pending = set(support) - visited
    while pending:
        candidates = sorted(
            (q, f)
            for q in pending
            for f in visited
            if (min(f, q), max(f, q)) in edge_set
        )
        if not candidates:
            raise ValueError(
                f"support {tuple(support)} is not connected in the adjacency graph"
            )
        q, f = candidates[0]
        axis_letter, _ = _FORWARD[current.letter(f)]
        word = ["I"] * W.n
        word[f - 1] = axis_letter
        word[q - 1] = "X"
        apply(PauliString("".join(word)))
        visited.add(q)
        pending.discard(q)

    for qb in support:
        while current.letter(qb) != W.letter(qb):
            axis_letter, _ = _FORWARD[current.letter(qb)]
            apply(PauliString.single(W.n, qb, axis_letter))

    if current != W:
        raise RuntimeError(f"compilation drifted to {current} instead of {W}")
    return GateSequence(tuple(gates), W, float(theta))


@dataclass(frozen=True, eq=False)
class BathTestSpec:
    """Abstract bath factor for dense verification; any d >= 2 operator works."""

    operator: np.ndarray

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex).copy()
        if op.ndim != 2 or op.shape[0] != op.shape[1] or op.shape[0] < 2:
            raise ValueError(f"bath operator must be square with d >= 2, got shape {op.shape}")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)

    @property
    def dimension(self) -> int:
        return self.operator.shape[0]

    @classmethod
    def random(cls, dim: int, seed: int = 0) -> "BathTestSpec":
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    @classmethod
    def lowering(cls, dim: int) -> "BathTestSpec":
        """Truncated harmonic-oscillator annihilation operator."""
        op = np.zeros((dim, dim), dtype=complex)
        for m in range(1, dim):
            op[m - 1, m] = np.sqrt(m)
        return cls(op)


@dataclass(frozen=True)
class VerificationReport:
    """Dense certificate for a conjugation sequence; failure is data, not an error.

    Each deviation is relative, ||V - T||_F / ||T||_F, between the realized
    coupling V and the target T at one theta sample; the sequence passes when
    the largest is at most `tolerance`.
    """

    passed: bool
    max_deviation: float
    deviations: tuple
    thetas: tuple
    tolerance: float


def verify_sequence(seq: GateSequence, bath: BathTestSpec, theta_samples) -> VerificationReport:
    """Check T = e^{i theta W (x) B} against the realized sequence at each theta.

    The conjugators act as identity on the bath, so the sequence realizes
    V = e^{i theta Q (x) B}, Q = C Y_seed C^dag. V and T are built as
    P+ (x) e^{i theta B} + P- (x) e^{-i theta B} of P = Q and W: only the bath
    factor is exponentiated. Each deviation is ||V - T||_F / ||T||_F: the test
    bath need not be normalized or Hermitian, so ||T|| can grow as
    e^{theta ||B||} and an absolute bound would reject correct sequences on
    large baths. The sequence passes when every deviation is at most VERIFY_TOL.
    """
    if seq.seed is None or any(
        not isinstance(g, (SeedCoupling, Conjugation)) for g in seq.gates
    ):
        raise ValueError("verify_sequence handles seed + conjugation sequences only")
    thetas = tuple(float(t) for t in theta_samples)
    Q, W = _realized_word(seq), seq.target.dense()
    devs = []
    for theta in thetas:
        E = matexp(1j * theta * bath.operator), matexp(-1j * theta * bath.operator)
        V, T = _word_coupling(Q, *E), _word_coupling(W, *E)
        devs.append(float(np.linalg.norm(V - T) / np.linalg.norm(T)))
        del V, T  # the next theta's pair is built without them
    max_dev = float(np.max(devs))  # NaN propagates, and fails the bound below
    return VerificationReport(max_dev <= VERIFY_TOL, max_dev, tuple(devs), thetas, VERIFY_TOL)


def _realized_word(seq: GateSequence) -> np.ndarray:
    """Q = C Y_seed C^dag, C the conjugators (I + iA)/sqrt2 multiplied in list order."""
    dim = 1 << seq.target.n
    C = np.eye(dim, dtype=complex)
    for g in seq.conjugations:
        C = ((np.eye(dim) + 1j * g.axis.dense()) * math.sqrt(0.5)) @ C
    return C @ PauliString.single(seq.target.n, seq.seed.qubit, "Y").dense() @ dag(C)


def _word_coupling(P, plus, minus) -> np.ndarray:
    """exp(i theta P (x) B) from plus, minus = e^{+-i theta B}, for P^2 = I."""
    eye = np.eye(len(P))
    return kron((eye + P) / 2, plus) + kron((eye - P) / 2, minus)


def ms_decompose(p: int, q: int, theta: float) -> GateSequence:
    """Two MS pulses and an ancilla rotation realizing e^{i theta X_p X_q}.

    The register order is (ancilla, p, q) with the ancilla prepared in |0>.
    The sequence U_MS(-pi/2, 0) exp(-i theta Z_0) U_MS(pi/2, 0) equals
    e^{i theta Z_0 X_p X_q} exactly, so on the |0> ancilla sector it acts as
    e^{i theta X_p X_q} with unit global phase and returns the ancilla to
    |0>; this convention is pinned numerically in the tests.
    """
    if p == q:
        raise ValueError("the two system qubits must be distinct")
    gates = (MSGate(np.pi / 2.0, 0.0), AncillaRotation(float(theta)), MSGate(-np.pi / 2.0, 0.0))
    return GateSequence(gates, PauliString("XX"), float(theta), qubits=(0, int(p), int(q)))


def ms_gate_matrix(mu: float, nu: float) -> np.ndarray:
    """Dense MS pulse on the three-qubit (ancilla, p, q) register."""
    eye = np.eye(2, dtype=complex)
    sx = sum(kron_all(ops) for ops in (
        (PAULI_X, eye, eye), (eye, PAULI_X, eye), (eye, eye, PAULI_X)))
    sy = sum(kron_all(ops) for ops in (
        (PAULI_Y, eye, eye), (eye, PAULI_Y, eye), (eye, eye, PAULI_Y)))
    G = np.cos(nu) * sx + np.sin(nu) * sy
    return matexp(-0.25j * mu * (G @ G))


def _ms_sequence_gate_matrix(gate) -> np.ndarray:
    if isinstance(gate, MSGate):
        return ms_gate_matrix(gate.mu, gate.nu)
    if isinstance(gate, AncillaRotation):
        return kron(matexp(-1j * gate.angle * PAULI_Z), np.eye(4, dtype=complex))
    raise TypeError(f"unexpected gate {gate!r} in an MS sequence")


def realize_ms_sequence(seq: GateSequence) -> np.ndarray:
    """8x8 unitary of an MS sequence; gates apply in list order."""
    U = np.eye(8, dtype=complex)
    for g in seq.gates:
        U = _ms_sequence_gate_matrix(g) @ U
    return U


def ms_system_action(seq: GateSequence) -> tuple[np.ndarray, np.ndarray]:
    """(|0> -> |0> block, |0> -> |1> block) of an MS sequence on the system."""
    U = realize_ms_sequence(seq)
    return U[:4, :4], U[4:, :4]


def trotter_step(terms, dt: float, bath: BathTestSpec) -> np.ndarray:
    """First-order product prod_a exp[-i (W_a (x) B^dag + W_a^dag (x) B) dt].

    Factors multiply left to right in term order; the single-step deviation
    from the exact exponential of the summed generator is O(dt^2).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one coupling term")
    n = terms[0].n
    if any(t.n != n for t in terms):
        raise ValueError("coupling terms act on different registers")
    U = np.eye((1 << n) * bath.dimension, dtype=complex)
    for term in terms:
        U = U @ matexp(-1j * dt * _coupling(term, bath))
    return U


def _coupling(term: PauliString, bath: BathTestSpec) -> np.ndarray:
    """W (x) B^dag + W^dag (x) B for one coupling term W."""
    W, B = term.dense(), bath.operator
    return kron(W, dag(B)) + kron(dag(W), B)


def coupling_generator(terms, bath: BathTestSpec) -> np.ndarray:
    """Summed generator sum_a (W_a (x) B^dag + W_a^dag (x) B) for cross-checks."""
    return sum(_coupling(term, bath) for term in terms)
