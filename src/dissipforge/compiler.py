"""Compilation of many-body system-bath couplings into two-qubit conjugations.

A conjugation gate T_A wraps the current coupling V as U_A V U_A^dag with
U_A = exp(i pi/4 A); when A and G anticommute this maps e^{i theta G} to
e^{i theta (iAG)}. Chains of such gates grow a single-qubit seed coupling
e^{i theta Y_q (x) B} into e^{i theta W (x) B} for an arbitrary Pauli word W,
touching at most two qubits per gate. The module also lowers e^{i theta XX}
to Molmer-Sorensen pulses around an ancilla rotation and builds Trotter
products. Every Pauli coupling is exponentiated through its bath alone, as
exp(i theta P (x) B) = P+ (x) e^{i theta B} + P- (x) e^{-i theta B} with
P+- = (I +- P)/2 when P^2 = I, so matexp only sees bath-sized operands
(verify_sequence, trotter_step); the MS pulses and the ancilla rotation are
products of such closed forms and need no matexp at all.

verify_sequence builds no register (x) bath array and no 2^n x 2^n one. Every
gate it accepts is Clifford, so the realized word is exactly i^e X^x Z^z, an
exponent mod 4 and two bit strings that a stabilizer-tableau update tracks in
O(n) per gate (Gottesman, quant-ph/9807006; Aaronson & Gottesman, PRA 70,
052328 (2004)). The realized and target couplings differ by
((Q - W)/2) (x) (e^{i theta B} - e^{-i theta B}), so each Frobenius norm it
needs is a product of a word norm, read off the two words in closed form, and
a bath norm.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import (PHASES, PauliString, anticommutes, dag, kron, matexp, pauli_mul,
                      tableau_anticommutes, tableau_mul)
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

    The support is grown one adjacent qubit at a time with two-qubit
    conjugators (placing X on each new qubit): each step takes the lowest
    pending qubit with a grown neighbour, and its lowest grown neighbour.
    Then every local letter is fixed with at most two single-qubit
    conjugators along the sign-free cycle, so the realized word is exactly W
    with phase +1. Each gate's letters are read off _FORWARD, one letter per
    grown qubit, with no word product. Gate count is at most 3 weight(W) - 2;
    building the n-letter axes costs O(n) per gate, so a path-graph word
    costs O(n^2). The output is certified by verify_sequence, never trusted
    structurally.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if W.phase != 1:
        raise ValueError("target must carry phase +1; absorb signs into theta upstream")
    if W.weight < 1:
        raise ValueError("target must act on at least one qubit")
    if allowed is not None and allowed.n != W.n:
        raise ValueError(f"adjacency graph has {allowed.n} vertices, word has {W.n} qubits")

    support = W.support
    seed, pending = support[0], list(support[1:])
    # with no graph every pair is adjacent, so the lowest grown neighbour is always the seed
    neighbours = {q: {seed} if allowed is None else set() for q in support}
    for a, b in () if allowed is None else allowed.edges:
        if a in neighbours and b in neighbours:
            neighbours[a].add(b)
            neighbours[b].add(a)
    letters = {seed: "Y"}  # the realized word's letter on each grown qubit
    gates: list = [SeedCoupling(seed)]
    while pending:
        for i, q in enumerate(pending):
            grown = neighbours[q] & letters.keys()
            if grown:
                break
        else:
            raise ValueError(f"support {support} is not connected in the adjacency graph")
        del pending[i]
        f = min(grown)
        word = ["I"] * W.n
        word[f - 1], letters[f] = _FORWARD[letters[f]]
        word[q - 1] = letters[q] = "X"
        gates.append(Conjugation(PauliString("".join(word))))

    for q in support:
        while letters[q] != W.letter(q):
            axis, letters[q] = _FORWARD[letters[q]]
            gates.append(Conjugation(PauliString.single(W.n, q, axis)))
    return GateSequence(tuple(gates), W, float(theta))


@dataclass(frozen=True, eq=False)
class BathTestSpec:
    """Abstract bath factor for dense verification; any d >= 2 operator works."""

    operator: np.ndarray

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex).copy()
        if op.ndim != 2 or op.shape[0] != op.shape[1] or op.shape[0] < 2:
            raise ValueError(f"bath operator must be square with d >= 2, got shape {op.shape}")
        if not np.isfinite(op).all():
            raise ValueError("bath operator entries must be finite")
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
    """Certificate for a conjugation sequence; failure is data, not an error.

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

    The sequence must be one seed at gates[0], on a qubit in 1..n, followed by
    conjugations on the target's qubits, and the target must carry a real
    phase, so that W^2 = I. The conjugators act as identity on the bath, so
    the sequence realizes V = e^{i theta Q (x) B}, Q = C Y_seed C^dag, and Q
    is read off a tableau (_realized_tableau) as i^e X^x Z^z. Both couplings
    are P+ (x) E+ + P- (x) E- of P = Q and W, with E+- = e^{+-i theta B} and
    P+- = (I +- P)/2, so V - T = ((Q - W)/2) (x) (E+ - E-) and, as the
    Frobenius norm of a Kronecker product is the product of the norms,
    ||V - T||_F = ||Q - W||_F ||E+ - E-||_F / 2. W+ W- = 0 gives
    ||T||_F^2 = tr(W+) ||E+||_F^2 + tr(W-) ||E-||_F^2. Distinct Pauli words are
    orthogonal, so ||Q - W||_F / 2^{n/2} is 0 for the same word and phase,
    |i^e - i^{e_W}| for the same word at another phase and sqrt2 for another
    word, and tr(W+-) / 2^n = (1 +- w)/2, w the real phase of an identity word
    and 0 for any other; the 2^{n/2} cancels from the ratio, so nothing of
    size 2^n is built and a correct sequence reads exactly 0.

    Each deviation is ||V - T||_F / ||T||_F: the test bath need not be
    normalized or Hermitian, so ||T|| can grow as e^{theta ||B||} and an
    absolute bound would reject correct sequences on large baths. The sequence
    passes when every deviation is at most VERIFY_TOL.
    """
    n, gates = seq.target.n, seq.gates
    if not gates or not isinstance(gates[0], SeedCoupling):
        raise ValueError("verify_sequence needs the seed coupling at gates[0]")
    qubit = gates[0].qubit
    if not isinstance(qubit, numbers.Integral) or not 1 <= qubit <= n:
        raise ValueError(f"gates[0] seeds qubit {qubit!r}, outside 1..{n}")
    for i, g in enumerate(gates[1:], 1):
        if not isinstance(g, Conjugation):
            raise ValueError(f"gates[{i}] is {g!r}: verify_sequence handles one seed "
                             "followed by conjugations only")
        if g.axis.n != n:
            raise ValueError(f"gates[{i}] has an axis on {g.axis.n} qubits, "
                             f"the target acts on {n}")
    if seq.target.phase.imag:
        raise ValueError(f"target must carry a real phase, got {seq.target}")
    thetas = tuple(float(t) for t in theta_samples)
    if not thetas:
        raise ValueError("theta_samples must hold at least one angle")
    if not all(map(math.isfinite, thetas)):
        raise ValueError(f"theta_samples must be finite, got {thetas}")
    (e, x, z), (e_w, x_w, z_w) = _realized_tableau(seq), seq.target.tableau
    # ||Q - W||_F / 2^{n/2}; distinct Pauli words are orthogonal
    word_dev = abs(PHASES[e] - PHASES[e_w]) if (x, z) == (x_w, z_w) else math.sqrt(2)
    w = PHASES[e_w].real if x_w == z_w == 0 else 0.0  # tr W / 2^n
    devs = []
    for theta in thetas:
        E = matexp(1j * theta * bath.operator), matexp(-1j * theta * bath.operator)
        # ||T||_F / 2^{n/2}
        norm = math.sqrt((1 + w) / 2 * np.linalg.norm(E[0]) ** 2
                         + (1 - w) / 2 * np.linalg.norm(E[1]) ** 2)
        devs.append(float(word_dev * np.linalg.norm(E[0] - E[1]) / 2 / norm))
        del E  # so the next theta's pair is not computed beside this one
    max_dev = float(np.max(devs))  # NaN propagates, and fails the bound below
    return VerificationReport(max_dev <= VERIFY_TOL, max_dev, tuple(devs), thetas, VERIFY_TOL)


def _realized_tableau(seq: GateSequence) -> tuple[int, int, int]:
    """(e, x, z) of Q = C Y_seed C^dag for a seed-then-conjugations sequence.

    Conjugation by (I + iA)/sqrt2 leaves G alone when A and G commute and maps
    it to iAG when they anticommute: one tableau_anticommutes test and at most
    one tableau_mul per gate, on integers, O(n). compile_coupling reads its
    letters off _FORWARD, not off this rule, so the certificate stays independent.
    """
    n, q = seq.target.n, int(seq.gates[0].qubit)
    Q = 1, 1 << (n - q), 1 << (n - q)  # Y_q = i X_q Z_q
    for g in seq.gates[1:]:
        A = g.axis.tableau
        if tableau_anticommutes(A, Q):
            e, x, z = tableau_mul(A, Q)
            Q = (e + 1) % 4, x, z
    return Q


def _word_coupling(P, plus, minus) -> np.ndarray:
    """exp(i theta P (x) B) from plus, minus = e^{+-i theta B}, for P^2 = I."""
    eye = np.eye(len(P))
    return kron((eye + P) / 2, plus) + kron((eye - P) / 2, minus)


def ms_decompose(p: int, q: int, theta: float) -> GateSequence:
    """Two MS pulses and an ancilla rotation realizing e^{i theta X_p X_q}.

    The register order is (ancilla, p, q) with the ancilla prepared in |0>;
    p and q are distinct integer labels >= 1, since 0 names the ancilla.
    The sequence U_MS(-pi/2, 0) exp(-i theta Z_0) U_MS(pi/2, 0) equals
    e^{i theta Z_0 X_p X_q} exactly, so on the |0> ancilla sector it acts as
    e^{i theta X_p X_q} with unit global phase and returns the ancilla to
    |0>; this convention is pinned numerically in the tests.
    """
    for name, label in (("p", p), ("q", q)):
        if not isinstance(label, numbers.Integral) or isinstance(label, bool) or label < 1:
            raise ValueError(f"{name} must be an integer qubit label >= 1, got {label!r}")
    if p == q:
        raise ValueError(f"p and q must be distinct system qubits, got {p} twice")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    gates = (MSGate(np.pi / 2.0, 0.0), AncillaRotation(float(theta)), MSGate(-np.pi / 2.0, 0.0))
    return GateSequence(gates, PauliString("XX"), float(theta), qubits=(0, int(p), int(q)))


def _ms_sequence_gate_matrix(gate) -> np.ndarray:
    """Dense gate on the (ancilla, p, q) register, from closed forms.

    With s = cos(nu) X + sin(nu) Y on each qubit, G^2 = 3 + 2 sum_{a<b} s_a s_b
    and the commuting s_a s_b square to I, so the MS pulse exp(-i mu G^2 / 4) is
    e^{-3i mu/4} prod_{a<b} (cos(mu/2) - i sin(mu/2) s_a s_b).
    """
    if isinstance(gate, MSGate):
        s, eye = np.array([[0, np.exp(-1j * gate.nu)], [np.exp(1j * gate.nu), 0]]), np.eye(2)
        U = np.exp(-0.75j * gate.mu) * np.eye(8)
        for ss in (kron(kron(s, s), eye), kron(kron(s, eye), s), kron(eye, kron(s, s))):
            U = U @ (math.cos(gate.mu / 2) * np.eye(8) - 1j * math.sin(gate.mu / 2) * ss)
        return U
    if isinstance(gate, AncillaRotation):
        return kron(np.diag([np.exp(-1j * gate.angle), np.exp(1j * gate.angle)]), np.eye(4))
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
    from the exact exponential of the summed generator is O(dt^2). With
    W = phase P, each generator is P (x) M, M = phase B^dag + conj(phase) B,
    so only the bath operator M is exponentiated.
    """
    if not 0 < dt < math.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt}")
    terms = _coupling_terms(terms)
    U = np.eye((1 << terms[0].n) * bath.dimension, dtype=complex)
    for term in terms:
        M = term.phase * dag(bath.operator) + np.conj(term.phase) * bath.operator
        P = PauliString(term.letters).dense()
        U = U @ _word_coupling(P, matexp(-1j * dt * M), matexp(1j * dt * M))
    return U


def coupling_generator(terms, bath: BathTestSpec) -> np.ndarray:
    """Summed generator sum_a (W_a (x) B^dag + W_a^dag (x) B), the dense reference."""
    Ws, B = [term.dense() for term in _coupling_terms(terms)], bath.operator
    return sum(kron(W, dag(B)) + kron(dag(W), B) for W in Ws)


def _coupling_terms(terms) -> list:
    """The terms as a list, checked to be non-empty and on one register."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one coupling term")
    if any(t.n != terms[0].n for t in terms):
        raise ValueError("coupling terms act on different registers")
    return terms
