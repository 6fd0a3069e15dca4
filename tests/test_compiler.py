import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import coupling_generator
from dissipforge.algebra import PauliString, kron, matexp
from dissipforge.compiler import (
    _FORWARD,
    AncillaRotation,
    BathTestSpec,
    Conjugation,
    GateSequence,
    MSGate,
    SeedCoupling,
    _realized_tableau,
    _word_coupling,
    compile_coupling,
    conjugation_step,
    ms_decompose,
    ms_system_action,
    realize_ms_sequence,
    trotter_step,
    verify_sequence,
)
from dissipforge.states import GraphSpec

THETAS = (0.3, 1.1, 2.7)


def _known_three_qubit_chain(theta=0.7):
    """The nested chain T_Z2 ( T_X2X3 ( T_Y2 ( T_Z1X2 (seed Y1) ))) -> X1X2X3."""
    return GateSequence(
        (
            SeedCoupling(1),
            Conjugation(PauliString("ZXI")),
            Conjugation(PauliString("IYI")),
            Conjugation(PauliString("IXX")),
            Conjugation(PauliString("IZI")),
        ),
        PauliString("XXX"),
        theta,
    )


# ---------------------------------------------------------------- conjugation step


def test_conjugation_step_examples():
    assert conjugation_step(PauliString("Z"), PauliString("Y")) == PauliString("X")
    assert conjugation_step(PauliString("ZX"), PauliString("YI")) == PauliString("XX")
    assert conjugation_step(PauliString("IY"), PauliString("XX")) == PauliString("XZ")


def test_conjugation_step_dense_identity():
    rng = np.random.default_rng(30)
    pairs = [("Z", "Y"), ("ZX", "YI"), ("IY", "XX"), ("XZ", "ZZ")]
    for a, g in pairs:
        A, G = PauliString(a), PauliString(g)
        out = conjugation_step(A, G)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi)
            U = matexp(0.25j * np.pi * A.dense())
            lhs = U @ matexp(1j * theta * G.dense()) @ U.conj().T
            rhs = matexp(1j * theta * out.dense())
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conjugation_step_rejects_commuting_pair():
    with pytest.raises(ValueError):
        conjugation_step(PauliString("X"), PauliString("X"))
    with pytest.raises(ValueError):
        conjugation_step(PauliString("XX"), PauliString("YY"))


def test_conjugation_step_rejects_heavy_axis():
    with pytest.raises(ValueError):
        conjugation_step(PauliString("XXX"), PauliString("ZII"))


def test_conjugation_step_output_phase_is_real():
    rng = np.random.default_rng(31)
    letters = list("IXYZ")
    count = 0
    while count < 30:
        a = "".join(rng.choice(letters) for _ in range(3))
        g = "".join(rng.choice(letters) for _ in range(3))
        try:
            A, G = PauliString(a), PauliString(g)
            if A.weight not in (1, 2):
                continue
            out = conjugation_step(A, G)
        except ValueError:
            continue
        assert out.phase in (1, -1)
        count += 1


# ---------------------------------------------------------------- compilation


def test_compile_single_qubit_seed_only():
    seq = compile_coupling(PauliString("Y"), 0.5)
    assert seq.conjugations == ()
    assert seq.gates == (SeedCoupling(1),)


def test_compile_two_qubit_is_single_gate():
    seq = compile_coupling(PauliString("XX"), 0.5, GraphSpec.path(2))
    assert len(seq.conjugations) == 1
    assert seq.conjugations[0].axis == PauliString("ZX")


def test_compile_three_qubit_chain_and_known_variant():
    bath = BathTestSpec.random(3, seed=40)
    ours = compile_coupling(PauliString("XXX"), 0.7, GraphSpec.path(3))
    assert verify_sequence(ours, bath, THETAS).passed
    assert verify_sequence(_known_three_qubit_chain(), bath, THETAS).passed


def test_compile_rejects_bad_targets():
    with pytest.raises(ValueError):
        compile_coupling(PauliString("XX", -1), 0.1)
    with pytest.raises(ValueError):  # disconnected support on a path
        compile_coupling(PauliString("XIX"), 0.1, GraphSpec.path(3))
    with pytest.raises(ValueError):  # graph size mismatch
        compile_coupling(PauliString("XX"), 0.1, GraphSpec.path(3))


def test_compile_exhaustive_two_qubit_words():
    bath = BathTestSpec.random(3, seed=41)
    for letters in itertools.product("XYZ", repeat=2):
        word = PauliString("".join(letters))
        seq = compile_coupling(word, 0.9, GraphSpec.path(2))
        report = verify_sequence(seq, bath, (0.9,))
        assert report.passed, f"{word} deviated by {report.max_deviation:.2e}"


def test_compile_sampled_three_qubit_words():
    rng = np.random.default_rng(42)
    bath = BathTestSpec.random(3, seed=43)
    words = ["".join(w) for w in itertools.product("XYZ", repeat=3)]
    for idx in rng.choice(len(words), size=8, replace=False):
        seq = compile_coupling(PauliString(words[idx]), 1.3, GraphSpec.path(3))
        assert verify_sequence(seq, bath, (1.3,)).passed


def test_compile_gate_count_affine_for_all_x():
    counts = []
    for n in range(2, 7):
        seq = compile_coupling(PauliString("X" * n), 0.3, GraphSpec.path(n))
        counts.append(len(seq.conjugations))
    diffs = {counts[i + 1] - counts[i] for i in range(len(counts) - 1)}
    assert len(diffs) == 1


def test_compile_respects_adjacency():
    # star graph: qubit 1 in the middle
    star = GraphSpec(3, ((1, 2), (1, 3)))
    seq = compile_coupling(PauliString("XXX"), 0.4, star)
    for g in seq.conjugations:
        if g.axis.weight == 2:
            a, b = g.axis.support
            assert (min(a, b), max(a, b)) in star.edges
    assert verify_sequence(seq, BathTestSpec.random(3, seed=44), (0.4,)).passed


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf], ids=repr)
def test_compile_rejects_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        compile_coupling(PauliString("XY"), theta)


@pytest.mark.parametrize("theta", [True, np.bool_(False), "0.3", None, 10**400],
                         ids=["bool", "numpy-bool", "string", "none", "10**400"])
def test_compile_and_ms_decompose_refuse_a_theta_that_is_not_a_finite_number(theta):
    with pytest.raises(ValueError, match="theta must be a finite real number"):
        compile_coupling(PauliString("XY"), theta)
    with pytest.raises(ValueError, match="theta must be a finite real number"):
        ms_decompose(1, 2, theta)


def _reference_compile(W, allowed):
    """Oracle: the gates of the word-product sweep, which re-sorts every pending x
    grown qubit pair per step and tracks the whole word with conjugation_step."""
    edge_set = set(allowed.edges)
    support = list(W.support)
    current = PauliString.single(W.n, support[0], "Y")
    gates = [SeedCoupling(support[0])]

    def apply(axis):
        nonlocal current
        gates.append(Conjugation(axis))
        current = conjugation_step(axis, current)

    visited, pending = {support[0]}, set(support[1:])
    while pending:
        candidates = sorted((q, f) for q in pending for f in visited
                            if (min(f, q), max(f, q)) in edge_set)
        if not candidates:
            raise ValueError(f"support {tuple(support)} is not connected in the adjacency graph")
        q, f = candidates[0]
        word = ["I"] * W.n
        word[f - 1], word[q - 1] = _FORWARD[current.letter(f)][0], "X"
        apply(PauliString("".join(word)))
        visited.add(q)
        pending.discard(q)
    for qb in support:
        while current.letter(qb) != W.letter(qb):
            apply(PauliString.single(W.n, qb, _FORWARD[current.letter(qb)][0]))
    assert current == W
    return tuple(gates)


def _random_graph(n, kind, rng):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if kind == "path":
        return GraphSpec.path(n)
    if kind == "complete":
        return GraphSpec(n, tuple(pairs))
    if kind == "random":
        p = rng.random()
        return GraphSpec(n, tuple(e for e in pairs if rng.random() < p))
    # disconnected: random edges inside two halves, none across
    cut = int(rng.integers(1, n)) if n > 1 else 1
    return GraphSpec(n, tuple((a, b) for a, b in pairs
                              if (a <= cut) == (b <= cut) and rng.random() < 0.6))


def test_compile_matches_the_word_product_sweep_on_random_graphs():
    rng = np.random.default_rng(60)
    outcomes = {"gates": 0, "error": 0}
    for k in range(1200):
        n = int(rng.integers(1, 10))
        letters = "".join(rng.choice(list("IXYZ"), n))
        if set(letters) == {"I"}:
            letters = letters[:-1] + "Z"
        W = PauliString(letters)
        graph = _random_graph(n, ("path", "complete", "random", "disconnected")[k % 4], rng)
        try:
            expected = _reference_compile(W, graph)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                compile_coupling(W, 0.7, graph)
            assert str(info.value) == str(exc)
            outcomes["error"] += 1
        else:
            assert compile_coupling(W, 0.7, graph).gates == expected
            outcomes["gates"] += 1
    assert min(outcomes.values()) >= 300


def test_compile_without_a_graph_equals_the_complete_graph():
    rng = np.random.default_rng(62)
    for _ in range(1200):
        n = int(rng.integers(1, 13))
        letters = "".join(rng.choice(list("IXYZ"), n))
        if set(letters) == {"I"}:
            letters = letters[:-1] + "Z"
        W = PauliString(letters)
        complete = compile_coupling(W, 0.7, _random_graph(n, "complete", rng))
        assert compile_coupling(W, 0.7).gates == complete.gates


def test_compile_without_a_graph_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compile_coupling built a graph")

    monkeypatch.setattr(GraphSpec, "__init__", refuse)
    word = PauliString(("XYZI" * 64)[:255])
    seq = compile_coupling(word, 0.7)
    # every qubit grows off the seed, the lowest grown one when all pairs are adjacent
    grows = [g.axis.support for g in seq.conjugations if g.axis.weight == 2]
    assert grows == [(1, q) for q in word.support[1:]]
    assert verify_sequence(seq, BathTestSpec.random(2, seed=63), THETAS).passed


def test_forward_moves_are_sign_free_conjugations():
    assert sorted(_FORWARD) == sorted(new for _, new in _FORWARD.values()) == ["X", "Y", "Z"]
    for letter, (axis, new) in _FORWARD.items():
        A, G, out = PauliString(axis), PauliString(letter), PauliString(new)
        assert conjugation_step(A, G) == out
        np.testing.assert_array_equal(1j * A.dense() @ G.dense(), out.dense())


def test_compile_reads_its_letters_off_the_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compile_coupling multiplied Pauli words")

    for target in ("dissipforge.compiler.conjugation_step", "dissipforge.compiler.pauli_mul",
                   "dissipforge.algebra.pauli_mul"):
        monkeypatch.setattr(target, refuse)
    word = PauliString("XYZXZYX")
    seq = compile_coupling(word, 0.7, GraphSpec.path(word.n))
    assert verify_sequence(seq, BathTestSpec.random(2, seed=61), THETAS).passed


# ---------------------------------------------------------------- verification


def test_verify_trivial_seed_sequence():
    seq = GateSequence((SeedCoupling(1),), PauliString("Y"), 0.3)
    report = verify_sequence(seq, BathTestSpec.random(3, seed=45), THETAS)
    assert report.passed and report.max_deviation < 1e-14


def test_verify_detects_corrupted_sequence():
    good = _known_three_qubit_chain()
    corrupted = GateSequence(good.gates[:-1], good.target, good.theta)
    report = verify_sequence(corrupted, BathTestSpec.random(3, seed=46), THETAS)
    assert not report.passed
    assert report.max_deviation > 0.1


def test_verify_is_bath_neutral():
    seq = compile_coupling(PauliString("XYZ"), 0.6, GraphSpec.path(3))
    baths = [BathTestSpec.random(3, seed=47), BathTestSpec.random(4, seed=48),
             BathTestSpec.lowering(4)]
    reports = [verify_sequence(seq, b, THETAS) for b in baths]
    assert all(r.passed for r in reports)
    assert max(r.max_deviation for r in reports) <= 1e-10


def _per_gate_coupling(seq, bath, theta):
    """Oracle: the seed coupling conjugated by one (I + iA)/sqrt2 (x) I at a time."""
    n = seq.target.n
    seed = PauliString.single(n, seq.gates[0].qubit, "Y").dense()
    V = matexp(1j * theta * np.kron(seed, bath.operator))
    for g in seq.conjugations:
        U = np.kron((np.eye(1 << n) + 1j * g.axis.dense()) / math.sqrt(2), np.eye(bath.dimension))
        V = U @ V @ U.conj().T
    return V


def _realized_word(seq):
    """Oracle: Q = C Y_seed C^dag, C the conjugators (I + iA)/sqrt2 multiplied in list order."""
    dim = 1 << seq.target.n
    C = np.eye(dim, dtype=complex)
    for g in seq.conjugations:
        C = ((np.eye(dim) + 1j * g.axis.dense()) * math.sqrt(0.5)) @ C
    return C @ PauliString.single(seq.target.n, seq.gates[0].qubit, "Y").dense() @ C.conj().T


_ORACLE_WORDS = ["Y", "X", "ZX", "YY", "XYZ", "ZIX", "YXZY", "XZIZ", "ZZZZ"]


def _closed_form_coupling(P, bath, theta):
    B = bath.operator
    return _word_coupling(P, matexp(1j * theta * B), matexp(-1j * theta * B))


@pytest.mark.parametrize("letters", _ORACLE_WORDS)
def test_composed_conjugators_match_the_per_gate_oracle(letters):
    word = PauliString(letters)
    seq = compile_coupling(word, 0.7)
    Q = _realized_word(seq)
    for bath in (BathTestSpec.random(2, seed=50), BathTestSpec.random(3, seed=51)):
        for theta in THETAS:
            V = _closed_form_coupling(Q, bath, theta)
            oracle = _per_gate_coupling(seq, bath, theta)
            assert np.linalg.norm(V - oracle) <= 1e-13 * np.linalg.norm(oracle)


@pytest.mark.parametrize("letters", _ORACLE_WORDS)
def test_closed_form_target_matches_the_dense_exponential(letters):
    # the bath_dim-16 bath makes ||T||_F 2e6 to 7e6 at theta = 2.7
    W = PauliString(letters).dense()
    baths = (BathTestSpec.random(2, seed=50), BathTestSpec.random(3, seed=51),
             BathTestSpec.random(16, seed=0))
    for bath in baths:
        for theta in THETAS:
            T = _closed_form_coupling(W, bath, theta)
            dense = matexp(1j * theta * np.kron(W, bath.operator))
            assert np.linalg.norm(T - dense) <= 1e-13 * np.linalg.norm(dense)


_TROTTER_TERMS = [PauliString("XZ"), PauliString("YI", 1j), PauliString("ZY", -1),
                  PauliString("IX", -1j)]


def _spy_verify():
    # a passing word is decided on its tableau and reads 0 with no exponential
    seq = compile_coupling(PauliString("XYZX"), 0.7, GraphSpec.path(4))
    assert verify_sequence(seq, BathTestSpec.random(3, seed=52), THETAS).passed
    return []


def _spy_verify_failing():
    # a failing word's report takes one pair of bath exponentials per theta
    seq = compile_coupling(PauliString("XYZX"), 0.7, GraphSpec.path(4))
    wrong = GateSequence(seq.gates[:-1], seq.target, seq.theta)
    assert not verify_sequence(wrong, BathTestSpec.random(3, seed=52), THETAS).passed
    return [(3, 3)] * (2 * len(THETAS))


def _spy_trotter():
    trotter_step(_TROTTER_TERMS, 0.1, BathTestSpec.random(5, seed=53))
    return [(5, 5)] * (2 * len(_TROTTER_TERMS))


def _spy_ms():
    realize_ms_sequence(GateSequence(
        (MSGate(0.9, 0.4), AncillaRotation(0.3), MSGate(-0.9, 0.4)),
        PauliString("XX"), 0.3, qubits=(0, 1, 2)))
    return []


@pytest.mark.parametrize("run", [_spy_verify, _spy_verify_failing, _spy_trotter, _spy_ms],
                         ids=["verify_sequence", "verify_sequence-failing", "trotter_step",
                              "realize_ms_sequence"])
def test_verify_exponentiates_only_the_bath_factor(monkeypatch, run):
    shapes = []

    def recording_matexp(A):
        shapes.append(np.shape(A))
        return matexp(A)

    monkeypatch.setattr("dissipforge.compiler.matexp", recording_matexp)
    expected = run()
    assert shapes == expected


@pytest.mark.parametrize("letters", [w for w in _ORACLE_WORDS if PauliString(w).weight > 1])
def test_verify_rejects_a_dropped_or_duplicated_conjugation(letters):
    seq = compile_coupling(PauliString(letters), 0.7)
    gates = seq.gates
    for i in range(1, len(gates)):
        for wrong in (gates[:i] + gates[i + 1:], gates[:i + 1] + gates[i:]):
            for bath in (BathTestSpec.random(2, seed=50), BathTestSpec.random(3, seed=51)):
                report = verify_sequence(GateSequence(wrong, seq.target, seq.theta), bath, THETAS)
                assert not report.passed and report.max_deviation > 0.5


def _zzz_labelled_xyz():
    """The sequence compiled for ZZZ, labelled with the target XYZ."""
    return GateSequence(compile_coupling(PauliString("ZZZ"), 0.7).gates, PauliString("XYZ"), 0.7)


@pytest.mark.parametrize("bath, thetas", [
    (BathTestSpec.random(4, seed=0), (1e-11,)),
    (BathTestSpec.random(4, seed=0), (0.0,)),
    (BathTestSpec(np.zeros((4, 4))), THETAS),
], ids=["theta-1e-11", "theta-0", "zero-bath"])
def test_verify_fails_a_wrong_word_whose_coupling_barely_moves(bath, thetas):
    # V - T is O(theta ||B||): 3.25e-11 at theta = 1e-11, exactly 0 at theta = 0
    # and on a zero bath, so a bound on the deviations would pass the wrong word
    report = verify_sequence(_zzz_labelled_xyz(), bath, thetas)
    assert not report.passed
    assert report.max_deviation <= 1e-10


def test_verify_passes_a_correct_word_on_a_bath_whose_exponentials_overflow():
    # e^{2.7 i B} for this 1e3-scaled bath overflows; a correct word never needs it
    bath = BathTestSpec(1e3 * BathTestSpec.random(4, seed=0).operator)
    seq = compile_coupling(PauliString("XYZ"), 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_sequence(seq, bath, THETAS)
    assert report.passed
    assert report.deviations == (0.0,) * len(THETAS) and report.max_deviation == 0.0


def test_verify_reports_nan_for_a_failing_word_whose_exponentials_overflow():
    # the same bath; the word loses its last gate, so its report takes the exponentials
    bath = BathTestSpec(1e3 * BathTestSpec.random(4, seed=0).operator)
    seq = GateSequence(_XYZ_GATES[:-1], PauliString("XYZ"), 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_sequence(seq, bath, THETAS)
    assert not report.passed
    assert math.isnan(report.max_deviation)


def test_verify_working_set_does_not_grow_with_the_gate_count():
    # 15 conjugations on D = 2^8 * 4 = 1024 levels: a conjugator kept per gate
    # would add 15 (D, D) arrays to a working set of about 4
    word = PauliString("XYZXYZXY")
    seq = compile_coupling(word, 0.7, GraphSpec.path(word.n))
    assert len(seq.conjugations) == 15
    bath = BathTestSpec.random(4, seed=9)
    D = (1 << word.n) * bath.dimension
    tracemalloc.start()
    try:
        report = verify_sequence(seq, bath, THETAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 5 * 16 * D * D


def _dense_deviation(seq, bath, theta):
    """||V - T||_F / ||T||_F from the register (x) bath couplings
    P+ (x) e^{i theta B} + P- (x) e^{-i theta B}, Q conjugated one gate at a time."""
    n = seq.target.n
    Q = PauliString.single(n, seq.gates[0].qubit, "Y").dense()
    for g in seq.conjugations:
        U = (np.eye(1 << n) + 1j * g.axis.dense()) / math.sqrt(2)
        Q = U @ Q @ U.conj().T
    E = matexp(1j * theta * bath.operator), matexp(-1j * theta * bath.operator)
    eye = np.eye(1 << n)
    V, T = (np.kron((eye + P) / 2, E[0]) + np.kron((eye - P) / 2, E[1])
            for P in (Q, seq.target.dense()))
    return np.linalg.norm(V - T) / np.linalg.norm(T)


def _correct_and_wrong(letters):
    """The compiled sequence and, for each conjugation, it with that gate dropped
    and with it duplicated; the identity words get the seed alone."""
    if set(letters) == {"I"}:
        return [], [GateSequence((SeedCoupling(1),), PauliString(letters, phase), 0.7)
                    for phase in (1, -1)]
    seq = compile_coupling(PauliString(letters), 0.7)
    g = seq.gates
    wrong = [w for i in range(1, len(g)) for w in (g[:i] + g[i + 1:], g[:i + 1] + g[i:])]
    return [seq], [GateSequence(w, seq.target, seq.theta) for w in wrong]


@pytest.mark.parametrize("bath_dim", [2, 3, 16])
@pytest.mark.parametrize("letters", ["Y", "ZX", "XYZ", "ZIX", "IYI", "XZIZ", "II", "III"])
def test_verify_deviations_match_the_dense_couplings(letters, bath_dim):
    bath = BathTestSpec.random(bath_dim, seed=bath_dim)
    correct, wrong = _correct_and_wrong(letters)
    for seq in correct:
        report = verify_sequence(seq, bath, THETAS)
        dense = [_dense_deviation(seq, bath, theta) for theta in THETAS]
        assert report.passed and report.max_deviation <= 1e-14 and max(dense) <= 1e-14
    for seq in wrong:
        report = verify_sequence(seq, bath, THETAS)
        dense = [_dense_deviation(seq, bath, theta) for theta in THETAS]
        assert not report.passed
        np.testing.assert_allclose(report.deviations, dense, rtol=1e-12)


def _tableau_dense(e, x, z, n):
    """i^e X^x Z^z, bit n - q of x and z on qubit q."""
    out = np.array([[1j ** e]])
    for q in range(1, n + 1):
        bit = 1 << (n - q)
        xq = np.array([[0, 1], [1, 0]]) if x & bit else np.eye(2)
        zq = np.diag([1, -1]) if z & bit else np.eye(2)
        out = np.kron(out, xq @ zq)
    return out


def _random_sequences(count, seed=0):
    """Compiled sequences for random words on 1..7 qubits; every odd one with a
    conjugation dropped or duplicated at a random place."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 8))
        letters = "".join(rng.choice(list("IXYZ"), n))
        if set(letters) == {"I"}:
            continue
        seq = compile_coupling(PauliString(letters), 0.7)
        g = seq.gates
        if len(out) % 2:
            if len(g) == 1:
                continue
            i = int(rng.integers(1, len(g)))
            g = g[:i] + g[i + 1:] if rng.random() < 0.5 else g[:i + 1] + g[i:]
        out.append(GateSequence(g, seq.target, seq.theta))
    return out


def test_tableau_certificate_matches_the_dense_word_on_random_sequences():
    # one theta per sequence, in turn: the dense oracles take most of the time
    bath = BathTestSpec.random(2, seed=55)
    for k, seq in enumerate(_random_sequences(400)):
        Q = _realized_word(seq)
        assert np.abs(_tableau_dense(*_realized_tableau(seq), seq.target.n) - Q).max() <= 1e-13
        theta = THETAS[k % len(THETAS)]
        report = verify_sequence(seq, bath, (theta,))
        dense = _dense_deviation(seq, bath, theta)
        assert report.passed == (dense <= 1e-10) == (k % 2 == 0)
        if report.passed:
            assert report.deviations == (0.0,) and dense <= 1e-14
        else:
            np.testing.assert_allclose(report.deviations, [dense], rtol=1e-12)


def test_verify_certifies_without_the_compilers_pauli_helpers(monkeypatch):
    word = PauliString(("XYZ" * 22)[:64])
    seq = compile_coupling(word, 0.7, GraphSpec.path(64))
    wrong = GateSequence(seq.gates[:-1], seq.target, seq.theta)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_sequence used a Pauli helper")

    for name in ("pauli_mul", "conjugation_step", "anticommutes"):
        monkeypatch.setattr(f"dissipforge.compiler.{name}", refuse)
    monkeypatch.setattr(PauliString, "dense", refuse)
    monkeypatch.setattr(PauliString, "single", refuse)
    bath = BathTestSpec.random(3, seed=54)
    report = verify_sequence(seq, bath, THETAS)
    assert report.passed and report.max_deviation == 0.0
    assert not verify_sequence(wrong, bath, THETAS).passed


def test_verify_working_set_does_not_grow_with_the_word():
    # the words are integers: 64 qubits hold no more than 8 at a fixed bath,
    # to within one bath-sized array (a 2^n x 2^n word would be 2^36 times larger)
    bath = BathTestSpec.random(16, seed=9)
    peaks = []
    for n in (8, 64):
        seq = compile_coupling(PauliString(("XYZ" * n)[:n]), 0.7, GraphSpec.path(n))
        tracemalloc.start()
        try:
            report = verify_sequence(seq, bath, THETAS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.passed
    assert peaks[1] <= peaks[0] + 16 * bath.dimension ** 2


def test_verify_holds_no_register_bath_array():
    # n = 8 and bath_dim 4: six 256 x 256 word arrays, against about four
    # (1024, 1024) arrays for a coupling built on the register (x) bath space
    word = PauliString("XYZXYZXY")
    seq = compile_coupling(word, 0.7, GraphSpec.path(word.n))
    bath = BathTestSpec.random(4, seed=9)
    tracemalloc.start()
    try:
        report = verify_sequence(seq, bath, THETAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 6 * 16 * 4 ** word.n


def test_verify_calls_neither_kron_nor_the_word_coupling(monkeypatch):
    calls = []

    def spy(name, f):
        monkeypatch.setattr(f"dissipforge.compiler.{name}",
                            lambda *args: calls.append(name) or f(*args))

    spy("kron", kron)
    spy("_word_coupling", _word_coupling)
    seq = compile_coupling(PauliString("XYZX"), 0.7, GraphSpec.path(4))
    assert verify_sequence(seq, BathTestSpec.random(3, seed=52), THETAS).passed
    assert calls == []
    trotter_step(_TROTTER_TERMS, 0.1, BathTestSpec.random(2, seed=53))
    assert calls.count("_word_coupling") == len(_TROTTER_TERMS)


_XYZ_GATES = compile_coupling(PauliString("XYZ"), 0.7).gates


@pytest.mark.parametrize("gates, message", [
    pytest.param(_XYZ_GATES + (SeedCoupling(3),),
                 rf"gates\[{len(_XYZ_GATES)}\] is SeedCoupling", id="second-seed"),
    pytest.param((_XYZ_GATES[1], _XYZ_GATES[0]) + _XYZ_GATES[2:],
                 r"seed coupling at gates\[0\]", id="seed-second"),
    pytest.param(_XYZ_GATES[1:], r"seed coupling at gates\[0\]", id="no-seed"),
    pytest.param(_XYZ_GATES[:2] + (Conjugation(PauliString("XXII")),),
                 r"gates\[2\] has an axis on 4 qubits, the target acts on 3",
                 id="axis-on-4-qubits"),
    pytest.param(_XYZ_GATES + (Conjugation(PauliString("ZI")),),
                 rf"gates\[{len(_XYZ_GATES)}\] has an axis on 2 qubits", id="axis-on-2-qubits"),
    pytest.param((SeedCoupling(0),) + _XYZ_GATES[1:], r"gates\[0\] seeds qubit 0, outside 1\.\.3",
                 id="seed-0"),
    pytest.param((SeedCoupling(4),) + _XYZ_GATES[1:], r"gates\[0\] seeds qubit 4, outside 1\.\.3",
                 id="seed-n+1"),
    pytest.param((SeedCoupling(True),) + _XYZ_GATES[1:],
                 r"gates\[0\] seed qubit must be an integer, got True", id="seed-bool"),
    pytest.param((SeedCoupling(1.5),) + _XYZ_GATES[1:],
                 r"gates\[0\] seed qubit must be an integer, got 1\.5", id="seed-fractional"),
])
def test_verify_rejects_a_malformed_sequence(gates, message):
    seq = GateSequence(gates, PauliString("XYZ"), 0.7)
    with pytest.raises(ValueError, match=message):
        verify_sequence(seq, BathTestSpec.random(2), THETAS)


@pytest.mark.parametrize("phase", [1j, -1j], ids=["i", "-i"])
def test_verify_rejects_an_imaginary_target_phase(phase):
    # W^2 = -I, so the closed form P+ (x) E+ + P- (x) E- is not e^{i theta W (x) B}
    seq = GateSequence((SeedCoupling(1),), PauliString("Y", phase), 0.3)
    with pytest.raises(ValueError, match="real phase"):
        verify_sequence(seq, BathTestSpec.random(2), THETAS)


@pytest.mark.parametrize(
    "thetas", [(), [], np.array([]), (0.3, math.nan), [math.inf], np.array([0.1, -math.inf])],
    ids=["tuple", "list", "array", "nan", "inf", "-inf"])
def test_verify_rejects_empty_theta_samples(thetas):
    seq = GateSequence((SeedCoupling(1),), PauliString("Y"), 0.3)
    with pytest.raises(ValueError, match="theta_samples"):
        verify_sequence(seq, BathTestSpec.random(2), thetas)


@pytest.mark.parametrize("thetas", [[True], (0.3, "1.1"), [0.3, 10**400]],
                         ids=["bool", "string", "10**400"])
def test_verify_refuses_a_theta_sample_that_is_not_a_finite_number(thetas):
    seq = compile_coupling(PauliString("XY"), 0.3)
    with pytest.raises(ValueError, match=r"theta_samples\[\d\] must be a finite real number"):
        verify_sequence(seq, BathTestSpec.random(2), thetas)


def test_verify_rejects_ms_sequences():
    with pytest.raises(ValueError):
        verify_sequence(ms_decompose(1, 2, 0.3), BathTestSpec.random(3), (0.3,))


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, complex(0, math.inf)],
                         ids=["nan", "inf", "-inf", "inf-imaginary"])
def test_bath_test_spec_rejects_a_non_finite_entry(entry):
    op = np.eye(2, dtype=complex)
    op[0, 1] = entry
    with pytest.raises(ValueError, match="operator"):
        BathTestSpec(op)


def test_bath_test_spec_validation():
    with pytest.raises(ValueError):
        BathTestSpec(np.eye(1))
    low = BathTestSpec.lowering(3).operator
    assert np.array_equal(low, np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]]))


@pytest.mark.parametrize("make, what", [
    (BathTestSpec.random, "dim"), (BathTestSpec.lowering, "dim"),
    (lambda seed: BathTestSpec.random(2, seed=seed), "seed"),
], ids=["random-dim", "lowering-dim", "random-seed"])
def test_bath_test_spec_takes_its_counts_as_integers(make, what):
    for bad in (True, np.bool_(True), 2.5, "2", -1):
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            make(bad)
    assert make(2.0).dimension == 2


def test_random_bath_is_drawn_into_the_array_it_keeps():
    # the real and imaginary draws land in one complex array, with one float draw
    # alive beside it; the warm-up keeps numpy.random's first use out of the peak
    d = 256
    BathTestSpec.random(d, seed=3)
    tracemalloc.start()
    try:
        op = BathTestSpec.random(d, seed=3).operator
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * op.nbytes
    assert op.flags.owndata and not op.flags.writeable
    rng = np.random.default_rng(3)
    drawn = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert op.tobytes() == drawn.tobytes()


# ---------------------------------------------------------------- MS lowering


def test_ms_identity_at_zero_angle():
    top, bottom = ms_system_action(ms_decompose(1, 2, 0.0))
    assert np.max(np.abs(top - np.eye(4))) < 1e-12
    assert np.max(np.abs(bottom)) < 1e-12


def test_ms_quarter_turn_entangles():
    top, _ = ms_system_action(ms_decompose(1, 2, np.pi / 4))
    psi = top @ np.array([1.0, 0, 0, 0], dtype=complex)
    expected = np.array([1.0, 0, 0, 1j]) / np.sqrt(2.0)
    assert np.max(np.abs(psi - expected)) < 1e-10


def test_ms_reproduces_xx_exponential():
    rng = np.random.default_rng(49)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi)
        top, bottom = ms_system_action(ms_decompose(1, 2, theta))
        target = matexp(1j * theta * PauliString("XX").dense())
        assert np.max(np.abs(top - target)) < 1e-10
        assert np.max(np.abs(bottom)) < 1e-10


def test_ms_sequence_is_unitary():
    U = realize_ms_sequence(ms_decompose(1, 2, 0.8))
    assert np.max(np.abs(U.conj().T @ U - np.eye(8))) < 1e-12


def test_ms_rejects_equal_qubits():
    with pytest.raises(ValueError):
        ms_decompose(2, 2, 0.1)


@pytest.mark.parametrize("p, q, theta, name", [
    (1, 2, math.nan, "theta"),
    (1, 2, math.inf, "theta"),
    (1, 2, -math.inf, "theta"),
    (1, 1.5, 0.3, "q"),
    (0, 2, 0.3, "p"),
    (-1, 2, 0.3, "p"),
    (True, 2, 0.3, "p"),
    (2, np.bool_(True), 0.3, "q"),
    (1, "2", 0.3, "q"),
], ids=["theta-nan", "theta-inf", "theta--inf", "q-fractional", "p-ancilla-label",
        "p-negative", "p-bool", "q-numpy-bool", "q-string"])
def test_ms_decompose_rejects_bad_input(p, q, theta, name):
    with pytest.raises(ValueError, match=name):
        ms_decompose(p, q, theta)


def test_ms_decompose_accepts_numpy_integer_labels():
    assert ms_decompose(np.int64(2), np.int32(5), 0.1).qubits == (0, 2, 5)
    qubits = ms_decompose(1.0, 2.0, 0.3).qubits  # integral floats, stored as ints
    assert qubits == (0, 1, 2) and all(type(q) is int for q in qubits)


def _collective_spin(nu):
    """G = sum_a cos(nu) X_a + sin(nu) Y_a on the three-qubit register."""
    words = ("XII", "IXI", "IIX"), ("YII", "IYI", "IIY")
    sx, sy = (sum(PauliString(w).dense() for w in ws) for ws in words)
    return np.cos(nu) * sx + np.sin(nu) * sy


def test_ms_pulse_matches_the_dense_exponential():
    rng = np.random.default_rng(60)
    for _ in range(20):
        mu, nu = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        G = _collective_spin(nu)
        seq = GateSequence((MSGate(mu, nu),), PauliString("XX"), 0.0, qubits=(0, 1, 2))
        assert np.max(np.abs(realize_ms_sequence(seq) - matexp(-0.25j * mu * (G @ G)))) < 1e-13


def test_ancilla_rotation_matches_the_dense_exponential():
    rng = np.random.default_rng(61)
    Z0 = PauliString("ZII").dense()
    for angle in rng.uniform(-2 * np.pi, 2 * np.pi, size=10):
        seq = GateSequence((AncillaRotation(angle),), PauliString("XX"), 0.0, qubits=(0, 1, 2))
        assert np.max(np.abs(realize_ms_sequence(seq) - matexp(-1j * angle * Z0))) < 1e-13


# ---------------------------------------------------------------- Trotter


@pytest.mark.parametrize("bath_dim", [2, 3, 4, 5])
def test_trotter_matches_the_product_of_dense_term_exponentials(bath_dim):
    # words of phase 1, i, -1 and -i; "YI" and "IX" carry identity letters
    bath = BathTestSpec.random(bath_dim, seed=70 + bath_dim)
    dt = 0.3
    U = trotter_step(_TROTTER_TERMS, dt, bath)
    reference = np.eye(4 * bath_dim, dtype=complex)
    for term in _TROTTER_TERMS:
        reference = reference @ matexp(-1j * dt * coupling_generator([term], bath))
    assert np.max(np.abs(U - reference)) < 1e-13


def test_trotter_step_rejects_an_empty_term_list():
    with pytest.raises(ValueError, match="term"):
        trotter_step([], 0.1, BathTestSpec.random(2))


@pytest.mark.parametrize("build", [lambda terms, bath: trotter_step(terms, 0.1, bath)],
                         ids=["trotter_step"])
@pytest.mark.parametrize("terms", [("X", "XX"), ("XZ", "YI", "Z")], ids=["first", "last"])
def test_coupling_terms_on_different_registers_are_rejected(build, terms):
    with pytest.raises(ValueError, match="coupling terms act on different registers"):
        build([PauliString(t) for t in terms], BathTestSpec.random(2))


def test_trotter_single_term_exact():
    bath = BathTestSpec.random(3, seed=50)
    terms = [PauliString("X")]
    U = trotter_step(terms, 0.2, bath)
    exact = matexp(-1j * 0.2 * coupling_generator(terms, bath))
    assert np.max(np.abs(U - exact)) < 1e-13


def test_trotter_commuting_terms_exact():
    bath = BathTestSpec.random(2, seed=51)
    terms = [PauliString("XI"), PauliString("IZ")]
    U = trotter_step(terms, 0.15, bath)
    exact = matexp(-1j * 0.15 * coupling_generator(terms, bath))
    assert np.max(np.abs(U - exact)) < 1e-12


def test_trotter_second_order_local_error():
    bath = BathTestSpec.random(3, seed=52)
    terms = [PauliString("X"), PauliString("Z")]
    H = coupling_generator(terms, bath)

    def err(dt):
        return np.linalg.norm(trotter_step(terms, dt, bath) - matexp(-1j * dt * H))

    ratio = err(0.02) / err(0.01)
    assert 3.5 <= ratio <= 4.5


def test_trotter_rejects_bad_dt():
    with pytest.raises(ValueError):
        trotter_step([PauliString("X")], 0.0, BathTestSpec.random(2))


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf], ids=repr)
def test_trotter_rejects_a_non_finite_dt(dt):
    with pytest.raises(ValueError, match="dt"):
        trotter_step([PauliString("X")], dt, BathTestSpec.random(2))


# ---------------------------------------------------------------- serialization


def test_gate_sequence_json_roundtrip():
    seq = compile_coupling(PauliString("XYZ"), 0.6, GraphSpec.path(3))
    back = GateSequence.from_json_obj(seq.to_json_obj())
    assert back.gates == seq.gates
    assert back.target == seq.target and back.theta == seq.theta
    assert back.to_json_obj() == seq.to_json_obj()


def test_ms_sequence_json_roundtrip():
    seq = ms_decompose(2, 3, 0.25)
    back = GateSequence.from_json_obj(seq.to_json_obj())
    assert back.gates == seq.gates and back.qubits == seq.qubits


@pytest.mark.parametrize("seq, gate, key, value", [
    (compile_coupling(PauliString("XY"), 0.3), None, "theta", "0.3"),
    (compile_coupling(PauliString("XY"), 0.3), 0, "qubits", [True]),
    (compile_coupling(PauliString("XY"), 0.3), 0, "qubits", [1.7]),
    (ms_decompose(1, 2, 0.3), 1, "angle", True),
    (ms_decompose(1, 2, 0.3), 2, "angle2", "0"),
], ids=["theta-string", "seed-bool", "seed-fractional", "angle-bool", "angle2-string"])
def test_gate_sequence_from_json_refuses_numbers_as_the_constructors_do(seq, gate, key, value):
    obj = seq.to_json_obj()
    (obj if gate is None else obj["gates"][gate])[key] = value
    with pytest.raises(ValueError, match=f"{'seed qubit' if key == 'qubits' else key} must be"):
        GateSequence.from_json_obj(obj)


def test_render_text_one_gate_per_line():
    seq = compile_coupling(PauliString("XX"), 0.5, GraphSpec.path(2))
    lines = seq.render_text().strip().splitlines()
    assert len(lines) == 1 + len(seq.gates)  # header plus gates
    assert lines[1].startswith("seed")
    assert "conjugation" in lines[2]


def test_render_text_writes_the_ms_pulses_and_the_ancilla_rotation():
    lines = ms_decompose(1, 2, 0.3).render_text().splitlines()
    assert lines[1:] == [
        "ms          all  U_MS(1.5707963267949, 0)",
        "rotation    q0  exp(-i 0.3 Z0)",
        "ms          all  U_MS(-1.5707963267949, 0)",
    ]


@pytest.mark.parametrize("method", ["render_text", "to_json_obj"])
def test_a_gate_of_unknown_type_is_refused(method):
    seq = GateSequence((SeedCoupling(1), "junk"), PauliString("Y"), 0.3)
    with pytest.raises(TypeError, match="junk"):
        getattr(seq, method)()
