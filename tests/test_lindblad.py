import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    random_complex,
    random_density,
    random_hermitian,
    random_unitary,
    skew_null_space,
)
from dissipforge.algebra import dag, matexp, null_space
from dissipforge.cli import ScenarioConfig, _combined_operator
from dissipforge.dissipators import (
    DissipatorSet,
    SynthesisSpec,
    _JumpFactors,
    orthonormal_frame,
    preset_lfor2,
    splitting_hamiltonian,
    synth_single,
    synth_subspace,
)
from dissipforge.lindblad import (
    CERT_TOL,
    MAX_DENSE_BYTES,
    EvolutionRecord,
    IntegrationError,
    LindbladModel,
    SizeLimitError,
    SteadyStateError,
    _hermitian_rhs,
    _invariant_eigenvectors,
    _real_generator,
    _unit_scaled,
    integrate,
    liouvillian_matrix,
    rhs,
    steady_states,
    step_count,
    time_to_fidelity,
    unvec,
    vec,
)
from dissipforge.states import (
    DensityMatrix,
    GraphSpec,
    PureState,
    as_matrix,
    basis_state,
    bell_state,
    fidelity,
    graph_state,
)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _sigma_minus_model(gamma=1.0):
    return LindbladModel(DissipatorSet(((gamma, SIGMA_MINUS),)))


# ---------------------------------------------------------------- generator


def test_rhs_vanishes_on_dark_state():
    model = LindbladModel(preset_lfor2())
    rho = bell_state().density()
    assert np.max(np.abs(rhs(model, rho))) < 1e-14


def test_rhs_pure_decay():
    model = _sigma_minus_model()
    out = rhs(model, np.diag([0.0, 1.0]).astype(complex))
    assert np.array_equal(out, np.diag([1.0, -1.0]).astype(complex))


def test_rhs_traceless_and_hermitian():
    rng = np.random.default_rng(20)
    H = random_hermitian(4, rng)
    model = LindbladModel(preset_lfor2(), hamiltonian=H)
    for _ in range(10):
        rho = random_density(4, rng)
        out = rhs(model, rho)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - dag(out))) < 1e-12


def test_rhs_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        rhs(_sigma_minus_model(), np.eye(4) / 4.0)


@pytest.mark.parametrize("build, name", [
    (lambda: DissipatorSet(((1.0, np.zeros((0, 0))),)), "jump operator"),
    (lambda: DissipatorSet(((1.0, np.eye(2)), (1.0, np.zeros((0, 0))))), "jump operator"),
    (lambda: LindbladModel(DissipatorSet(()), hamiltonian=np.zeros((0, 0))), "Hamiltonian"),
    (lambda: LindbladModel(_sigma_minus_model().dissipators, hamiltonian=np.zeros((0, 0))),
     "Hamiltonian"),
], ids=["operator", "second-operator", "hamiltonian", "hamiltonian-with-jumps"])
def test_an_empty_operator_is_rejected_by_name(build, name):
    with pytest.raises(ValueError, match=f"{name} must be square and non-empty, got shape"):
        build()


def test_model_validation():
    with pytest.raises(ValueError):  # non-Hermitian Hamiltonian
        LindbladModel(DissipatorSet(()), hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):  # no dimension at all
        LindbladModel(DissipatorSet(()))
    with pytest.raises(ValueError):  # mismatched dimensions
        LindbladModel(DissipatorSet(((1.0, SIGMA_MINUS),)), hamiltonian=np.eye(4))
    for entry in (np.nan, np.inf):  # H - H^dag is NaN there, which no > test rejects
        with pytest.raises(ValueError, match="finite"):
            LindbladModel(DissipatorSet(((1.0, SIGMA_MINUS),)),
                          hamiltonian=np.array([[entry, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- vectorization


def _textbook_liouvillian(H, jumps):
    """-i (I kron H_eff - H_eff* kron I) + sum_j gamma_j L_j* kron L_j, from np.kron."""
    d = H.shape[0]
    H_eff = H - 0.5j * sum(gamma * (dag(L) @ L) for gamma, L in jumps)
    M = -1j * (np.kron(np.eye(d), H_eff) - np.kron(H_eff.conj(), np.eye(d)))
    return M + sum(gamma * np.kron(L.conj(), L) for gamma, L in jumps)


def test_liouvillian_matches_rhs_on_random_states():
    rng = np.random.default_rng(21)
    full_rank = DissipatorSet(((0.3, random_complex((4, 4), rng)),
                               (2.5, random_complex((4, 4), rng))))
    mixed = DissipatorSet(preset_lfor2().items + ((1.7, random_complex((4, 4), rng)),))
    for jumps in (preset_lfor2(), full_rank, mixed):
        model = LindbladModel(jumps, hamiltonian=random_hermitian(4, rng))
        M = liouvillian_matrix(model)
        textbook = _textbook_liouvillian(model.hamiltonian, jumps.items)
        assert np.max(np.abs(M - textbook)) < 1e-12
        # trace preservation ties the H_eff rates to the jump-term rates
        assert np.max(np.abs(vec(np.eye(4)).conj() @ M)) < 1e-12
        for _ in range(10):
            rho = random_density(4, rng)
            assert np.max(np.abs(M @ vec(rho) - vec(rhs(model, rho)))) < 1e-12


def test_liouvillian_decay_spectrum():
    eigs = np.sort(np.linalg.eigvals(liouvillian_matrix(_sigma_minus_model())).real)
    assert np.max(np.abs(eigs - np.array([-1.0, -0.5, -0.5, 0.0]))) < 1e-12


def test_liouvillian_empty_model_is_zero():
    model = LindbladModel(DissipatorSet(()), hamiltonian=np.zeros((2, 2)))
    assert np.array_equal(liouvillian_matrix(model), np.zeros((4, 4)))


def test_liouvillian_trace_functional_is_left_null():
    rng = np.random.default_rng(22)
    model = LindbladModel(preset_lfor2(), hamiltonian=random_hermitian(4, rng))
    left = vec(np.eye(4)).conj() @ liouvillian_matrix(model)
    assert np.max(np.abs(left)) < 1e-12


def test_liouvillian_eigenvalues_nonpositive_real_parts():
    rng = np.random.default_rng(23)
    spec = SynthesisSpec(dim=4, k=1, coeffs=random_complex((3, 1), rng))
    for model in (LindbladModel(preset_lfor2()), LindbladModel(synth_subspace(spec))):
        eigs = np.linalg.eigvals(liouvillian_matrix(model))
        assert np.max(eigs.real) <= 1e-10


def test_rate_scaling_scales_spectrum_exactly():
    rng = np.random.default_rng(24)
    spec = SynthesisSpec(dim=4, k=1, coeffs=random_complex((3, 1), rng))
    ds = synth_subspace(spec)
    e1 = np.sort_complex(np.linalg.eigvals(liouvillian_matrix(LindbladModel(ds))))
    e3 = np.sort_complex(np.linalg.eigvals(liouvillian_matrix(LindbladModel(ds.scaled(3.0)))))
    assert np.max(np.abs(e3 - 3.0 * e1)) < 1e-10


# ---------------------------------------------------------------- factored jumps


def _synthesized(target, rates):
    """The CLI's model: one jump |t><f_j| per frame vector f_j outside |t>."""
    frame = orthonormal_frame(target)
    spec = SynthesisSpec(dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)), basis=frame)
    return DissipatorSet(tuple((r, L) for r, (_, L) in zip(rates, synth_subspace(spec))))


def _textbook_rhs(H, jumps, rho):
    """-i[H, rho] + sum_j gamma_j (L_j rho L_j^dag - {L_j^dag L_j, rho} / 2), term by term."""
    out = -1j * (H @ rho - rho @ H)
    for gamma, L in jumps:
        LdL = dag(L) @ L
        out += gamma * (L @ rho @ dag(L) - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def _mixed_model(rng):
    """Seven synthesized rank-one jumps at n = 3 with rates 0.3..2.5, one
    full-rank jump, one rank-one jump perturbed by 1e-9 R, and a Hamiltonian."""
    spec = SynthesisSpec(dim=8, k=1, coeffs=random_complex((7, 1), rng),
                         basis=random_unitary(8, rng))
    jumps = [(rate, L) for rate, (_, L) in zip(np.linspace(0.3, 2.5, 7), synth_subspace(spec))]
    jumps.append((0.7, random_complex((8, 8), rng)))
    near = np.outer(random_complex(8, rng), random_complex(8, rng).conj())
    jumps.append((1.3, near + 1e-9 * random_complex((8, 8), rng)))
    H = random_hermitian(8, rng)
    return LindbladModel(DissipatorSet(tuple(jumps)), hamiltonian=H), jumps


def test_factored_generator_matches_textbook_form():
    rng = np.random.default_rng(30)
    model, jumps = _mixed_model(rng)
    H = model.hamiltonian
    # the synthesized jumps are factored, with one shared u; the full-rank and perturbed ones stay dense
    factors = model.dissipators._jumps
    assert factors.U.shape == (8, 7) and factors.K is not None and factors.gL.shape == (2, 8, 8)
    K = sum(gamma * (dag(L) @ L) for gamma, L in jumps)
    assert np.max(np.abs(model.h_eff - (H - 0.5j * K))) < 1e-12
    M = liouvillian_matrix(model)
    # density matrices, and a non-Hermitian matrix, since the generator is linear
    for rho in [random_density(8, rng) for _ in range(5)] + [random_complex((8, 8), rng)]:
        out = rhs(model, rho)
        assert np.max(np.abs(out - _textbook_rhs(H, jumps, rho))) < 1e-12
        assert np.max(np.abs(M @ vec(rho) - vec(out))) < 1e-12


def _mixed_scale_set():
    """|0><1| at rate 1 and 1e-16 |1><2| at rate 1e32 on d = 3: two rank-one jumps of
    equal weight whose left factors differ, and in size by 1e16."""
    E = np.eye(3)
    return DissipatorSet(((1.0, np.outer(E[0], E[1])), (1e32, 1e-16 * np.outer(E[1], E[2]))))


def _kernel_models():
    """Models covering each jump layout of `_JumpFactors.add_sandwich`, with their jumps."""
    rng = np.random.default_rng(32)
    ds = _synthesized(graph_state(GraphSpec.path(3)), np.linspace(0.3, 2.5, 7))
    yield pytest.param(LindbladModel(ds), None, ds.items, id="cluster-3-shared")
    H = random_hermitian(4, rng)
    yield pytest.param(LindbladModel(preset_lfor2(), hamiltonian=H), H, preset_lfor2().items,
                       id="bell-preset-hamiltonian-shared")
    ds = synth_subspace(SynthesisSpec(dim=8, k=2, coeffs=random_complex((6, 2), rng)))
    yield pytest.param(LindbladModel(ds), None, ds.items, id="subspace-k2-rank-one")
    model, jumps = _mixed_model(rng)
    yield pytest.param(model, model.hamiltonian, jumps, id="mixed-all-groups")
    ds = _mixed_scale_set()
    yield pytest.param(LindbladModel(ds), None, ds.items, id="mixed-scale-rank-one")


@pytest.mark.parametrize("model,H,jumps", list(_kernel_models()))
def test_hermitian_rhs_matches_textbook_form(model, H, jumps):
    rng = np.random.default_rng(33)
    H = np.zeros((model.dim, model.dim)) if H is None else H
    for rho in (random_density(model.dim, rng) for _ in range(3)):
        rho = (rho + dag(rho)) / 2.0  # exactly Hermitian, so rhs takes the kernel alone
        want = _textbook_rhs(H, jumps, rho)
        got = rhs(model, rho)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(got, _hermitian_rhs(model, rho))


def test_the_shared_left_vector_group_is_detected():
    rng = np.random.default_rng(34)
    k1 = synth_subspace(SynthesisSpec(dim=8, k=1, coeffs=random_complex((7, 1), rng),
                                      basis=random_unitary(8, rng)))
    k2 = synth_subspace(SynthesisSpec(dim=8, k=2, coeffs=random_complex((6, 2), rng)))
    u, v = k1.operators[0] @ random_complex(8, rng), random_complex(8, rng)
    bent = DissipatorSet(k1.items + ((1.0, np.outer(u + 1e-9 * random_complex(8, rng), v.conj())),))
    cases = ((k1, True), (preset_lfor2(), True), (k2, False), (bent, False),
             (_mixed_scale_set(), False))  # each u_j is tested against its own size
    for ds, shared in cases:
        jumps = ds._jumps
        assert jumps.U.shape[1] == len(ds) and jumps.Ld is None  # every jump is rank one
        assert (jumps.K is not None) == (jumps.uu is not None) == shared
    # the group holds L_j = u v'_j^dag, so L_j L_j^dag = ||v'_j||^2 u u^dag; K follows the rates
    jumps = k1._jumps
    for j, (_, L) in enumerate(k1):
        LLd = np.linalg.norm(jumps.Vs[:, j]) ** 2 * jumps.uu
        assert np.max(np.abs(LLd - L @ dag(L))) <= 1e-14 * np.max(np.abs(L)) ** 2
    doubled = k1.scaled(2.0)._jumps
    assert doubled.uu is jumps.uu and doubled.Vs is jumps.Vs
    assert np.allclose(doubled.K, 2.0 * jumps.K, rtol=1e-15, atol=0)


def test_rhs_splits_a_non_hermitian_input_by_linearity():
    model, jumps = _mixed_model(np.random.default_rng(35))
    rng = np.random.default_rng(36)
    X, Y = random_hermitian(8, rng), random_hermitian(8, rng)
    got = rhs(model, X + 1j * Y)
    want = _textbook_rhs(model.hamiltonian, jumps, X + 1j * Y)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # a NaN entry fails the Hermiticity test and is split once, not again
    assert np.all(np.isnan(rhs(model, np.full((8, 8), np.nan))))


def test_integrate_calls_the_kernel_and_never_splits(monkeypatch):
    calls = {"kernel": 0, "rhs": 0}

    def counting_kernel(model, rho):
        calls["kernel"] += 1
        return _hermitian_rhs(model, rho)

    def counting_rhs(model, rho):
        calls["rhs"] += 1
        return rhs(model, rho)

    monkeypatch.setattr("dissipforge.lindblad._hermitian_rhs", counting_kernel)
    monkeypatch.setattr("dissipforge.lindblad.rhs", counting_rhs)
    model, _ = _mixed_model(np.random.default_rng(37))
    record = integrate(model, random_density(8, np.random.default_rng(38)), 5e-3, dt=1e-3)
    assert calls == {"kernel": 4 * (len(record.times) - 1), "rhs": 0}


def test_integrate_hermitizes_a_start_state_hermitian_to_round_off():
    model, _ = _mixed_model(np.random.default_rng(39))
    rho = random_density(8, np.random.default_rng(40))
    rho[0, 1] += 3e-17 * (1 + 1j)
    assert not np.array_equal(rho, dag(rho)) and np.allclose(rho, dag(rho), rtol=0, atol=1e-16)
    target = PureState(np.eye(8)[0])
    got = integrate(model, rho, 5e-3, dt=1e-3, target=target)
    want = integrate(model, (rho + dag(rho)) / 2.0, 5e-3, dt=1e-3, target=target)
    for name in ("times", "states", "trace_errors", "min_eigs", "fidelities"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_structured_jump_sets_are_factored():
    rng = np.random.default_rng(31)
    spec = SynthesisSpec(dim=8, k=1, coeffs=random_complex((7, 1), rng))
    rotated = SynthesisSpec(dim=8, k=1, coeffs=spec.coeffs, basis=random_unitary(8, rng))
    sets = [preset_lfor2(), synth_subspace(spec), synth_single(spec), synth_single(rotated)]
    for n in (2, 3, 4):  # the CLI's single trajectory operator
        L, gamma, _ = _combined_operator(
            ScenarioConfig(scenario="qsd", n_qubits=n, target=f"cluster-{n}"))
        sets.append(DissipatorSet(((gamma, L),)))
    for ds in sets:
        jumps = LindbladModel(ds).dissipators._jumps
        assert jumps.gL is None and jumps.U.shape == (ds.dim, len(ds))


# ---------------------------------------------------------------- steady states


def test_steady_state_pure_decay():
    result = steady_states(_sigma_minus_model())
    assert result.dimension == 1
    assert fidelity(result.state, basis_state(1, 0)) >= 1.0 - 1e-12


def test_steady_state_bell_preset():
    result = steady_states(LindbladModel(preset_lfor2()))
    assert result.dimension == 1
    assert fidelity(result.state, bell_state()) >= 1.0 - 1e-10


def test_steady_state_subspace_dimension():
    rng = np.random.default_rng(25)
    spec = SynthesisSpec(dim=4, k=2, coeffs=random_complex((2, 2), rng))
    result = steady_states(LindbladModel(synth_subspace(spec)))
    assert result.dimension == 4
    # the representative is a valid state supported on the block
    assert abs(np.trace(result.state.matrix) - 1.0) < 1e-12


def _oracle_models():
    """Models with the null dimension of the complex SVD and the route that
    should decide it.

    Certified: the Bell preset, three rank-two jumps on four levels (so the
    certificate's screen has no rank-one jump and keeps every candidate), path
    clusters with random rates, a random amplitude target, rescaled rates,
    and a Hamiltonian H_Q + c|t><t| that keeps the target invariant.
    Declined: a Hamiltonian with full-rank and rank-one jumps at mixed rates
    for d = 2, 4, 8 (a mixed steady state), the bare single operator, a k = 2
    subspace synthesis, the synthesized set with one jump dropped and one with
    a rate of 1e-12, which the SVD counts as null.
    """
    rng = np.random.default_rng(26)
    for d in (2, 4, 8):
        rank_one = np.outer(random_complex(d, rng), random_complex(d, rng).conj())
        jumps = ((0.4, random_complex((d, d), rng)), (2.2, rank_one))
        model = LindbladModel(DissipatorSet(jumps), hamiltonian=random_hermitian(d, rng))
        yield pytest.param(model, 1, "svd", id=f"mixed-jumps-d{d}")
    spec = SynthesisSpec(dim=4, k=1, coeffs=np.ones((3, 1)))
    yield pytest.param(LindbladModel(synth_single(spec)), 9, "svd", id="single-operator-bare")
    spec = SynthesisSpec(dim=4, k=2, coeffs=random_complex((2, 2), rng))
    yield pytest.param(LindbladModel(synth_subspace(spec)), 4, "svd", id="subspace-k2")

    yield pytest.param(LindbladModel(preset_lfor2()), 1, "certificate", id="bell-preset")
    # |0><1| + |1><2|, |0><2| + |2><3| and |0><3| + |3><1| drain every level into |0>
    E = np.eye(4)
    rank_two = [np.outer(E[0], E[a]) + np.outer(E[a], E[b]) for a, b in ((1, 2), (2, 3), (3, 1))]
    ds = DissipatorSet(tuple(zip((1.0, 0.7, 1.3), rank_two)))
    yield pytest.param(LindbladModel(ds), 1, "certificate", id="rank-two-jumps-d4")
    for n in (2, 3, 4):
        ds = _synthesized(graph_state(GraphSpec.path(n)), rng.uniform(0.5, 2.0, 2**n - 1))
        yield pytest.param(LindbladModel(ds), 1, "certificate", id=f"cluster-{n}")
    amps = random_complex(8, rng)
    ds = _synthesized(PureState(amps / np.linalg.norm(amps)), rng.uniform(0.5, 2.0, 7))
    yield pytest.param(LindbladModel(ds), 1, "certificate", id="amplitude-target")
    for scale in (1e-8, 1e8):
        yield pytest.param(LindbladModel(ds.scaled(scale)), 1, "certificate",
                           id=f"amplitude-target-rates-x{scale:g}")
    target = graph_state(GraphSpec.path(3))
    P = target.density().matrix
    Q = np.eye(8) - P
    H = Q @ random_hermitian(8, rng) @ Q + 0.7 * P
    ds = _synthesized(target, rng.uniform(0.5, 2.0, 7))
    yield pytest.param(LindbladModel(ds, hamiltonian=(H + dag(H)) / 2), 1, "certificate",
                       id="cluster-3-invariant-hamiltonian")
    yield pytest.param(LindbladModel(DissipatorSet(ds.items[1:])), 4, "svd",
                       id="cluster-3-one-jump-dropped")
    weak = DissipatorSet(((1e-12, ds.items[0][1]),) + ds.items[1:])
    yield pytest.param(LindbladModel(weak), 4, "svd", id="cluster-3-rate-1e-12")


def _hermitian_basis(d):
    """Unitary T whose columns are vec(E_aa), then vec((E_ab + E_ba) / sqrt2),
    then vec(i (E_ab - E_ba) / sqrt2), a < b in row order."""
    E = np.eye(d)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    cols = [np.outer(E[a], E[a]) for a in range(d)]
    cols += [(np.outer(E[a], E[b]) + np.outer(E[b], E[a])) / math.sqrt(2) for a, b in pairs]
    cols += [1j * (np.outer(E[a], E[b]) - np.outer(E[b], E[a])) / math.sqrt(2) for a, b in pairs]
    T = np.column_stack([vec(c) for c in cols])
    assert np.allclose(dag(T) @ T, np.eye(d * d), rtol=0, atol=1e-15)
    return T


def _oracle(model):
    """Null-space projector and representative state from the complex SVD."""
    d = model.dim
    oracle = null_space(liouvillian_matrix(model))
    projector = sum(np.outer(v, v.conj()) for v in oracle)
    # the complex-basis representative: I/d projected, hermitized, normalized
    m = unvec(projector @ vec(np.eye(d) / d), d)
    m = (m + dag(m)) / 2.0
    return len(oracle), projector, m / np.trace(m).real


@pytest.mark.parametrize("model,expected,route", list(_oracle_models()))
def test_steady_states_match_complex_svd_oracle(model, expected, route):
    d = model.dim
    M = liouvillian_matrix(model)
    dimension, projector, state = _oracle(model)
    result = steady_states(model)
    assert result.dimension == dimension == expected
    assert result.route == route
    R = _real_generator(model)
    T = _hermitian_basis(d)
    assert np.max(np.abs(R - dag(T) @ M @ T)) <= 1e-12 * np.max(np.abs(R))
    s_complex = np.linalg.svd(M, compute_uv=False)
    s_real = np.linalg.svd(R, compute_uv=False)
    assert np.max(np.abs(s_real - s_complex)) <= 1e-12 * s_complex[0]
    ours = sum(np.outer(v, v.conj()) for v in result.null_vectors)
    assert np.max(np.abs(ours - projector)) < 1e-10
    for v, B in zip(result.null_vectors, result.basis_matrices):
        assert np.array_equal(B, dag(B)) and np.array_equal(vec(B), v)
    assert np.max(np.abs(result.state.matrix - state)) < 1e-10


PERTURBATIONS = [1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8]


def _perturbed_model(eps):
    """Synthesized cluster-3 with its first jump perturbed by about eps."""
    rng = np.random.default_rng(28)
    ds = _synthesized(graph_state(GraphSpec.path(3)), rng.uniform(0.5, 2.0, 7))
    (rate, L), rest = ds.items[0], ds.items[1:]
    return LindbladModel(DissipatorSet(((rate, L + eps * random_complex((8, 8), rng)),) + rest))


@pytest.mark.parametrize("eps", PERTURBATIONS)
def test_steady_states_of_a_perturbed_jump_match_the_oracle(eps):
    # a perturbation breaks invariance by about eps: either route must agree
    # with the SVD on the dimension and the state
    model = _perturbed_model(eps)
    dimension, _, state = _oracle(model)
    result = steady_states(model)
    assert result.dimension == dimension == 1
    assert np.max(np.abs(result.state.matrix - state)) < 1e-9


def _near_bound_model(factor):
    """Sixteen levels in a random frame w_k. The jump (w_k + delta w_{k+1})
    w_k^dag at rate k + 1, for even k >= 2, leaves the eigenvector w_k of
    H_eff invariant up to an off-t residual of delta = factor CERT_TOL, which
    is factor times CERT_TOL ||u|| ||v|| to 1e-24; the jump w_0 w_k^dag at
    rate k + 1 drains each odd level k into the target w_0. Seven probes give
    the rounding of ||u||^2 - |t^dag u|^2 both signs."""
    W = random_unitary(16, np.random.default_rng(29))
    delta = factor * CERT_TOL
    jumps = [(k + 1.0, np.outer(W[:, k] + delta * W[:, k + 1], W[:, k].conj()) if k % 2 == 0
              else np.outer(W[:, 0], W[:, k].conj())) for k in range(1, 16)]
    return LindbladModel(DissipatorSet(tuple(jumps)))


def _reference_search(model):
    """The eigenvectors T of H_eff and, per column, the certificate's
    per-candidate invariance test, run on every column without a screen."""
    H, jumps = model.h_eff, model.dissipators._jumps
    scale = np.linalg.norm(H)
    if jumps.U is not None:
        uv_bound = CERT_TOL * np.linalg.norm(jumps.U, axis=0) * np.linalg.norm(jumps.V, axis=0)
    if jumps.gL is not None:
        gL_bound = CERT_TOL * np.linalg.norm(jumps.gL, axis=(1, 2))

    def invariant(t):
        Ht = H @ t
        if np.linalg.norm(Ht - np.vdot(t, Ht) * t) > CERT_TOL * scale:
            return False
        if jumps.U is not None:
            off = (jumps.U - np.outer(t, t.conj() @ jumps.U)) * np.conj(t.conj() @ jumps.V)
            if np.any(np.linalg.norm(off, axis=0) > uv_bound):
                return False
        if jumps.gL is not None:
            Lt = jumps.gL @ t
            off = Lt - np.outer(Lt @ t.conj(), t)
            if np.any(np.linalg.norm(off, axis=1) > gL_bound):
                return False
        return True

    T = np.linalg.eig(H)[1]
    return T, np.array([invariant(t) for t in T.T])


def _screen_cases():
    for case in _oracle_models():
        yield pytest.param(case.values[0], id=case.id)
    for eps in PERTURBATIONS:
        yield pytest.param(_perturbed_model(eps), id=f"perturbed-{eps:g}")
    for factor in (0.5, 2.0):
        yield pytest.param(_near_bound_model(factor), id=f"near-bound-x{factor:g}")


@pytest.mark.parametrize("model", list(_screen_cases()))
def test_screen_drops_only_candidates_the_exact_test_rejects(model):
    model = _unit_scaled(model)
    H, jumps = model.h_eff, model.dissipators._jumps
    T, accepted = _reference_search(model)
    found = _invariant_eigenvectors(H, jumps, np.linalg.norm(H))
    reference = T.T[accepted]
    assert len(found) == len(reference)
    assert all(np.array_equal(t, r) for t, r in zip(found, reference))
    keep = jumps.screen(T, CERT_TOL * jumps.norms)
    assert np.all(keep[accepted])


@pytest.mark.parametrize("factor, kept", [(0.5, 8), (2.0, 1)])
def test_near_bound_model_straddles_the_invariance_tolerance(factor, kept):
    # the probes pass at half the tolerance and fail at twice it; w_0 always passes
    _, accepted = _reference_search(_near_bound_model(factor))
    assert accepted.sum() == kept


@pytest.mark.parametrize("n", [3, 4, 5])
def test_only_the_target_reaches_the_exact_invariance_test(n, monkeypatch):
    screened = []
    screen = _JumpFactors.screen

    def recording(jumps, T, bounds):
        keep = screen(jumps, T, bounds)
        screened.append((T, keep))
        return keep

    monkeypatch.setattr(_JumpFactors, "screen", recording)
    target = graph_state(GraphSpec.path(n))
    result = steady_states(LindbladModel(_synthesized(target, np.ones(2**n - 1))))
    assert result.route == "certificate"
    [(T, keep)] = screened
    assert keep.sum() == 1
    assert abs(np.vdot(target.amplitudes, T[:, keep][:, 0])) > 1.0 - 1e-12


def test_steady_states_refuses_a_fallback_above_the_size_limit():
    # the bare single operator at d = 128 has no pure steady state to certify,
    # and its 4 GiB Liouvillian is refused before it is allocated
    model = LindbladModel(synth_single(SynthesisSpec(dim=128, k=1, coeffs=np.ones((127, 1)))))
    assert 16 * model.dim**4 > MAX_DENSE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="GiB"):
            steady_states(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def _scaled_operators(ds, scale):
    return DissipatorSet(tuple((gamma, scale * L) for gamma, L in ds))


@pytest.mark.parametrize("scale", [1e-160, 1e-80, 1e80, 1e160])
@pytest.mark.parametrize("name", ["sigma-", "bell"])
def test_steady_states_do_not_depend_on_the_operator_scale(name, scale):
    # |H_eff| grows as the squared operator scale, so it overflows or leaves
    # SCALE_LIMIT; the generator is then divided by a power of two near its
    # scale (and at 1e+-160 each operator by one near its largest entry),
    # without an overflow warning on the way
    if name == "sigma-":
        ds, target = DissipatorSet(((1.0, SIGMA_MINUS),)), basis_state(1, 0)
    else:
        ds, target = preset_lfor2(), bell_state()
    plain = LindbladModel(ds)
    assert _unit_scaled(plain) is plain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = steady_states(LindbladModel(_scaled_operators(ds, scale)))
    assert (result.route, result.dimension) == ("certificate", 1)
    assert fidelity(result.state, target) > 1 - 1e-12


def test_steady_states_rescale_a_small_rate_on_a_large_operator():
    # gamma |L|^2 is 1e20, but |L|^2 alone overflows
    model = LindbladModel(DissipatorSet(((1e-300, 1e160 * SIGMA_MINUS),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = steady_states(model)
    assert (result.route, result.dimension) == ("certificate", 1)


def test_steady_states_refuse_operator_scales_beyond_one_float_range():
    ds = DissipatorSet(((1.0, 1e-160 * SIGMA_MINUS), (1.0, 1e160 * SIGMA_MINUS.T)))
    with pytest.raises(SteadyStateError, match="too wide to rescale"):
        steady_states(LindbladModel(ds))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_steady_states_rescale_a_hamiltonian_with_the_rates(scale):
    # the single operator with its splitting Hamiltonian on cluster-3, rates
    # and H scaled together, so max|H| is one of the terms the scale reads
    target = graph_state(GraphSpec.path(3))
    spec = SynthesisSpec(dim=8, k=1, coeffs=np.ones((7, 1)), basis=orthonormal_frame(target))
    ds, H = synth_single(spec), splitting_hamiltonian(spec)
    plain = steady_states(LindbladModel(ds, hamiltonian=H))
    model = LindbladModel(ds.scaled(scale), hamiltonian=scale * H)
    assert _unit_scaled(model) is not model
    result = steady_states(model)
    assert (result.route, result.dimension) == (plain.route, plain.dimension) == ("svd", 1)
    assert fidelity(result.state, target) > 1 - 1e-12


def test_steady_states_drop_a_zero_operator_out_of_the_scale_window():
    ds = DissipatorSet(((1e200, SIGMA_MINUS), (1.0, np.zeros((2, 2)))))
    scaled = _unit_scaled(LindbladModel(ds))
    # the zero operator adds nothing at any rate, so it is kept at rate 1
    assert scaled.dissipators.items[1][0] == 1.0 and not scaled.dissipators.items[1][1].any()
    result = steady_states(LindbladModel(ds))
    plain = steady_states(LindbladModel(DissipatorSet(ds.items[:1])))
    assert (result.route, result.dimension) == (plain.route, plain.dimension)
    assert np.array_equal(result.state.matrix, plain.state.matrix)


def test_steady_states_reports_a_representative_that_is_not_a_state(monkeypatch):
    # rates spread by about 1e8 defeat the certificate's margin, which does
    # not depend on round-off, so the SVD decides; its first null vector is
    # skewed off the state cone, and the projected representative's minimum
    # eigenvalue reads about -7e-7
    skew_null_space(monkeypatch)
    model = LindbladModel(_synthesized(graph_state(GraphSpec.path(2)), [7e-9, 1.0, 1.0]))
    with pytest.raises(SteadyStateError, match="minimum eigenvalue -"):
        steady_states(model)


# ---------------------------------------------------------------- integration


def test_integrate_keeps_steady_state():
    model = LindbladModel(preset_lfor2())
    target = bell_state()
    record = integrate(model, target.density(), 5.0, target=target)
    assert np.min(record.fidelities) >= 1.0 - 1e-9


def test_integrate_pure_decay_against_analytic():
    record = integrate(_sigma_minus_model(), np.diag([0.0, 1.0]).astype(complex), 5.0, dt=0.01)
    for t in (1.0, 2.0, 5.0):
        idx = record.index_at(t)
        assert abs(record.states[idx][1, 1].real - math.exp(-t)) < 1e-6


def test_integrate_converges_to_bell():
    model = LindbladModel(preset_lfor2())
    record = integrate(model, DensityMatrix.maximally_mixed(2), 10.0, target=bell_state())
    assert record.fidelities[-1] >= 1.0 - 1e-6
    assert np.max(record.trace_errors) <= 1e-8
    assert np.min(record.min_eigs) >= -1e-8


def propagate_exact(model, rho0, t):
    """rho(t) by exponentiating the vectorized generator (integration cross-check)."""
    return unvec(matexp(t * liouvillian_matrix(model)) @ vec(as_matrix(rho0)), model.dim)


def test_integrate_matches_exact_propagation():
    rng = np.random.default_rng(26)
    model = LindbladModel(preset_lfor2())
    rho0 = random_density(4, rng)
    record = integrate(model, rho0, 2.0)
    exact = propagate_exact(model, rho0, record.times[-1])
    assert np.max(np.abs(record.final - exact)) < 1e-6


def test_integrate_aborts_on_unstable_step():
    with pytest.raises(IntegrationError):
        integrate(_sigma_minus_model(), np.diag([0.0, 1.0]).astype(complex), 100.0, dt=10.0)


def test_integrate_aborts_on_non_finite_state():
    # the state overflows to inf/NaN in the first step, where the trace drift
    # and eigenvalue checks alone compare false and would let it pass
    with pytest.raises(IntegrationError, match="non-finite"), np.errstate(all="ignore"):
        integrate(_sigma_minus_model(1e300), np.diag([0.0, 1.0]).astype(complex), 1.0, dt=0.5)


def test_integrate_reports_an_overflowing_step_without_a_warning():
    # rho + dt/2 k2 overflows at dt = 1e299; under error::RuntimeWarning numpy's
    # warning would escape in place of the IntegrationError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(_sigma_minus_model(), np.diag([0.0, 1.0]).astype(complex), 1e300, dt=1e299)


def test_integrate_frame_covariance():
    rng = np.random.default_rng(27)
    model = LindbladModel(preset_lfor2())
    rho0 = random_density(4, rng)
    V = random_unitary(4, rng)
    rotated = LindbladModel(
        DissipatorSet(tuple((g, V @ L @ dag(V)) for g, L in model.dissipators))
    )
    rec = integrate(model, rho0, 1.0, dt=0.01)
    rec_rot = integrate(rotated, V @ rho0 @ dag(V), 1.0, dt=0.01)
    assert np.max(np.abs(rec_rot.final - V @ rec.final @ dag(V))) < 1e-8


def test_step_count_takes_k_steps_to_an_exact_multiple():
    for dt in (0.03, 0.3, 1e-3):
        assert all(step_count(k * dt, dt) == k for k in range(1, 20001))
    assert step_count(4916.1, 0.3) == 16387
    assert step_count(1.0, 0.3) == 4 and step_count(0.14, 0.1) == 2


@pytest.mark.parametrize("t_max, dt", [(math.inf, 0.1), (1.0, math.inf), (math.nan, 0.1),
                                       (-math.inf, 0.1)])
def test_step_count_rejects_non_finite_values(t_max, dt):
    with pytest.raises(ValueError, match="finite"):
        step_count(t_max, dt)
    with pytest.raises(ValueError, match="finite"):
        integrate(_sigma_minus_model(), np.diag([0.0, 1.0]), t_max, dt=dt)


def test_integrate_argument_validation():
    model = _sigma_minus_model()
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        integrate(model, rho0, 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        integrate(model, rho0, 0.005, dt=0.01)
    with pytest.raises(ValueError):
        integrate(model, np.eye(4) / 4.0, 1.0)


@pytest.mark.parametrize("rho0", [
    pytest.param(np.full((2, 2), np.nan), id="all-nan"),
    pytest.param(np.diag([np.inf, 0.0]), id="inf-entry"),
])
def test_integrate_rejects_a_non_finite_start_state(rho0):
    # an all-NaN state used to fail inside eigvalsh, and an inf entry after a
    # step, as a step-size instability
    with pytest.raises(ValueError, match="finite"):
        integrate(_sigma_minus_model(), rho0, 1.0, dt=0.1)


def test_integrate_and_time_to_fidelity_reject_a_nan_target():
    # the fidelities read NaN, and time_to_fidelity reported inf
    model, rho0 = _sigma_minus_model(), np.diag([0.0, 1.0])
    target = np.array([np.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        integrate(model, rho0, 1.0, dt=0.1, target=target)
    with pytest.raises(ValueError, match="finite"):
        time_to_fidelity(model, rho0, target, 0.5, 1.0, dt=0.1)


# ---------------------------------------------------------------- time to fidelity


def test_time_to_fidelity_zero_at_start():
    model = LindbladModel(preset_lfor2())
    target = bell_state()
    assert time_to_fidelity(model, target.density(), target, 0.9, 1.0) == 0.0


def test_time_to_fidelity_pure_decay_threshold():
    # population 1 - e^(-t) crosses 0.99 at t = ln(100)
    t = time_to_fidelity(
        _sigma_minus_model(), np.diag([0.0, 1.0]).astype(complex),
        basis_state(1, 0), 0.99, 10.0, dt=0.01,
    )
    assert abs(t - math.log(100.0)) <= 0.01 + 1e-9


def test_time_to_fidelity_halves_when_rates_double():
    model = LindbladModel(preset_lfor2())
    doubled = LindbladModel(preset_lfor2().scaled(2.0))
    rho0 = DensityMatrix.maximally_mixed(2)
    target = bell_state()
    t1 = time_to_fidelity(model, rho0, target, 0.99, 10.0)
    t2 = time_to_fidelity(doubled, rho0, target, 0.99, 10.0)
    assert abs(t1 / t2 - 2.0) <= 0.2


def test_time_to_fidelity_unreached_is_inf():
    model = _sigma_minus_model()
    t = time_to_fidelity(model, basis_state(1, 0).density(), basis_state(1, 1), 0.5, 1.0)
    assert t == math.inf


def test_time_to_fidelity_rejects_bad_threshold():
    model = _sigma_minus_model()
    with pytest.raises(ValueError):
        time_to_fidelity(model, basis_state(1, 0).density(), basis_state(1, 0), 1.5, 1.0)


# ---------------------------------------------------------------- record export


def test_record_csv_format(tmp_path):
    model = _sigma_minus_model()
    record = integrate(model, np.diag([0.0, 1.0]).astype(complex), 0.05, dt=0.01,
                       target=basis_state(1, 0))
    path = tmp_path / "evolution.csv"
    record.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,fidelity,trace_error,purity,min_eig"
    assert len(lines) == len(record.times) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[3] - 1.0) < 1e-12


def test_record_index_lookup():
    record = EvolutionRecord(
        times=np.array([0.0, 0.1, 0.2]),
        states=np.zeros((3, 2, 2), dtype=complex),
        trace_errors=np.zeros(3),
        min_eigs=np.zeros(3),
    )
    assert record.index_at(0.1) == 1
    for t in (0.5, np.nan):  # NaN is no closer to any sample; it used to read index 0
        with pytest.raises(ValueError, match="no sample"):
            record.index_at(t)
