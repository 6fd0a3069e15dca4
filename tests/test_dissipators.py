import numpy as np
import pytest

from conftest import random_complex, random_density, random_unitary
from dissipforge.dissipators import (
    DissipatorSet,
    SynthesisSpec,
    is_dark,
    orthonormal_frame,
    preset_lfor2,
    splitting_hamiltonian,
    synth_single,
    synth_subspace,
)
from dissipforge.lindblad import LindbladModel, liouvillian_matrix, rhs, steady_states, vec
from dissipforge.states import GraphSpec, bell_state, fidelity, graph_state, purity
from dissipforge.algebra import dag, null_space


def _closed_form(spec, rho):
    """Per-level action rho_jj |phi_j><phi_j| - (w/2)(|j><j| rho + rho |j><j|)."""
    out = np.zeros_like(rho)
    block = spec.basis[:, : spec.k]
    for row in range(spec.dim - spec.k):
        phi = block @ spec.coeffs[row]
        j = spec.basis[:, spec.k + row]
        rho_jj = np.vdot(j, rho @ j)
        proj = np.outer(j, j.conj())
        out += rho_jj * np.outer(phi, phi.conj())
        out -= 0.5 * np.vdot(phi, phi).real * (proj @ rho + rho @ proj)
    return out


# ---------------------------------------------------------------- subspace synthesis


def test_two_level_synthesis_matches_plus_minus_operator():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    spec = SynthesisSpec(dim=2, k=1, coeffs=np.array([[1.0]]),
                         basis=np.column_stack([plus, minus]))
    ds = synth_subspace(spec)
    assert len(ds) == 1
    L = ds.operators[0]
    assert np.max(np.abs(L - np.outer(plus, minus))) < 1e-14
    # Z - iY is twice this operator
    Z = np.diag([1.0, -1.0]).astype(complex)
    Y = np.array([[0, -1j], [1j, 0]])
    assert np.max(np.abs((Z - 1j * Y) - 2.0 * L)) < 1e-14


def test_bell_target_three_operators_annihilate_it():
    target = bell_state()
    frame = orthonormal_frame(target)
    spec = SynthesisSpec(dim=4, k=1, coeffs=np.ones((3, 1)), basis=frame)
    ds = synth_subspace(spec)
    assert len(ds) == 3
    for _, L in ds:
        assert np.linalg.norm(L @ target.amplitudes) < 1e-12


def test_block_supported_states_are_stationary():
    rng = np.random.default_rng(10)
    basis = random_unitary(4, rng)
    spec = SynthesisSpec(dim=4, k=2, coeffs=random_complex((2, 2), rng), basis=basis)
    model = LindbladModel(synth_subspace(spec))
    block = basis[:, :2]
    rho_block = block @ random_density(2, rng) @ dag(block)
    assert np.max(np.abs(rhs(model, rho_block))) < 1e-12


def test_closed_form_matches_dense_rhs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        basis = random_unitary(4, rng)
        spec = SynthesisSpec(dim=4, k=2, coeffs=random_complex((2, 2), rng), basis=basis)
        model = LindbladModel(synth_subspace(spec))
        rho = random_density(4, rng)
        assert np.max(np.abs(rhs(model, rho) - _closed_form(spec, rho))) < 1e-12


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 4)])
def test_dark_space_dimension_is_k_squared(k, expected):
    rng = np.random.default_rng(12 + k)
    spec = SynthesisSpec(dim=4, k=k, coeffs=random_complex((4 - k, k), rng))
    model = LindbladModel(synth_subspace(spec))
    assert len(null_space(liouvillian_matrix(model))) == expected


def test_frame_covariance():
    rng = np.random.default_rng(13)
    spec = SynthesisSpec(dim=4, k=1, coeffs=random_complex((3, 1), rng))
    ds = synth_subspace(spec)
    V = random_unitary(4, rng)
    rotated = DissipatorSet(tuple((g, V @ L @ dag(V)) for g, L in ds))
    rho = random_density(4, rng)
    lhs = rhs(LindbladModel(rotated), V @ rho @ dag(V))
    rhs_val = V @ rhs(LindbladModel(ds), rho) @ dag(V)
    assert np.max(np.abs(lhs - rhs_val)) < 1e-12


def test_synthesis_spec_validation():
    with pytest.raises(ValueError):
        SynthesisSpec(dim=4, k=4, coeffs=np.ones((0, 4)))
    with pytest.raises(ValueError):
        SynthesisSpec(dim=4, k=5, coeffs=np.ones((1, 1)))
    with pytest.raises(ValueError):  # all-zero row never decays
        SynthesisSpec(dim=3, k=1, coeffs=np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):  # non-orthonormal basis
        SynthesisSpec(dim=2, k=1, coeffs=np.ones((1, 1)), basis=np.ones((2, 2)))


# ---------------------------------------------------------------- single operator


def test_single_operator_with_splitting_field_has_unique_null_vector():
    spec = SynthesisSpec(dim=4, k=1, coeffs=np.ones((3, 1)))
    ds = synth_single(spec)
    assert len(ds) == 1
    model = LindbladModel(ds, hamiltonian=splitting_hamiltonian(spec))
    vecs = null_space(liouvillian_matrix(model))
    assert len(vecs) == 1
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    expected = vec(np.outer(e0, e0.conj()))
    assert abs(abs(np.vdot(vecs[0], expected)) - 1.0) < 1e-10


def test_single_operator_alone_leaves_degenerate_dark_block():
    # the rank-one operator annihilates the whole orthocomplement of its
    # coefficient vector, so without an energy splitting the generator
    # kernel is (N-1)^2 dimensional
    spec = SynthesisSpec(dim=4, k=1, coeffs=np.ones((3, 1)))
    model = LindbladModel(synth_single(spec))
    assert len(null_space(liouvillian_matrix(model))) == 9


def test_splitting_hamiltonian_validation():
    spec = SynthesisSpec(dim=4, k=1, coeffs=np.ones((3, 1)))
    with pytest.raises(ValueError):
        splitting_hamiltonian(spec, energies=np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        splitting_hamiltonian(spec, energies=np.zeros(3))
    with pytest.raises(ValueError, match="not unitary"):
        SynthesisSpec(dim=4, k=1, coeffs=np.ones((3, 1)), basis=np.diag([1.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="shape"):
        SynthesisSpec(dim=4, k=1, coeffs=np.ones((3, 1)), basis=np.eye(3))


def test_single_operator_two_level_is_lowering():
    spec = SynthesisSpec(dim=2, k=1, coeffs=np.array([[1.0]]))
    L = synth_single(spec).operators[0]
    assert np.array_equal(L, np.array([[0, 1], [0, 0]], dtype=complex))


def test_single_operator_drives_into_bell_state():
    rng = np.random.default_rng(14)
    target = bell_state()
    coeffs = random_complex((3, 1), rng)
    spec = SynthesisSpec(dim=4, k=1, coeffs=coeffs, basis=orthonormal_frame(target))
    ds = synth_single(spec)
    model = LindbladModel(ds, hamiltonian=splitting_hamiltonian(spec))
    result = steady_states(model)
    assert result.dimension == 1
    assert fidelity(result.state, target) >= 1.0 - 1e-10


def test_single_operator_purity_for_random_coefficients():
    rng = np.random.default_rng(15)
    for _ in range(5):
        coeffs = random_complex((3, 1), rng)
        spec = SynthesisSpec(dim=4, k=1, coeffs=coeffs)
        model = LindbladModel(
            synth_single(spec), hamiltonian=splitting_hamiltonian(spec)
        )
        result = steady_states(model)
        assert result.dimension == 1
        assert purity(result.state) >= 1.0 - 1e-9


def test_single_operator_rejections():
    with pytest.raises(ValueError):  # k must be 1
        synth_single(SynthesisSpec(dim=4, k=2, coeffs=np.ones((2, 2))))
    with pytest.raises(ValueError):  # zero coefficient
        synth_single(SynthesisSpec(dim=3, k=1, coeffs=np.array([[1.0], [0.0]])))
    with pytest.raises(ValueError):  # non-unitary basis
        synth_single(SynthesisSpec(dim=2, k=1, coeffs=np.array([[1.0]]), basis=np.ones((2, 2))))


def test_orthonormal_frame_properties():
    rng = np.random.default_rng(16)
    v = random_complex(8, rng)
    v /= np.linalg.norm(v)
    frame = orthonormal_frame(v)
    assert np.max(np.abs(dag(frame) @ frame - np.eye(8))) < 1e-12
    assert np.max(np.abs(frame[:, 0] - v)) < 1e-12


def _gram_schmidt_frame(target):
    """Reference frame: `target`, then the computational seeds except the one of
    largest overlap, each orthogonalized twice against the columns before it."""
    v = target / np.linalg.norm(target)
    cols = [v]
    for i in range(v.size):
        if i == int(np.argmax(np.abs(v))):
            continue
        w = np.eye(v.size, dtype=complex)[i]
        for _ in range(2):
            for c in cols:
                w = w - np.vdot(c, w) * c
        cols.append(w / np.linalg.norm(w))
    return np.column_stack(cols)


@pytest.mark.parametrize("n", range(1, 9))
def test_orthonormal_frame_matches_gram_schmidt(n):
    rng = np.random.default_rng(100 + n)
    targets = [graph_state(GraphSpec.path(n)).amplitudes] + [
        random_complex(2**n, rng) for _ in range(3)
    ]
    for target in targets:
        assert np.max(np.abs(orthonormal_frame(target) - _gram_schmidt_frame(target))) < 1e-14


def test_orthonormal_frame_rejects_a_zero_target():
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="collapsed"):
        orthonormal_frame(np.zeros(4))


# ---------------------------------------------------------------- stock operators


def test_preset_annihilates_bell_state():
    phi = bell_state().amplitudes
    for _, L in preset_lfor2():
        assert np.linalg.norm(L @ phi) <= 1e-14


def test_preset_random_combination_annihilates_bell_state():
    rng = np.random.default_rng(17)
    a = random_complex(3, rng)
    while np.any(np.abs(a) < 1e-3):
        a = random_complex(3, rng)
    combined = sum(ai * L for ai, (_, L) in zip(a, preset_lfor2()))
    assert np.linalg.norm(combined @ bell_state().amplitudes) < 1e-12


def test_preset_rank_one_structure():
    # each operator is s |bell><v_j| with the v_j orthonormal and orthogonal
    # to the Bell state
    phi = bell_state().amplitudes
    right_vectors = []
    for _, L in preset_lfor2():
        u, s, vh = np.linalg.svd(L)
        assert s[1] <= 1e-12  # rank one
        assert abs(abs(np.vdot(u[:, 0], phi)) - 1.0) < 1e-12
        right_vectors.append(vh[0].conj())
    for i, v in enumerate(right_vectors):
        assert abs(np.vdot(phi, v)) < 1e-12
        for j, w in enumerate(right_vectors):
            expected = 1.0 if i == j else 0.0
            assert abs(abs(np.vdot(v, w)) - expected) < 1e-12


def test_is_dark():
    ds = preset_lfor2()
    assert is_dark(ds, bell_state())
    zero_zero = np.array([1.0, 0, 0, 0], dtype=complex)
    assert not is_dark(ds, zero_zero)
    assert is_dark(DissipatorSet(()), zero_zero)
    with pytest.raises(ValueError):
        is_dark(ds, np.array([1.0, 0.0]))


def test_is_dark_is_scale_aware():
    # round-off in a random frame leaves ||L phi|| near 1e-16 ||L||, so a dark
    # set stays dark when scaled up, and a tiny operator that does not
    # annihilate phi is not dark
    rng = np.random.default_rng(15)
    spec = SynthesisSpec(dim=8, k=1, coeffs=random_complex((7, 1), rng),
                         basis=random_unitary(8, rng))
    phi = spec.basis[:, 0]
    ds = synth_subspace(spec)
    big = DissipatorSet(tuple((g, 1e8 * L) for g, L in ds))
    assert is_dark(ds, phi) and is_dark(big, phi) and is_dark(ds, 1e8 * phi)
    tiny = DissipatorSet(((1.0, 1e-12 * random_complex((8, 8), rng)),))
    assert not is_dark(tiny, phi)


# ---------------------------------------------------------------- container


def test_dissipator_set_validation_and_json():
    with pytest.raises(ValueError):
        DissipatorSet(((0.0, np.eye(2)),))
    with pytest.raises(ValueError):
        DissipatorSet(((1.0, np.ones((2, 3))),))
    ds = preset_lfor2()
    back = DissipatorSet.from_json_obj(ds.to_json_obj())
    assert back.rates == ds.rates
    for (_, a), (_, b) in zip(ds, back):
        assert np.array_equal(a, b)
    assert ds.scaled(2.0).rates == (2.0, 2.0, 2.0)


_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


def test_new_rates_carry_the_operators_and_their_peaks():
    ds = preset_lfor2()
    for out in (ds.scaled(2.0), ds._with_rates([0.5, 1.0, 2.0])):
        assert out.peaks is ds.peaks == DissipatorSet(out.items).peaks
        assert all(a is b for a, b in zip(out.operators, ds.operators))
    assert ds._with_rates([0.5, 1, 2]).rates == (0.5, 1.0, 2.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            ds._with_rates([1.0, bad, 1.0])
    with pytest.raises(ValueError):  # one rate per operator
        ds._with_rates([1.0, 1.0])


@pytest.mark.parametrize("gamma, entry", [
    pytest.param(np.inf, 1.0, id="rate-inf"),
    pytest.param(np.nan, 1.0, id="rate-nan"),
    pytest.param(1.0, np.inf, id="entry-inf"),
    pytest.param(1.0, np.nan, id="entry-nan"),
])
def test_dissipator_set_rejects_non_finite_rates_and_entries(gamma, entry):
    op = _SIGMA_MINUS.copy()
    op[0, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        DissipatorSet(((gamma, op),))


def test_dissipator_set_shares_only_frozen_operators():
    frozen = np.eye(2, dtype=complex)
    frozen.setflags(write=False)
    writable = np.eye(2, dtype=complex)
    owner = np.eye(2, dtype=complex)
    view = owner.view()
    view.setflags(write=False)  # read-only, but its owner can still change it
    ds = DissipatorSet(((1.0, frozen), (1.0, writable), (1.0, view)))
    kept, copied, viewed = ds.operators
    assert kept is frozen
    assert copied is not writable and not copied.flags.writeable
    writable[0, 0] = owner[0, 0] = 5.0
    assert copied[0, 0] == viewed[0, 0] == 1.0
    assert all(op is L for op, L in zip(ds.scaled(3.0).operators, ds.operators))
