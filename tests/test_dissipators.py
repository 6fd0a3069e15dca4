import gc
import weakref

import numpy as np
import pytest

import dissipforge.dissipators
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
from dissipforge.cli import ScenarioConfig, _build_model
from dissipforge.lindblad import (
    LindbladModel,
    _unit_scaled,
    liouvillian_matrix,
    rhs,
    steady_states,
    vec,
)
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


def test_synthesis_spec_rejects_a_nan_basis():
    with pytest.raises(ValueError, match="unitary"):
        SynthesisSpec(dim=2, k=1, coeffs=[1.0], basis=[[np.nan, 0.0], [0.0, 1.0]])


def test_synthesis_spec_rejects_nan_coefficients():
    with pytest.raises(ValueError, match="finite"):
        SynthesisSpec(dim=2, k=1, coeffs=[np.nan])


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
    for entry in (np.nan, np.inf):  # NaN used to read not dark, as a bound compared false
        with pytest.raises(ValueError, match="finite"):
            is_dark(ds, np.array([entry, 0.0, 0.0, 0.0]))


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


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_is_dark_does_not_depend_on_the_operator_or_state_scale(scale):
    # ||L phi|| and ||L||_F overflow at 1e160 (inf <= inf) and underflow at
    # 1e-170 (0 <= 0) unless both are scaled by powers of two first
    unit = DissipatorSet(((1.0, SIGMA_MINUS),))
    scaled = DissipatorSet(((1.0, scale * SIGMA_MINUS),))
    for phi, dark in (([1.0, 0.0], True), ([0.0, 1.0], False), ([1.0, 1.0], False)):
        phi = np.array(phi, dtype=complex) / np.linalg.norm(phi)
        assert is_dark(unit, phi) is dark
        assert is_dark(scaled, phi) is dark
        assert is_dark(unit, scale * phi) is dark


def _reference_is_dark(ds, phi):
    """The per-operator dense formula is_dark had before it read the set's
    factorization: ||L phi|| <= 1e-10 ||phi|| ||L||_F for every operator."""
    v = np.asarray(phi, dtype=complex).reshape(-1)
    bound = 1e-10 * np.linalg.norm(v)
    return all(np.linalg.norm(op @ v) <= bound * np.linalg.norm(op) for _, op in ds)


def _mixed_set(rng):
    """Seven synthesized rank-one jumps at n = 3, one full-rank jump and one
    rank-one jump perturbed by 1e-9 R, which stays dense."""
    spec = SynthesisSpec(dim=8, k=1, coeffs=random_complex((7, 1), rng),
                         basis=random_unitary(8, rng))
    near = np.outer(random_complex(8, rng), random_complex(8, rng).conj())
    extra = ((0.7, random_complex((8, 8), rng)), (1.3, near + 1e-9 * random_complex((8, 8), rng)))
    return DissipatorSet(tuple(synth_subspace(spec)) + extra)


def _cluster_set(n):
    target = graph_state(GraphSpec.path(n))
    spec = SynthesisSpec(dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)),
                         basis=orthonormal_frame(target))
    return synth_subspace(spec), spec.basis


def test_models_over_one_set_share_its_factorization():
    ds = _mixed_set(np.random.default_rng(40))
    first, second = LindbladModel(ds), LindbladModel(ds, hamiltonian=np.eye(8))
    assert first.dissipators._jumps is second.dissipators._jumps is ds._jumps
    assert not hasattr(first, "_jumps")


def _counting_rank_one(monkeypatch):
    calls = []
    rank_one = dissipforge.dissipators._rank_one

    def counting(L, peak):
        calls.append(L)
        return rank_one(L, peak)

    monkeypatch.setattr(dissipforge.dissipators, "_rank_one", counting)
    return calls


def test_is_dark_and_steady_states_factor_each_operator_once(monkeypatch):
    calls = _counting_rank_one(monkeypatch)
    ds, frame = _cluster_set(3)
    assert is_dark(ds, frame[:, 0])
    assert steady_states(LindbladModel(ds)).route == "certificate"
    assert len(calls) == len(ds) and all(a is L for a, (_, L) in zip(calls, ds))


@pytest.mark.parametrize("gamma, scale", [
    pytest.param(1.0, 1.0, id="1.0"),
    pytest.param(1e200, 1.0, id="1e+200"),
    pytest.param(1.0, 1e120, id="operators-x1e+120"),
])
def test_a_rate_outside_the_scale_window_factors_each_operator_once(gamma, scale, monkeypatch):
    # the CLI's synth scenario: steady_states, then is_dark on the configured set;
    # operators beyond SCALE_LIMIT are factored once, in the set's `_rescaled` set
    calls = _counting_rank_one(monkeypatch)
    model, target = _build_model(ScenarioConfig("synth", n_qubits=3, target="cluster-3",
                                                gamma=gamma))
    ds = DissipatorSet(tuple((g, scale * L) for g, L in model.dissipators))
    assert steady_states(LindbladModel(ds)).route == "certificate"
    assert is_dark(ds, target)
    assert len(calls) == len(ds) == 7


def test_is_dark_and_the_rescaled_model_share_one_factorization():
    ds, frame = _cluster_set(3)
    big = DissipatorSet(tuple((g, 1e120 * L) for g, L in ds))
    assert is_dark(big, frame[:, 0])
    unit, ks = big._rescaled
    assert "_jumps" in unit.__dict__ and "_jumps" not in big.__dict__
    scaled = _unit_scaled(LindbladModel(big)).dissipators
    assert all(a is b for a, b in zip(scaled.operators, unit.operators))
    assert scaled._jumps.U is unit._jumps.U and scaled._jumps.V is unit._jumps.V
    assert ks == tuple(np.frexp(big.peaks)[1])


def test_the_rescaled_set_divides_only_operators_out_of_the_window():
    ds, _ = _cluster_set(3)
    assert ds._rescaled is None
    mixed = DissipatorSet(((0.5, 1e-120 * ds.items[0][1]),) + ds.items[1:])
    unit, ks = mixed._rescaled
    assert ks[0] < 0 and not any(ks[1:])
    assert unit.rates == mixed.rates
    assert all(a is b for a, b in zip(unit.operators[1:], ds.operators[1:]))
    assert np.array_equal(unit.operators[0], np.ldexp(mixed.operators[0].real, -ks[0])
                          + 1j * np.ldexp(mixed.operators[0].imag, -ks[0]))
    # the cached set does not refer back to its source, so the source is freed
    # by reference counting alone, without waiting for the cyclic collector
    source = weakref.ref(mixed)
    gc.disable()
    try:
        del mixed
        assert source() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_carried_factors_equal_a_fresh_factorization(scale):
    ds = _mixed_set(np.random.default_rng(43)).scaled(scale)
    rescaled = _unit_scaled(LindbladModel(ds)).dissipators
    assert rescaled is not ds and rescaled.operators == ds.operators
    assert rescaled._jumps.Ld is ds._jumps.Ld
    carried, fresh = rescaled._jumps, DissipatorSet(rescaled.items)._jumps
    for name in ("rates", "norms", "order", "U", "Ud", "V", "Ld", "gVc", "gL"):
        assert np.array_equal(getattr(carried, name), getattr(fresh, name)), name


def test_a_zero_operator_changes_no_result():
    # the zero operator is the one jump `_rank_one` leaves dense for its zero column
    ds, frame = _cluster_set(3)
    with_zero = DissipatorSet(ds.items + ((1.0, np.zeros((8, 8))),))
    assert with_zero._jumps.Ld.shape == (1, 8, 8)
    plain, zero = LindbladModel(ds), LindbladModel(with_zero)
    rho = random_density(8, np.random.default_rng(44))
    assert np.array_equal(zero.h_eff, plain.h_eff)
    assert np.array_equal(rhs(zero, rho), rhs(plain, rho))
    for phi in (frame[:, 0], frame[:, 1]):
        assert is_dark(with_zero, phi) == is_dark(ds, phi)
    got, want = steady_states(zero), steady_states(plain)
    assert (got.route, got.dimension) == (want.route, want.dimension) == ("certificate", 1)
    assert np.array_equal(got.state.matrix, want.state.matrix)


def test_both_vector_actions_match_the_dense_operators():
    rng = np.random.default_rng(41)
    ds = _mixed_set(rng)
    jumps = ds._jumps
    assert jumps.U.shape == (8, 7) and jumps.Ld.shape == (2, 8, 8)
    # the factored jumps come first, in set order, then the dense ones
    ops = [L for _, L in ds]
    rates = [g for g, _ in ds]
    assert np.array_equal(jumps.rates, rates)
    assert np.allclose(jumps.norms, [np.linalg.norm(L) for L in ops], rtol=1e-14, atol=0)
    for t in (random_complex(8, rng), 1e-3 * random_complex(8, rng)):
        scale = np.linalg.norm(t) * max(np.linalg.norm(L) for L in ops)
        dense = np.column_stack([L @ t for L in ops])
        dense_dag = np.column_stack([dag(L) @ t for L in ops])
        assert np.max(np.abs(jumps.apply(t) - dense)) < 1e-14 * scale
        assert np.max(np.abs(jumps.apply_dag(t) - dense_dag)) < 1e-14 * scale


def test_a_factor_lost_to_overflow_leaves_the_jump_dense():
    # ||u||^2 overflows at 1e160, so v = L^dag u / ||u||^2 holds NaN; the
    # reproduction check must reject it rather than pass NaN factors on
    with np.errstate(over="ignore", invalid="ignore"):
        jumps = DissipatorSet(((1.0, 1e160 * SIGMA_MINUS),))._jumps
    assert jumps.U is None and jumps.Ld.shape == (1, 2, 2)
    assert np.array_equal(jumps.apply(np.array([0.0, 1.0])), [[1e160], [0.0]])


def _is_dark_cases():
    rng = np.random.default_rng(42)
    for n in (3, 4):
        ds, frame = _cluster_set(n)
        states = [frame[:, 0], frame[:, 1], random_complex(2**n, rng), 1e8 * frame[:, 0]]
        yield pytest.param(ds, states, id=f"cluster-{n}")
    yield pytest.param(preset_lfor2(), [bell_state(), np.array([1.0, 0, 0, 0]),
                                        random_complex(4, rng)], id="bell-preset")
    yield pytest.param(_mixed_set(rng), [random_complex(8, rng), np.eye(8)[0]], id="mixed")
    yield pytest.param(DissipatorSet(()), [np.eye(4)[2], random_complex(4, rng)], id="empty")
    # the residual of phi = t + delta f_1 is delta ||L_1||_F ||phi|| to 1e-20
    # relative, at half and at twice the 1e-10 bound
    ds, frame = _cluster_set(3)
    yield pytest.param(ds, [frame[:, 0] + f * 1e-10 * frame[:, 1] for f in (0.5, 2.0)],
                       id="cluster-3-near-bound")


@pytest.mark.parametrize("ds, states", list(_is_dark_cases()))
def test_is_dark_agrees_with_the_per_operator_formula(ds, states):
    answers = [is_dark(ds, phi) for phi in states]
    assert answers == [_reference_is_dark(ds, getattr(phi, "amplitudes", phi)) for phi in states]


def test_is_dark_near_the_bound_straddles_it():
    ds, frame = _cluster_set(3)
    for f, dark in ((0.5, True), (2.0, False)):
        assert is_dark(ds, frame[:, 0] + f * 1e-10 * frame[:, 1]) is dark


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
