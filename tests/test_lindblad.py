import math

import numpy as np
import pytest

from conftest import random_complex, random_density, random_hermitian, random_unitary
from dissipforge.algebra import dag
from dissipforge.dissipators import DissipatorSet, SynthesisSpec, preset_lfor2, synth_subspace
from dissipforge.lindblad import (
    EvolutionRecord,
    IntegrationError,
    LindbladModel,
    integrate,
    liouvillian_matrix,
    propagate_exact,
    rhs,
    steady_states,
    time_to_fidelity,
    vec,
)
from dissipforge.states import DensityMatrix, bell_state, basis_state, fidelity

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


def test_model_validation():
    with pytest.raises(ValueError):  # non-Hermitian Hamiltonian
        LindbladModel(DissipatorSet(()), hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):  # no dimension at all
        LindbladModel(DissipatorSet(()))
    with pytest.raises(ValueError):  # mismatched dimensions
        LindbladModel(DissipatorSet(((1.0, SIGMA_MINUS),)), hamiltonian=np.eye(4))


# ---------------------------------------------------------------- vectorization


def test_liouvillian_matches_rhs_on_random_states():
    rng = np.random.default_rng(21)
    full_rank = DissipatorSet(((0.3, random_complex((4, 4), rng)),
                               (2.5, random_complex((4, 4), rng))))
    for jumps in (preset_lfor2(), full_rank):
        model = LindbladModel(jumps, hamiltonian=random_hermitian(4, rng))
        M = liouvillian_matrix(model)
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


def test_integrate_argument_validation():
    model = _sigma_minus_model()
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        integrate(model, rho0, 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        integrate(model, rho0, 0.005, dt=0.01)
    with pytest.raises(ValueError):
        integrate(model, np.eye(4) / 4.0, 1.0)


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
    with pytest.raises(ValueError):
        record.index_at(0.5)
