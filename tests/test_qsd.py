import numpy as np
import pytest

from dissipforge.dissipators import preset_lfor2
from dissipforge.lindblad import LindbladModel, integrate
from dissipforge.qsd import (
    EnsembleError,
    NoisePath,
    TrajectoryConfig,
    TrajectoryOverflow,
    ensemble_average,
    evolve_trajectory,
    sample_noise,
)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


# ---------------------------------------------------------------- noise


def test_noise_statistics():
    gamma, dt = 2.0, 0.1
    cfg = TrajectoryConfig(n_traj=1, dt=dt, t_max=100_000 * dt, master_seed=1, gamma=gamma)
    z = sample_noise(cfg, 0).increments
    n = z.size
    target = gamma / dt
    # E|z|^2 = gamma/dt within five standard errors of the sample mean
    zz = np.abs(z) ** 2
    se = np.std(zz) / np.sqrt(n)
    assert abs(np.mean(zz) - target) <= 5 * se
    # E[z z] = 0 (circular symmetry)
    z2 = z * z
    se2 = np.sqrt((np.var(z2.real) + np.var(z2.imag)) / n)
    assert abs(np.mean(z2)) <= 5 * se2


def test_noise_determinism_and_independence():
    cfg = TrajectoryConfig(n_traj=4, dt=0.01, t_max=1.0, master_seed=7)
    a = sample_noise(cfg, 2).increments
    b = sample_noise(cfg, 2).increments
    c = sample_noise(cfg, 3).increments
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trajectory_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=0, dt=0.1, t_max=1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=1, dt=-0.1, t_max=1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=1, dt=0.1, t_max=0.05)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=1, dt=0.1, t_max=1.0, gamma=0.0)


# ---------------------------------------------------------------- single trajectory


def test_dark_initial_state_is_frozen():
    cfg = TrajectoryConfig(n_traj=1, dt=0.01, t_max=1.0, master_seed=2)
    traj = evolve_trajectory(SIGMA_MINUS, cfg, KET0, sample_noise(cfg, 0))
    assert np.array_equal(traj.states, np.tile(KET0, (cfg.n_steps + 1, 1)))


def test_zero_noise_path_contracts_analytically():
    dt = 1e-3
    cfg = TrajectoryConfig(n_traj=1, dt=dt, t_max=1.0, master_seed=0)
    noise = NoisePath(np.zeros(cfg.n_steps))
    traj = evolve_trajectory(SIGMA_MINUS, cfg, KET1, noise)
    # Euler steps give (1 - dt/2)^k, an O(dt) approximation of e^(-t/2)
    amp = abs(traj.states[-1][1])
    assert abs(amp - np.exp(-0.5)) < 1e-3
    assert abs(amp - (1 - dt / 2) ** cfg.n_steps) < 1e-12


def test_three_step_hand_recursion():
    dt = 0.1
    cfg = TrajectoryConfig(n_traj=1, dt=dt, t_max=3 * dt, master_seed=0)
    z = np.array([0.3 - 0.1j, -0.2 + 0.4j, 0.05 + 0j])
    traj = evolve_trajectory(SIGMA_MINUS, cfg, KET1, NoisePath(z))
    # psi_{k+1} = psi_k + dt (z_k L psi_k - psi_k/2 on the excited component)
    a1 = dt * z[0]
    b1 = 1.0 - dt / 2
    a2 = a1 + dt * z[1] * b1
    b2 = b1 * (1 - dt / 2)
    a3 = a2 + dt * z[2] * b2
    b3 = b2 * (1 - dt / 2)
    expected = np.array([[0, 1], [a1, b1], [a2, b2], [a3, b3]], dtype=complex)
    assert np.max(np.abs(traj.states - expected)) < 1e-14


def test_trajectory_overflow_raises():
    cfg = TrajectoryConfig(n_traj=1, dt=0.1, t_max=1.0, master_seed=0)
    noise = NoisePath(np.full(cfg.n_steps, 1e9 + 0j))
    with pytest.raises(TrajectoryOverflow):
        evolve_trajectory(SIGMA_MINUS, cfg, KET1, noise)


def test_trajectory_input_validation():
    cfg = TrajectoryConfig(n_traj=1, dt=0.1, t_max=1.0)
    with pytest.raises(ValueError):  # unnormalized start
        evolve_trajectory(SIGMA_MINUS, cfg, 2.0 * KET1, sample_noise(cfg, 0))
    with pytest.raises(ValueError):  # wrong noise length
        evolve_trajectory(SIGMA_MINUS, cfg, KET1, NoisePath(np.zeros(3)))


# ---------------------------------------------------------------- ensembles


def test_ensemble_matches_analytic_decay():
    cfg = TrajectoryConfig(n_traj=2000, dt=1e-3, t_max=1.0, master_seed=11)
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    idx = int(round(1.0 / cfg.dt))
    mean = res.rho_mean[idx, 1, 1].real
    allowance = 5 * res.rho_se[idx, 1, 1] + 0.12 * cfg.dt
    assert abs(mean - np.exp(-1.0)) <= allowance
    assert res.n_excluded == 0


def test_ensemble_dark_state_constant():
    cfg = TrajectoryConfig(n_traj=16, dt=0.01, t_max=0.5, master_seed=3)
    res = ensemble_average(SIGMA_MINUS, cfg, KET0)
    proj = np.outer(KET0, KET0.conj())
    assert np.array_equal(res.rho_mean, np.tile(proj, (cfg.n_steps + 1, 1, 1)))
    assert np.max(res.rho_se) == 0.0


def test_ensemble_bit_identical_reruns():
    cfg = TrajectoryConfig(n_traj=300, dt=1e-3, t_max=0.5, master_seed=5)
    a = ensemble_average(SIGMA_MINUS, cfg, KET1)
    b = ensemble_average(SIGMA_MINUS, cfg, KET1)
    assert np.array_equal(a.rho_mean, b.rho_mean)
    assert np.array_equal(a.rho_se, b.rho_se)


def test_ensemble_chunking_does_not_change_results():
    cfg = TrajectoryConfig(n_traj=300, dt=1e-3, t_max=0.5, master_seed=5)
    a = ensemble_average(SIGMA_MINUS, cfg, KET1, chunk_size=256)
    b = ensemble_average(SIGMA_MINUS, cfg, KET1, chunk_size=17)
    assert np.max(np.abs(a.rho_mean - b.rho_mean)) < 1e-12


def test_ensemble_mean_trace_stays_near_one():
    cfg = TrajectoryConfig(n_traj=2000, dt=1e-3, t_max=1.0, master_seed=13)
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    traces = np.einsum("tii->t", res.rho_mean).real
    se_sum = res.rho_se[:, 0, 0] + res.rho_se[:, 1, 1]
    assert np.all(np.abs(traces - 1.0) <= 5 * se_sum + 1e-12)


def test_single_trajectory_consistent_with_ensemble():
    cfg = TrajectoryConfig(n_traj=1, dt=1e-3, t_max=0.2, master_seed=7)
    traj = evolve_trajectory(SIGMA_MINUS, cfg, KET1, sample_noise(cfg, 0))
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    proj = np.einsum("ta,tb->tab", traj.states, traj.states.conj())
    assert np.max(np.abs(proj - res.rho_mean)) < 1e-12


def test_ensemble_agrees_with_master_equation_two_qubits():
    rng = np.random.default_rng(14)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    L = sum(ai * Li for ai, (_, Li) in zip(a, preset_lfor2()))
    L = L / np.linalg.norm(L, 2)
    cfg = TrajectoryConfig(n_traj=2000, dt=1e-3, t_max=1.0, master_seed=15)
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    res = ensemble_average(L, cfg, psi0)
    from dissipforge.dissipators import DissipatorSet

    record = integrate(
        LindbladModel(DissipatorSet(((1.0, L),))),
        np.outer(psi0, psi0.conj()), 1.0, dt=1e-3,
    )
    idx = int(round(1.0 / cfg.dt))
    diff = np.abs(res.rho_mean[idx] - record.states[idx])
    ok = diff <= 5 * res.rho_se[idx] + 5.0 * cfg.dt
    assert np.mean(ok) >= 0.99


def test_ensemble_excludes_and_fails_on_divergence():
    L = 10.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    cfg = TrajectoryConfig(n_traj=200, dt=0.05, t_max=5.0, master_seed=3)
    with pytest.raises(EnsembleError):
        ensemble_average(L, cfg, KET0)


def test_ensemble_json_summary():
    cfg = TrajectoryConfig(n_traj=8, dt=0.01, t_max=0.05, master_seed=9)
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    obj = res.to_json_obj()
    assert set(obj) == {"n_traj", "excluded", "times", "rho_mean", "rho_se"}
    assert obj["n_traj"] == 8 and obj["excluded"] == 0
    assert len(obj["times"]) == cfg.n_steps + 1
    assert len(obj["rho_mean"]) == (cfg.n_steps + 1) * 4
    record = res.record(target=KET1)
    assert record.fidelities is not None and abs(record.fidelities[0] - 1.0) < 1e-12
