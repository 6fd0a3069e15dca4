import math
from functools import partial

import numpy as np
import pytest

import dissipforge.qsd
from dissipforge.algebra import complex_pairs
from dissipforge.dissipators import (
    DissipatorSet,
    SynthesisSpec,
    orthonormal_frame,
    preset_lfor2,
    synth_subspace,
)
from dissipforge.lindblad import LindbladModel, integrate, step_count
from dissipforge.qsd import (
    EnsembleError,
    TrajectoryConfig,
    TrajectoryOverflow,
    ensemble_average,
    evolve_trajectory,
    sample_noise,
)
from dissipforge.states import GraphSpec, bell_state, fidelity, graph_state

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


# ---------------------------------------------------------------- noise


def test_noise_statistics():
    gamma, dt = 2.0, 0.1
    cfg = TrajectoryConfig(n_traj=1, dt=dt, t_max=100_000 * dt, master_seed=1, gamma=gamma)
    z = sample_noise(cfg, 0)
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
    a = sample_noise(cfg, 2)
    b = sample_noise(cfg, 2)
    c = sample_noise(cfg, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_noise_is_the_documented_read_only_recipe():
    cfg = TrajectoryConfig(n_traj=4, dt=0.05, t_max=1.0, master_seed=9, gamma=1.7)
    z = sample_noise(cfg, 3)
    assert z.ndim == 1 and z.dtype == complex and not z.flags.writeable
    seq = np.random.SeedSequence(9, spawn_key=(3,))
    re, im = np.random.default_rng(seq).standard_normal((2, cfg.n_steps))
    assert np.array_equal(z, np.sqrt(1.7 / (2 * 0.05)) * (re + 1j * im))


def test_noise_block_columns_are_the_sampled_paths():
    cfg = TrajectoryConfig(n_traj=12, dt=0.1, t_max=1.0, master_seed=4)
    block = dissipforge.qsd._noise_block(cfg, 5, 9)
    assert block.shape == (cfg.n_steps, 4)
    for b in range(4):
        assert np.array_equal(block[:, b], sample_noise(cfg, 5 + b))


def test_step_count_runs_once_per_config_and_not_per_noise_path(monkeypatch):
    calls = []

    def counted(t_max, dt):
        calls.append((t_max, dt))
        return step_count(t_max, dt)

    monkeypatch.setattr(dissipforge.qsd, "step_count", counted)
    cfg = TrajectoryConfig(n_traj=8, dt=0.1, t_max=1.0)
    assert calls == [(1.0, 0.1)] and cfg.n_steps == 10
    dissipforge.qsd._noise_block(cfg, 0, 8)
    sample_noise(cfg, 0)
    assert len(cfg.times) == 11 and calls == [(1.0, 0.1)]


def test_trajectory_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=0, dt=0.1, t_max=1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=1, dt=-0.1, t_max=1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=1, dt=0.1, t_max=0.05)
    with pytest.raises(ValueError):
        TrajectoryConfig(n_traj=1, dt=0.1, t_max=1.0, gamma=0.0)



@pytest.mark.parametrize("bad", [
    {"gamma": math.nan}, {"gamma": math.inf}, {"n_traj": 2.5}, {"n_traj": True},
    {"t_max": math.inf}, {"dt": math.inf}, {"dt": math.nan},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_trajectory_config_rejects_non_finite_and_non_integer_values(bad):
    with pytest.raises(ValueError):
        TrajectoryConfig(**{"n_traj": 2, "dt": 0.1, "t_max": 1.0, **bad})


@pytest.mark.parametrize("bad", [
    {"gamma": True}, {"gamma": "2"}, {"dt": True}, {"t_max": "1.0"}, {"t_max": 10**400},
], ids=["gamma-bool", "gamma-string", "dt-bool", "t_max-string", "t_max-10**400"])
def test_trajectory_config_refuses_booleans_strings_and_ints_beyond_floats(bad):
    name = next(iter(bad))
    with pytest.raises(ValueError, match=f"{name} must be"):
        TrajectoryConfig(**{"n_traj": 2, "dt": 0.1, "t_max": 1.0, **bad})


def test_trajectory_config_takes_a_numpy_integer_count():
    assert TrajectoryConfig(n_traj=np.int64(3), dt=0.1, t_max=1.0).n_traj == 3
    cfg = TrajectoryConfig(n_traj=4.0, dt=0.1, t_max=1.0, master_seed=np.uint32(7))
    assert (cfg.n_traj, cfg.master_seed) == (4, 7)  # an integral float, both stored as ints
    assert type(cfg.n_traj) is int and type(cfg.master_seed) is int


@pytest.mark.parametrize("seed", [-1, 2.5, True], ids=repr)
def test_trajectory_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # numpy would raise only when the first noise path is drawn
    with pytest.raises(ValueError, match="master_seed"):
        TrajectoryConfig(n_traj=2, dt=0.1, t_max=0.2, master_seed=seed)


def test_trajectory_config_takes_a_numpy_integer_seed():
    cfg = TrajectoryConfig(n_traj=2, dt=0.1, t_max=0.2, master_seed=np.uint32(7))
    assert np.array_equal(sample_noise(cfg, 0),
                          sample_noise(TrajectoryConfig(2, 0.1, 0.2, master_seed=7), 0))


@pytest.mark.parametrize("t_max, dt", [(1.0, 0.3), (0.14, 0.1)])
def test_ensemble_and_integrate_share_the_time_grid(t_max, dt):
    cfg = TrajectoryConfig(n_traj=2, dt=dt, t_max=t_max, master_seed=1)
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    model = LindbladModel(DissipatorSet(((1.0, SIGMA_MINUS),)))
    record = integrate(model, np.outer(KET1, KET1.conj()), t_max, dt=dt)
    assert np.array_equal(record.times, res.times)
    assert res.times[-1] >= t_max


# ---------------------------------------------------------------- single trajectory


def test_dark_initial_state_is_frozen():
    cfg = TrajectoryConfig(n_traj=1, dt=0.01, t_max=1.0, master_seed=2)
    states = evolve_trajectory(SIGMA_MINUS, cfg, KET0, sample_noise(cfg, 0))
    assert np.array_equal(states, np.tile(KET0, (cfg.n_steps + 1, 1)))


def test_zero_noise_path_contracts_analytically():
    dt = 1e-3
    cfg = TrajectoryConfig(n_traj=1, dt=dt, t_max=1.0, master_seed=0)
    states = evolve_trajectory(SIGMA_MINUS, cfg, KET1, np.zeros(cfg.n_steps))
    # Euler steps give (1 - dt/2)^k, an O(dt) approximation of e^(-t/2)
    amp = abs(states[-1][1])
    assert abs(amp - np.exp(-0.5)) < 1e-3
    assert abs(amp - (1 - dt / 2) ** cfg.n_steps) < 1e-12


def test_three_step_hand_recursion():
    dt = 0.1
    cfg = TrajectoryConfig(n_traj=1, dt=dt, t_max=3 * dt, master_seed=0)
    z = np.array([0.3 - 0.1j, -0.2 + 0.4j, 0.05 + 0j])
    states = evolve_trajectory(SIGMA_MINUS, cfg, KET1, z)
    # psi_{k+1} = psi_k + dt (z_k L psi_k - psi_k/2 on the excited component)
    a1 = dt * z[0]
    b1 = 1.0 - dt / 2
    a2 = a1 + dt * z[1] * b1
    b2 = b1 * (1 - dt / 2)
    a3 = a2 + dt * z[2] * b2
    b3 = b2 * (1 - dt / 2)
    expected = np.array([[0, 1], [a1, b1], [a2, b2], [a3, b3]], dtype=complex)
    assert np.max(np.abs(states - expected)) < 1e-14


def test_trajectory_overflow_raises():
    cfg = TrajectoryConfig(n_traj=1, dt=0.1, t_max=1.0, master_seed=0)
    noise = np.full(cfg.n_steps, 1e9 + 0j)
    with pytest.raises(TrajectoryOverflow):
        evolve_trajectory(SIGMA_MINUS, cfg, KET1, noise)


def test_trajectory_input_validation():
    cfg = TrajectoryConfig(n_traj=1, dt=0.1, t_max=1.0)
    with pytest.raises(ValueError):  # unnormalized start
        evolve_trajectory(SIGMA_MINUS, cfg, 2.0 * KET1, sample_noise(cfg, 0))
    with pytest.raises(ValueError, match="noise path length"):
        evolve_trajectory(SIGMA_MINUS, cfg, KET1, np.zeros(3))


def test_evolve_trajectory_takes_any_array_like_noise():
    cfg = TrajectoryConfig(n_traj=1, dt=0.1, t_max=0.5, master_seed=3)
    z = sample_noise(cfg, 0)
    states = evolve_trajectory(SIGMA_MINUS, cfg, KET1, z)  # read-only
    assert states.shape == (cfg.n_steps + 1, 2)
    assert np.array_equal(evolve_trajectory(SIGMA_MINUS, cfg, KET1, z.tolist()), states)
    # a (1, n_steps) block is read flattened; a wrong length is refused in
    # test_trajectory_input_validation
    assert np.array_equal(evolve_trajectory(SIGMA_MINUS, cfg, KET1, z[None, :]), states)


@pytest.mark.parametrize("run", [
    pytest.param(lambda cfg, psi0: evolve_trajectory(SIGMA_MINUS, cfg, psi0, sample_noise(cfg, 0)),
                 id="evolve_trajectory"),
    pytest.param(lambda cfg, psi0: ensemble_average(SIGMA_MINUS, cfg, psi0),
                 id="ensemble_average"),
])
def test_trajectories_reject_a_nan_start_state(run):
    # ||psi0|| is NaN, and abs(NaN - 1) > 1e-12 is False: without the check
    # every trajectory diverges and the run reports an overflow instead
    cfg = TrajectoryConfig(n_traj=200, dt=0.1, t_max=1.0)
    with pytest.raises(ValueError, match="normalized"):
        run(cfg, np.array([np.nan, 0.0]))


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


def test_ensemble_zero_spread_reads_exactly_zero():
    # sigma- from |1>: psi_1 = c_k is the same on every trajectory, while psi_0
    # and the coherences spread; t_max = 10 takes psi_1 down to e^-5, where the
    # closed form's cancellation is far above the moments' round-off
    cfg = TrajectoryConfig(n_traj=600, dt=1e-3, t_max=10.0, master_seed=7)
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    assert np.all(res.rho_se[:, 1, 1] == 0.0)
    assert np.all(res.rho_se[1:, 0, 0] > 0.0) and np.all(res.rho_se[1:, 0, 1] > 0.0)


def test_ensemble_bit_identical_reruns():
    cfg = TrajectoryConfig(n_traj=300, dt=1e-3, t_max=0.5, master_seed=5)
    a = ensemble_average(SIGMA_MINUS, cfg, KET1)
    b = ensemble_average(SIGMA_MINUS, cfg, KET1)
    assert np.array_equal(a.rho_mean, b.rho_mean)
    assert np.array_equal(a.rho_se, b.rho_se)


def test_ensemble_chunking_does_not_change_results(monkeypatch):
    cfg = TrajectoryConfig(n_traj=300, dt=1e-3, t_max=0.5, master_seed=5)
    monkeypatch.setattr(dissipforge.qsd, "CHUNK_SIZE", 256)
    a = ensemble_average(SIGMA_MINUS, cfg, KET1)
    monkeypatch.setattr(dissipforge.qsd, "CHUNK_SIZE", 17)
    b = ensemble_average(SIGMA_MINUS, cfg, KET1)
    assert np.max(np.abs(a.rho_mean - b.rho_mean)) < 1e-12


def test_average_takes_the_exclusion_budget_of_a_huge_ensemble_exactly():
    # int(0.01 * n_traj) raised OverflowError for an n_traj beyond the float range
    cfg = TrajectoryConfig(n_traj=10**400, dt=0.1, t_max=0.1)

    class FirstChunk(Exception):
        pass

    def stop(lo, hi, excluded):
        assert (lo, hi, excluded) == (0, dissipforge.qsd.CHUNK_SIZE, set())
        raise FirstChunk

    with pytest.raises(FirstChunk):
        dissipforge.qsd._average(cfg, stop)


def test_ensemble_mean_trace_stays_near_one():
    cfg = TrajectoryConfig(n_traj=2000, dt=1e-3, t_max=1.0, master_seed=13)
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    traces = np.einsum("tii->t", res.rho_mean).real
    se_sum = res.rho_se[:, 0, 0] + res.rho_se[:, 1, 1]
    assert np.all(np.abs(traces - 1.0) <= 5 * se_sum + 1e-12)


def test_single_trajectory_consistent_with_ensemble():
    cfg = TrajectoryConfig(n_traj=1, dt=1e-3, t_max=0.2, master_seed=7)
    states = evolve_trajectory(SIGMA_MINUS, cfg, KET1, sample_noise(cfg, 0))
    res = ensemble_average(SIGMA_MINUS, cfg, KET1)
    proj = np.einsum("ta,tb->tab", states, states.conj())
    assert np.max(np.abs(proj - res.rho_mean)) < 1e-12


def test_ensemble_agrees_with_master_equation_two_qubits():
    rng = np.random.default_rng(14)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    L = sum(ai * Li for ai, (_, Li) in zip(a, preset_lfor2()))
    L = L / np.linalg.norm(L, 2)
    cfg = TrajectoryConfig(n_traj=2000, dt=1e-3, t_max=1.0, master_seed=15)
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    res = ensemble_average(L, cfg, psi0)
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
    # the final sample alone; the (T, d, d) history stays in the result's arrays
    assert set(obj) == {"n_traj", "excluded", "t", "rho_mean", "rho_se"}
    assert obj["n_traj"] == 8 and obj["excluded"] == 0
    assert obj["t"] == res.times[-1] == cfg.times[-1]
    assert obj["rho_mean"] == complex_pairs(res.rho_mean[-1]) and len(obj["rho_mean"]) == 4
    assert obj["rho_se"] == res.rho_se[-1].reshape(-1).tolist()
    assert res.rho_mean.shape == res.rho_se.shape == (cfg.n_steps + 1, 2, 2)
    assert abs(fidelity(res.rho_mean[0], KET1) - 1.0) < 1e-12


# ---------------------------------------------------------------- rank-one closed form


def _stepper_average(L, cfg, psi0):
    """The ensemble of the stepper's chunk function, for any L."""
    model, psi0 = dissipforge.qsd._prepare(L, cfg, psi0)
    return dissipforge.qsd._average(cfg, partial(dissipforge.qsd._chunk_sums, model, cfg, psi0))


def _cluster_operator(n):
    """The CLI's combined trajectory operator |t><w| for the n-qubit path cluster."""
    target = graph_state(GraphSpec.path(n))
    spec = SynthesisSpec(dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)),
                         basis=orthonormal_frame(target))
    L = sum(op for _, op in synth_subspace(spec))
    return L / np.linalg.norm(L, 2), target.amplitudes


def _lfor2_operator():
    rng = np.random.default_rng(14)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    L = sum(ai * Li for ai, (_, Li) in zip(a, preset_lfor2()))
    return L / np.linalg.norm(L, 2), bell_state().amplitudes


def _rank_one_cases():
    """(name, L, starts): each operator from a decaying start and from its dark state."""
    ket_plus_i = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    yield "sigma-", SIGMA_MINUS, (KET1, KET0, ket_plus_i)
    for n in (2, 3):
        L, dark = _cluster_operator(n)
        start = np.zeros(2**n, dtype=complex)
        start[0] = 1.0
        yield f"cluster-{n}", L, (start, dark)
    L, dark = _lfor2_operator()
    yield "lfor2", L, (np.array([1.0, 0, 0, 0], dtype=complex), dark)


@pytest.mark.parametrize("name, L, starts", list(_rank_one_cases()),
                         ids=[case[0] for case in _rank_one_cases()])
def test_rank_one_closed_form_matches_stepper(name, L, starts):
    cfg = TrajectoryConfig(n_traj=300, dt=0.01, t_max=1.0, master_seed=21, gamma=1.3)
    for psi0 in starts:
        closed = ensemble_average(L, cfg, psi0)
        stepped = _stepper_average(L, cfg, psi0)
        # rho_se^2 (n - 1) is a mean of |psi_i|^2 |psi_j|^2 minus |rho_ij|^2, so
        # its round-off scales with that mean; an entry with no spread has a
        # round-off-level variance whose square root is about sqrt(eps). So the
        # spread is compared through the mean both paths sum, to 1e-12 of the
        # largest entry like rho_mean.
        moments = [res.rho_se**2 * (cfg.n_traj - 1) + np.abs(res.rho_mean) ** 2
                   for res in (closed, stepped)]
        for got, want in ((closed.rho_mean, stepped.rho_mean), moments):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert closed.excluded == stepped.excluded == ()


def test_rank_one_blocks_do_not_change_results(monkeypatch):
    # each block is seeded with the last values of the one before, so the
    # arithmetic is the same whatever the block length
    L, _ = _lfor2_operator()
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    cfg = TrajectoryConfig(n_traj=40, dt=0.01, t_max=1.0, master_seed=4)
    a = ensemble_average(L, cfg, psi0)
    monkeypatch.setattr(dissipforge.qsd, "BLOCK_STEPS", 7)
    b = ensemble_average(L, cfg, psi0)
    assert np.array_equal(a.rho_mean, b.rho_mean) and np.array_equal(a.rho_se, b.rho_se)


def test_path_rule_follows_the_operator(monkeypatch):
    cfg = TrajectoryConfig(n_traj=8, dt=0.01, t_max=0.1, master_seed=1)

    def refuse(*args):
        raise AssertionError("wrong path")

    monkeypatch.setattr(dissipforge.qsd, "_chunk_sums", refuse)
    ensemble_average(SIGMA_MINUS, cfg, KET1)  # rank one: closed form
    monkeypatch.undo()
    monkeypatch.setattr(dissipforge.qsd, "_rank_one_moments", refuse)
    ensemble_average(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), cfg, KET1)


@pytest.mark.parametrize("scale, outcome", [(8.0, (97,)), (12.0, "5 of 300")])
def test_rank_one_divergence_same_on_both_paths(scale, outcome):
    ket_plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    L = scale * np.outer(ket_plus, ket_plus.conj())
    cfg = TrajectoryConfig(n_traj=300, dt=0.02, t_max=5.0, master_seed=3)
    for average in (ensemble_average, _stepper_average):
        if isinstance(outcome, tuple):
            assert average(L, cfg, ket_plus).excluded == outcome
        else:
            with pytest.raises(EnsembleError, match=f"^{outcome} trajectories diverged"):
                average(L, cfg, ket_plus)
