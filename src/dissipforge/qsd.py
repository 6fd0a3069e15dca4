"""Linear quantum-state-diffusion trajectories in the Markov limit.

Each unnormalized trajectory obeys d(psi)/dt = [L z*_t - i H_eff] psi, where
H_eff = -(i gamma/2) L^dag L is the effective Hamiltonian of the one-jump
Lindblad model (gamma, L), driven by complex white noise of intensity gamma
(E[z z*] = gamma / dt per step, E[z z] = 0). Averaging the unnormalized projectors |psi><psi| over
trajectories reproduces the master-equation density matrix; the linear form
does not preserve single-trajectory norms, only the ensemble trace.
Trajectories step on the grid of `integrate`: lindblad.step_count(t_max, dt)
steps of dt, the last sample at or just after t_max.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import complex_pairs
from .dissipators import DissipatorSet
from .lindblad import LindbladModel, step_count
from .states import as_vector

NORM_LIMIT = 1e6
CHUNK_SIZE = 256  # trajectories stepped together by ensemble_average


class TrajectoryOverflow(RuntimeError):
    """Trajectory norms exceeded the overflow limit; `indices` lists the offending rows."""

    def __init__(self, message, indices):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class EnsembleError(RuntimeError):
    """More than 1% of trajectories were excluded."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Ensemble size, discretization, seeding, and noise intensity."""

    n_traj: int
    dt: float
    t_max: float
    master_seed: int = 0
    gamma: float = 1.0

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be at least 1, got {self.n_traj}")
        step_count(self.t_max, self.dt)  # checks dt > 0 and t_max >= dt
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def n_steps(self) -> int:
        return step_count(self.t_max, self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Per-step complex increments z*_k for one trajectory."""

    increments: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=complex).reshape(-1).copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)


def sample_noise(cfg: TrajectoryConfig, traj_index: int) -> NoisePath:
    """Gaussian increments, reproducible from (master_seed, trajectory index).

    Real and imaginary parts each have variance gamma / (2 dt), so
    E[|z|^2] = gamma / dt and E[z z] = 0. The stream split uses numpy's
    SeedSequence with the trajectory index as spawn key, so paths are
    independent and order-insensitive.
    """
    seq = np.random.SeedSequence(cfg.master_seed, spawn_key=(int(traj_index),))
    raw = np.random.default_rng(seq).standard_normal((2, cfg.n_steps))
    scale = np.sqrt(cfg.gamma / (2.0 * cfg.dt))
    return NoisePath(scale * (raw[0] + 1j * raw[1]))


@dataclass(eq=False)
class Trajectory:
    """Times and unnormalized state vectors of a single realization."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, d)


def _prepare(L, psi0):
    """Validated (operator, normalized start vector) pair."""
    L = np.asarray(L, dtype=complex)
    psi = as_vector(psi0)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise ValueError("initial state must be normalized")
    if L.shape != (psi.size, psi.size):
        raise ValueError(f"operator shape {L.shape} does not match state dimension {psi.size}")
    return L, psi


def _steps(L, cfg, Psi, noise):
    """Euler-Maruyama steps of a batch of trajectories, one per row of Psi.

    psi_{k+1} = psi_k + dt [L z*_k - i H_eff] psi_k, where -i H_eff =
    -(gamma/2) L^dag L is the drift of the one-jump model (gamma, L) and
    noise[:, k] holds each row's z*_k. Yields (Psi, |Psi|^2 elementwise) at
    steps 0..n_steps; a row whose norm exceeds NORM_LIMIT raises
    TrajectoryOverflow with the offending row indices.
    """
    drift = -1j * LindbladModel(DissipatorSet(((cfg.gamma, L),))).h_eff
    LT = L.T.copy()
    DT = drift.T.copy()
    prob = Psi.real**2 + Psi.imag**2
    yield Psi, prob
    for k in range(cfg.n_steps):
        Psi = Psi + cfg.dt * (noise[:, k, None] * (Psi @ LT) + Psi @ DT)
        prob = Psi.real**2 + Psi.imag**2
        norms2 = prob.sum(axis=1)
        bad = ~np.isfinite(norms2) | (norms2 > NORM_LIMIT**2)
        if np.any(bad):
            raise TrajectoryOverflow(
                f"{int(bad.sum())} trajectory norm(s) exceeded {NORM_LIMIT:.0e} "
                f"at step {k + 1}",
                np.nonzero(bad)[0],
            )
        yield Psi, prob


def evolve_trajectory(L: np.ndarray, cfg: TrajectoryConfig, psi0, noise: NoisePath) -> Trajectory:
    """Euler-Maruyama propagation of one unnormalized trajectory.

    Runs the ensemble's stepper on a batch of one; norms above NORM_LIMIT
    abort with TrajectoryOverflow.
    """
    L, psi = _prepare(L, psi0)
    if noise.increments.size != cfg.n_steps:
        raise ValueError("noise path length does not match the configured step count")
    states = [Psi[0] for Psi, _ in _steps(L, cfg, psi[None, :], noise.increments[None, :])]
    return Trajectory(cfg.times, np.array(states))


@dataclass(eq=False)
class EnsembleResult:
    """Ensemble mean of unnormalized projectors with elementwise standard errors."""

    times: np.ndarray
    rho_mean: np.ndarray  # (T, d, d)
    rho_se: np.ndarray  # (T, d, d) real; combined spread of real and imaginary parts
    n_traj: int
    excluded: tuple[int, ...]

    @property
    def n_excluded(self) -> int:
        return len(self.excluded)

    def to_json_obj(self) -> dict:
        return {
            "n_traj": self.n_traj,
            "excluded": self.n_excluded,
            "times": self.times.tolist(),
            "rho_mean": complex_pairs(self.rho_mean),
            "rho_se": self.rho_se.reshape(-1).tolist(),
        }


def _chunk_sums(L, cfg, psi0, lo, hi, excluded):
    """Evolve trajectories [lo, hi) together, accumulating projector sums.

    Excluded rows ride along as zeros and contribute nothing; an overflow
    propagates as TrajectoryOverflow with chunk-relative row indices.
    """
    d = psi0.size
    noise = np.stack([sample_noise(cfg, i).increments for i in range(lo, hi)])
    Psi = np.tile(psi0, (hi - lo, 1))
    for i in excluded:
        if lo <= i < hi:
            Psi[i - lo] = 0.0
    T = cfg.n_steps + 1
    s_outer = np.empty((T, d, d), dtype=complex)
    s_abs2 = np.empty((T, d, d))
    for k, (Psi, prob) in enumerate(_steps(L, cfg, Psi, noise)):
        s_outer[k] = Psi.T @ Psi.conj()
        s_abs2[k] = prob.T @ prob
    return s_outer, s_abs2


def ensemble_average(L: np.ndarray, cfg: TrajectoryConfig, psi0) -> EnsembleResult:
    """Mean and standard error of unnormalized projectors over an ensemble.

    Every trajectory takes Euler-Maruyama steps
    psi_{k+1} = psi_k + dt [L z*_k - i H_eff] psi_k with the effective
    Hamiltonian H_eff = -(i gamma/2) L^dag L of the one-jump model
    (gamma, L). Noise paths derive from (master_seed, index), so the
    ensemble is reproducible regardless of chunking; partial sums fold in
    fixed chunk order. Diverging trajectories are dropped and counted, and
    more than 1% exclusions raises EnsembleError.
    """
    L, psi0 = _prepare(L, psi0)
    budget = int(0.01 * cfg.n_traj)
    excluded: set[int] = set()
    T = cfg.n_steps + 1
    d = psi0.size
    total_outer = np.zeros((T, d, d), dtype=complex)
    total_abs2 = np.zeros((T, d, d))
    for lo in range(0, cfg.n_traj, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, cfg.n_traj)
        while True:
            try:
                s_outer, s_abs2 = _chunk_sums(L, cfg, psi0, lo, hi, excluded)
                break
            except TrajectoryOverflow as ov:
                excluded.update(lo + i for i in ov.indices)
                if len(excluded) > budget:
                    raise EnsembleError(
                        f"{len(excluded)} of {cfg.n_traj} trajectories diverged (> 1%)"
                    ) from None
        total_outer += s_outer
        total_abs2 += s_abs2

    n_valid = cfg.n_traj - len(excluded)
    mean = total_outer / n_valid
    var = np.maximum(total_abs2 / n_valid - np.abs(mean) ** 2, 0.0)
    se = np.sqrt(var / max(n_valid - 1, 1))
    return EnsembleResult(cfg.times, mean, se, cfg.n_traj, tuple(sorted(excluded)))
