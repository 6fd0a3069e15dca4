"""Linear quantum-state-diffusion trajectories in the Markov limit.

Each unnormalized trajectory obeys d(psi)/dt = [L z*_t - i H_eff] psi, where
H_eff = -(i gamma/2) L^dag L is the effective Hamiltonian of the one-jump
Lindblad model (gamma, L), driven by complex white noise of intensity gamma
(E[z z*] = gamma / dt per step, E[z z] = 0). Averaging the unnormalized projectors |psi><psi| over
trajectories reproduces the master-equation density matrix; the linear form
does not preserve single-trajectory norms, only the ensemble trace.
Trajectories step on the grid of `integrate`: lindblad.step_count(t_max, dt)
steps of dt, the last sample at or just after t_max.

The Euler-Maruyama recursion is psi_{k+1} = psi_k + dt [z_k L - (gamma/2)
L^dag L] psi_k, with z_k the k-th increment `sample_noise` draws (the z*_t
above) (Gisin & Percival, J. Phys. A 25, 5677 (1992); the linear form:
Goetsch & Graham, PRA 50, 5242 (1994)). Path rule: `ensemble_average`
builds the one-jump model (gamma, L) once and factors L through its
rank-one test; a rank-one L runs in the closed form below, any other L
through the stepper `_steps`, which takes that model and also serves
`evolve_trajectory`. The two agree to round-off. The stepper's drift -i H_eff
is the model's `drift`, whose eigenvectors `lindblad`'s certificate searches
too. Both public entry points deal in plain arrays:
`sample_noise` returns one trajectory's read-only increments, and
`evolve_trajectory` its (n_steps + 1, d) states at `TrajectoryConfig.times`.

Closed form for L = u v^dag. With c_k = v^dag psi_k, a = v^dag u,
b' = (gamma/2) ||u||^2 and b = b' ||v||^2, L psi = c u and
(gamma/2) L^dag L psi = b' c v, so

    c_{k+1} = c_k (1 + dt (a z_k - b)),
    psi_k = psi_0 + alpha_k u + beta_k v,
    alpha_k = dt sum_{j<k} z_j c_j,  beta_k = -dt b' sum_{j<k} c_j.

Each trajectory is three coefficients C = (1, alpha, beta) in the spanning
set E = (psi_0, u, v), which need not be orthonormal (an excluded trajectory
is C = 0). A block of steps takes one cumprod for c and two cumsums for alpha
and beta, each seeded with the previous block's last value, so the order of
operations is the recursion's. No (trajectories, d) state is formed. Let G
be the nine real numbers |C_a|^2, Re C_a C_a'^* and Im C_a C_a'^* (a < a').
Then sum_b psi_b psi_b^dag is linear in the 3x3 moments sum_b C_b C_b^dag,
whose entries are the sums of G; |psi_i|^2 = (R G)_i for a fixed real (d, 9)
matrix R, so sum_b |psi_bi|^2 |psi_bj|^2 is linear in the 9x9 moments
sum_b G_b G_b^T, and the norm check reads |psi|^2 = (1^T R) G. The moments
add up across chunks, since E is shared, and are expanded into (T, d, d)
arrays once, at the end.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .algebra import _integer, _positive, complex_pairs
from .dissipators import DissipatorSet
from .lindblad import ContractError, LindbladModel, step_count
from .states import as_vector

NORM_LIMIT = 1e6
CHUNK_SIZE = 256  # trajectories stepped together by ensemble_average
BLOCK_STEPS = 64  # time steps per block of the rank-one path: (64, 9, 256) floats, 1.2 MB
VARIANCE_ROUNDOFF = 256  # a variance within this many eps of its terms' magnitude reads 0


class TrajectoryOverflow(RuntimeError):
    """Trajectory norms exceeded the overflow limit; `indices` lists the offending rows."""

    def __init__(self, message, indices):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class EnsembleError(ContractError):
    """More than 1% of trajectories were excluded."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Ensemble size, discretization, seeding, and noise intensity."""

    n_traj: int
    dt: float
    t_max: float
    master_seed: int = 0
    gamma: float = 1.0
    n_steps: int = field(init=False)  # step_count(t_max, dt), set once here

    def __post_init__(self):
        for name, least in (("n_traj", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        # step_count checks finite dt > 0 and t_max >= dt
        object.__setattr__(self, "n_steps", step_count(self.t_max, self.dt))
        _positive(self.gamma, "gamma")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def sample_noise(cfg: TrajectoryConfig, traj_index: int) -> np.ndarray:
    """The read-only (n_steps,) complex increments z*_k of one trajectory.

    Reproducible from (master_seed, trajectory index): the stream is
    SeedSequence(master_seed, spawn_key=(traj_index,)), whose generator draws
    standard_normal((2, n_steps)) = (re, im), and z = sqrt(gamma / (2 dt))
    (re + i im). So E[|z|^2] = gamma / dt, E[z z] = 0, and paths are
    independent and order-insensitive.
    """
    seq = np.random.SeedSequence(cfg.master_seed, spawn_key=(int(traj_index),))
    raw = np.random.default_rng(seq).standard_normal((2, cfg.n_steps))
    z = np.sqrt(cfg.gamma / (2.0 * cfg.dt)) * (raw[0] + 1j * raw[1])
    z.setflags(write=False)
    return z


def _prepare(L, cfg, psi0):
    """The one-jump model (cfg.gamma, L) and the normalized start vector, validated."""
    L = np.asarray(L, dtype=complex)
    psi = as_vector(psi0)
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-12:  # a NaN norm fails too
        raise ValueError("initial state must be normalized")
    if L.shape != (psi.size, psi.size):
        raise ValueError(f"operator shape {L.shape} does not match state dimension {psi.size}")
    return LindbladModel(DissipatorSet(((cfg.gamma, L),))), psi


def _steps(model, cfg, Psi, noise):
    """Euler-Maruyama steps of a batch of trajectories, one per row of Psi.

    psi_{k+1} = psi_k + dt [L z*_k - i H_eff] psi_k, where -i H_eff =
    -(gamma/2) L^dag L is the drift (`model.drift`) of the one-jump model
    (gamma, L) and noise[:, k] holds each row's z*_k. Yields (Psi, |Psi|^2
    elementwise) at steps 0..n_steps; a row whose norm exceeds NORM_LIMIT
    raises TrajectoryOverflow with the offending row indices.
    """
    LT = model.dissipators.operators[0].T.copy()
    DT = model.drift.T.copy()
    prob = Psi.real**2 + Psi.imag**2
    yield Psi, prob
    for k in range(cfg.n_steps):
        Psi = Psi + cfg.dt * (noise[:, k, None] * (Psi @ LT) + Psi @ DT)
        prob = Psi.real**2 + Psi.imag**2
        bad = _too_large(prob.sum(axis=1))
        if np.any(bad):
            raise _overflow(bad, k + 1)
        yield Psi, prob


def _too_large(norms2):
    """True where a squared norm is non-finite or above NORM_LIMIT^2."""
    return ~np.isfinite(norms2) | (norms2 > NORM_LIMIT**2)


def _overflow(bad, step):
    """TrajectoryOverflow naming the rows flagged in bad at the given step."""
    return TrajectoryOverflow(
        f"{int(bad.sum())} trajectory norm(s) exceeded {NORM_LIMIT:.0e} at step {step}",
        np.nonzero(bad)[0],
    )


def evolve_trajectory(L: np.ndarray, cfg: TrajectoryConfig, psi0, noise) -> np.ndarray:
    """The (n_steps + 1, d) unnormalized states of one trajectory, at cfg.times.

    noise is any array-like of the n_steps increments z*_k (`sample_noise`),
    read flattened. Runs the ensemble's stepper on a batch of one; norms
    above NORM_LIMIT abort with TrajectoryOverflow.
    """
    model, psi = _prepare(L, cfg, psi0)
    z = np.asarray(noise, dtype=complex).reshape(1, -1)
    if z.size != cfg.n_steps:
        raise ValueError("noise path length does not match the configured step count")
    return np.array([Psi[0] for Psi, _ in _steps(model, cfg, psi[None, :], z)])


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
            "t": float(self.times[-1]),
            "rho_mean": complex_pairs(self.rho_mean[-1]),
            "rho_se": self.rho_se[-1].reshape(-1).tolist(),
        }


def _chunk_sums(model, cfg, psi0, lo, hi, excluded):
    """Evolve trajectories [lo, hi) together, accumulating projector sums.

    The stepper's path, for any L: returns the (T, d, d) sums of psi psi^dag
    and of |psi_i|^2 |psi_j|^2. Excluded rows ride along as zeros and
    contribute nothing; an overflow propagates as TrajectoryOverflow with
    chunk-relative row indices.
    """
    d = psi0.size
    noise = _noise_block(cfg, lo, hi).T
    Psi = _live(lo, hi, excluded)[:, None] * psi0
    T = cfg.n_steps + 1
    s_outer = np.empty((T, d, d), dtype=complex)
    s_abs2 = np.empty((T, d, d))
    for k, (Psi, prob) in enumerate(_steps(model, cfg, Psi, noise)):
        s_outer[k] = Psi.T @ Psi.conj()
        s_abs2[k] = prob.T @ prob
    return s_outer, s_abs2


def _noise_block(cfg, lo, hi):
    """(n_steps, hi - lo) block whose column b is the noise path of trajectory lo + b."""
    noise = np.empty((cfg.n_steps, hi - lo), dtype=complex)
    for i in range(lo, hi):
        noise[:, i - lo] = sample_noise(cfg, i)
    return noise


def _live(lo, hi, excluded):
    """1.0 for the rows of [lo, hi) that are evolved, 0.0 for excluded ones."""
    live = np.ones(hi - lo)
    for i in excluded:
        if lo <= i < hi:
            live[i - lo] = 0.0
    return live


# the pairs (a, a'), a < a', of G's Re and Im entries, in order
_FIRST, _SECOND = [0, 0, 1], [1, 2, 2]


def _rank_one_weights(E):
    """R (d, 9) with |psi_i|^2 = (R G)_i for psi = E^T C, E = (psi0, u, v) as rows.

    G holds |C_a|^2 for a = 0, 1, 2, then Re C_a C_a'^* and then
    Im C_a C_a'^* for the pairs (a, a') = (0, 1), (0, 2), (1, 2); the
    matching columns of R are |E_a|^2, 2 Re E_a E_a'^* and -2 Im E_a E_a'^*.
    """
    P = E[_FIRST] * E[_SECOND].conj()
    return np.concatenate((E.real**2 + E.imag**2, 2.0 * P.real, -2.0 * P.imag)).T


def _rank_one_moments(cfg, psi0, u, v, norm_weights, lo, hi, excluded):
    """The closed form of the module docstring for trajectories [lo, hi), L = u v^dag.

    Returns the (T, 9) sums over rows of G and the (T, 9, 9) sums of G G^T,
    G as in `_rank_one_weights`; |psi|^2 = norm_weights . G. Time runs in
    blocks of BLOCK_STEPS, each seeded with the last c, alpha and beta of
    the block before. A row whose norm exceeds NORM_LIMIT raises
    TrajectoryOverflow with the rows that are bad at the first bad step.
    """
    dt, n = cfg.dt, cfg.n_steps
    a = np.vdot(v, u)
    bp = 0.5 * cfg.gamma * np.vdot(u, u).real
    b = bp * np.vdot(v, v).real
    live = _live(lo, hi, excluded)
    dz = _noise_block(cfg, lo, hi)
    c = live * np.vdot(v, psi0)
    alpha = np.zeros(hi - lo, dtype=complex)
    beta = np.zeros(hi - lo, dtype=complex)
    g_sum = np.zeros((n + 1, 9))
    g_mom = np.zeros((n + 1, 9, 9))
    g_sum[0, 0] = g_mom[0, 0, 0] = live.sum()
    # a row may overflow after its first bad step, which the check reports, and so
    # may dz itself when the noise scale sqrt(gamma / 2 dt) is beyond the float range
    with np.errstate(over="ignore", invalid="ignore"):
        dz *= dt
        for k0 in range(0, n, BLOCK_STEPS):
            z = dz[k0 : k0 + BLOCK_STEPS]
            # c_k0 .. c_k1, then alpha and beta at k0 + 1 .. k1
            cs = np.cumprod(np.concatenate((c[None], 1.0 + (a * z - dt * b))), axis=0)
            alpha_s = np.cumsum(np.concatenate((alpha[None], z * cs[:-1])), axis=0)[1:]
            beta_s = np.cumsum(np.concatenate((beta[None], (-dt * bp) * cs[:-1])), axis=0)[1:]
            ab = alpha_s.conj() * beta_s  # the conjugate of C_1 C_2^*
            G = np.stack((
                np.broadcast_to(live, alpha_s.shape),
                alpha_s.real**2 + alpha_s.imag**2,
                beta_s.real**2 + beta_s.imag**2,
                live * alpha_s.real,
                live * beta_s.real,
                ab.real,
                -live * alpha_s.imag,
                -live * beta_s.imag,
                -ab.imag,
            ), axis=1)  # (steps, 9, rows)
            bad = _too_large(norm_weights @ G)
            if np.any(bad):
                k = int(np.argmax(bad.any(axis=1)))
                raise _overflow(bad[k], k0 + k + 1)
            k1 = k0 + len(z)
            g_sum[k0 + 1 : k1 + 1] = G.sum(axis=2)
            g_mom[k0 + 1 : k1 + 1] = G @ G.transpose(0, 2, 1)
            c, alpha, beta = cs[-1], alpha_s[-1], beta_s[-1]
    return g_sum, g_mom


def _average(cfg, chunk_sums, expand=None) -> EnsembleResult:
    """Mean and standard error from chunk_sums(lo, hi, excluded) over all chunks.

    chunk_sums returns a tuple of partial sums, which add up across chunks;
    expand turns their totals into the (T, d, d) sums of psi psi^dag and of
    |psi_i|^2 |psi_j|^2 and the (T, d) sizes of the terms of the |psi_i|^4
    sums (without it, those sums are their own sizes); a variance within
    VARIANCE_ROUNDOFF eps of sqrt(size_i size_j) reads 0. A chunk that raises
    TrajectoryOverflow is rerun with the offending rows excluded; more than
    1% exclusions raises EnsembleError.
    """
    budget = cfg.n_traj // 100
    excluded: set[int] = set()
    totals = None
    for lo in range(0, cfg.n_traj, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, cfg.n_traj)
        while True:
            try:
                sums = chunk_sums(lo, hi, excluded)
                break
            except TrajectoryOverflow as ov:
                excluded.update(lo + i for i in ov.indices)
                if len(excluded) > budget:
                    raise EnsembleError(
                        f"{len(excluded)} of {cfg.n_traj} trajectories diverged (> 1%)"
                    ) from None
        if totals is None:
            totals = sums
        else:
            for total, part in zip(totals, sums):
                total += part
    total_outer, total_abs2, *size = expand(*totals) if expand else totals
    n_valid = cfg.n_traj - len(excluded)
    # sqrt(size_i size_j) bounds the terms of entry (i, j) by Cauchy-Schwarz
    size = size[0] if size else np.diagonal(total_abs2, axis1=1, axis2=2)
    root = np.sqrt(size * (VARIANCE_ROUNDOFF * np.finfo(float).eps / n_valid))

    # the totals become the mean and the standard error in place
    mean = total_outer
    mean /= n_valid
    se = total_abs2
    se /= n_valid
    se -= np.abs(mean) ** 2
    se[se <= root[:, :, None] * root[:, None, :]] = 0.0  # negative round-off included
    se /= max(n_valid - 1, 1)
    np.sqrt(se, out=se)
    return EnsembleResult(cfg.times, mean, se, cfg.n_traj, tuple(sorted(excluded)))


def ensemble_average(L: np.ndarray, cfg: TrajectoryConfig, psi0) -> EnsembleResult:
    """Mean and standard error of unnormalized projectors over an ensemble.

    Every trajectory takes Euler-Maruyama steps
    psi_{k+1} = psi_k + dt [L z*_k - i H_eff] psi_k with the effective
    Hamiltonian H_eff = -(i gamma/2) L^dag L of the one-jump model
    (gamma, L). A rank-one L runs in closed form (see the module docstring),
    any other L through the stepper. Noise paths derive from
    (master_seed, index), so the ensemble is reproducible regardless of
    chunking; partial sums fold in fixed chunk order. Diverging trajectories
    are dropped and counted, and more than 1% exclusions raises
    EnsembleError.
    """
    model, psi0 = _prepare(L, cfg, psi0)
    factors = model.dissipators._jumps.factors
    if factors is None:
        return _average(cfg, partial(_chunk_sums, model, cfg, psi0))
    u, v = factors[0][:, 0], factors[1][:, 0]
    E = np.stack((psi0, u, v))
    R = _rank_one_weights(E)

    def expand(g_sum, g_mom):
        # sum_b psi_b psi_b^dag = E^T M E^* with M = sum_b C_b C_b^dag, whose
        # entries are the sums of G; the |psi_i|^2 |psi_j|^2 sums are R S R^T
        # for the 9x9 moments S, whose terms the diagonal of |R| |S| |R|^T sizes
        M = np.empty((len(g_sum), 3, 3), dtype=complex)
        M[:, [0, 1, 2], [0, 1, 2]] = g_sum[:, :3]
        M[:, _FIRST, _SECOND] = g_sum[:, 3:6] + 1j * g_sum[:, 6:]
        M[:, _SECOND, _FIRST] = g_sum[:, 3:6] - 1j * g_sum[:, 6:]
        Ra = np.abs(R)
        size = np.einsum("tiq,iq->ti", Ra @ np.abs(g_mom), Ra)
        return E.T @ (M @ E.conj()), R @ (g_mom @ R.T), size

    chunk = partial(_rank_one_moments, cfg, psi0, u, v, R.sum(axis=0))
    return _average(cfg, chunk, expand)
