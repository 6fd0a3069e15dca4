"""Lindblad generator assembly, master-equation integration, steady states.

The generator is d(rho)/dt = -i[H, rho] + sum_j gamma_j (L_j rho L_j^dag
- {L_j^dag L_j, rho} / 2). It is evaluated through the non-Hermitian
effective Hamiltonian H_eff = H - (i/2) sum_j gamma_j L_j^dag L_j as
d(rho)/dt = -i(H_eff rho - rho H_eff^dag) + sum_j gamma_j L_j rho L_j^dag;
the same H_eff gives the vectorized Liouvillian and the drift of the
diffusion trajectories in `qsd`. Density matrices are vectorized by stacking
columns, so vec(A X B) = (B^T kron A) vec(X).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import dag, matexp, null_space
from .dissipators import DissipatorSet
from .states import DensityMatrix, PureState, purity


class IntegrationError(RuntimeError):
    """Step-size instability detected during time integration."""


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Jump operators with rates, plus an optional Hamiltonian."""

    dissipators: DissipatorSet
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        H = self.hamiltonian
        if H is not None:
            H = np.asarray(H, dtype=complex).copy()
            if H.ndim != 2 or H.shape[0] != H.shape[1]:
                raise ValueError(f"Hamiltonian must be square, got shape {H.shape}")
            if np.max(np.abs(H - H.conj().T)) > 1e-12:
                raise ValueError("Hamiltonian is not Hermitian to 1e-12")
            if self.dissipators.dim is not None and H.shape[0] != self.dissipators.dim:
                raise ValueError("Hamiltonian and jump operators act on different dimensions")
            H.setflags(write=False)
            object.__setattr__(self, "hamiltonian", H)
        elif self.dissipators.dim is None:
            raise ValueError("model needs a Hamiltonian or at least one jump operator")

    @property
    def dim(self) -> int:
        if self.dissipators.dim is not None:
            return self.dissipators.dim
        return self.hamiltonian.shape[0]

    @cached_property
    def h_eff(self) -> np.ndarray:
        """Read-only H - (i/2) sum_j gamma_j L_j^dag L_j, built on first use."""
        K = np.zeros((self.dim, self.dim), dtype=complex)
        for gamma, L in self.dissipators:
            K += gamma * (dag(L) @ L)
        H = -0.5j * K
        if self.hamiltonian is not None:
            H += self.hamiltonian
        H.setflags(write=False)
        return H

    @cached_property
    def _jumps(self):
        """Stacks (gamma_j L_j, L_j^dag) of shape (m, d, d), or None without jumps."""
        if len(self.dissipators) == 0:
            return None
        L = np.stack(self.dissipators.operators)
        return np.array(self.dissipators.rates)[:, None, None] * L, L.conj().transpose(0, 2, 1)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacked vector of a matrix."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def rhs(model: LindbladModel, rho) -> np.ndarray:
    """Generator applied to one state: -i(H_eff rho - rho H_eff^dag) + jump terms."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {m.shape} does not match model dimension {model.dim}")
    H = model.h_eff
    out = -1j * (H @ m - m @ dag(H))
    if model._jumps is not None:
        gL, Ld = model._jumps
        out += np.sum(gL @ m @ Ld, axis=0)
    return out


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """N^2 x N^2 matrix M with M vec(rho) = vec(rhs(rho)), columns stacked.

    M = -i (I kron H_eff - H_eff* kron I) + sum_j gamma_j L_j* kron L_j.
    """
    eye = np.eye(model.dim, dtype=complex)
    H = model.h_eff
    M = np.kron(eye, H)
    M -= np.kron(H.conj(), eye)
    M *= -1j
    for gamma, L in model.dissipators:
        M += np.kron(gamma * L.conj(), L)
    return M


@dataclass(eq=False)
class SteadyStateResult:
    """Null space of the vectorized generator plus a positive representative."""

    dimension: int
    state: DensityMatrix
    null_vectors: list
    basis_matrices: list


def steady_states(model: LindbladModel, tol: float = 1e-9) -> SteadyStateResult:
    """Null-space analysis of the Liouvillian.

    The representative state is the maximally mixed state projected onto the
    null space (orthogonal projection in the Hilbert-Schmidt inner product),
    hermitized and normalized; for a one-dimensional null space this is the
    unique steady state.
    """
    d = model.dim
    vecs = null_space(liouvillian_matrix(model), tol)
    if not vecs:
        raise RuntimeError("no null vector found; a Lindblad generator always has one")
    target = vec(np.eye(d, dtype=complex) / d)
    comp = np.zeros(d * d, dtype=complex)
    for b in vecs:
        comp += np.vdot(b, target) * b
    m = unvec(comp, d)
    m = (m + dag(m)) / 2.0
    tr = np.trace(m).real
    if abs(tr) < 1e-12:
        raise RuntimeError("projected representative has vanishing trace")
    state = DensityMatrix(m / tr)
    return SteadyStateResult(len(vecs), state, vecs, [unvec(b, d) for b in vecs])


@dataclass(eq=False)
class EvolutionRecord:
    """Sampled trajectory of a density matrix with per-step diagnostics."""

    times: np.ndarray
    states: np.ndarray  # (T, d, d)
    trace_errors: np.ndarray
    min_eigs: np.ndarray
    fidelities: np.ndarray | None = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def index_at(self, t: float) -> int:
        """Index of the sample closest to time t (must land within half a step)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        step = self.times[1] - self.times[0] if len(self.times) > 1 else 0.0
        if abs(self.times[idx] - t) > step / 2 + 1e-12:
            raise ValueError(f"no sample near t = {t}")
        return idx

    def to_csv(self, path) -> None:
        """Write t, fidelity, trace_error, purity, min_eig rows (15 significant digits)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,fidelity,trace_error,purity,min_eig\n")
            for i, t in enumerate(self.times):
                fid = self.fidelities[i] if self.fidelities is not None else math.nan
                row = (t, fid, self.trace_errors[i], purity(self.states[i]), self.min_eigs[i])
                fh.write(",".join(f"{x:.15g}" for x in row) + "\n")


def default_step(model: LindbladModel) -> float:
    """Default integrator step 0.01 / max rate."""
    rates = model.dissipators.rates
    return 0.01 / max(rates) if rates else 0.01


def integrate(
    model: LindbladModel,
    rho0,
    t_max: float,
    dt: float | None = None,
    target: PureState | None = None,
) -> EvolutionRecord:
    """Fixed-step classical RK4 integration of the master equation.

    After every step the trace drift is measured, then removed, and the
    state is re-hermitized; both corrections are at round-off level for a
    stable step. Drift above 1e-4 or negativity below -1e-4 aborts with
    IntegrationError.
    """
    rho = np.array(
        rho0.matrix if isinstance(rho0, DensityMatrix) else rho0, dtype=complex, copy=True
    )
    if rho.shape != (model.dim, model.dim):
        raise ValueError(f"initial state shape {rho.shape} does not match dimension {model.dim}")
    if dt is None:
        dt = default_step(model)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_max < dt:
        raise ValueError(f"t_max = {t_max} is below one step dt = {dt}")
    steps = int(math.ceil(t_max / dt - 1e-12))
    tvec = None
    if target is not None:
        tvec = target.amplitudes if isinstance(target, PureState) else np.asarray(target, complex)

    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, model.dim, model.dim), dtype=complex)
    trace_errors = np.empty(steps + 1)
    min_eigs = np.empty(steps + 1)
    fids = np.empty(steps + 1) if tvec is not None else None

    def record(i, drift):
        states[i] = rho
        trace_errors[i] = drift
        min_eigs[i] = np.linalg.eigvalsh(rho)[0].real
        if fids is not None:
            fids[i] = min(max(np.vdot(tvec, rho @ tvec).real, 0.0), 1.0)

    record(0, abs(np.trace(rho).real - 1.0))
    for step in range(1, steps + 1):
        k1 = rhs(model, rho)
        k2 = rhs(model, rho + 0.5 * dt * k1)
        k3 = rhs(model, rho + 0.5 * dt * k2)
        k4 = rhs(model, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = (rho + dag(rho)) / 2.0
        tr = np.trace(rho).real
        drift = abs(tr - 1.0)
        rho = rho / tr
        record(step, drift)
        if drift > 1e-4 or min_eigs[step] < -1e-4:
            raise IntegrationError(
                f"unstable step at t = {times[step]:.6g}: trace drift {drift:.3e}, "
                f"min eigenvalue {min_eigs[step]:.3e}; reduce dt"
            )
    return EvolutionRecord(times, states, trace_errors, min_eigs, fids)


def propagate_exact(model: LindbladModel, rho0, t: float) -> np.ndarray:
    """rho(t) by exponentiating the vectorized generator (integration cross-check)."""
    m = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    d = model.dim
    return unvec(matexp(t * liouvillian_matrix(model)) @ vec(m), d)


def time_to_fidelity(
    model: LindbladModel,
    rho0,
    target,
    threshold: float,
    t_max: float,
    dt: float | None = None,
) -> float:
    """First sampled time with fidelity(rho(t), target) >= threshold, else inf."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    record = integrate(model, rho0, t_max, dt=dt, target=target)
    hits = np.nonzero(record.fidelities >= threshold)[0]
    return float(record.times[hits[0]]) if hits.size else math.inf
