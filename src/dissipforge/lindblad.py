"""Lindblad generator assembly, master-equation integration, steady states.

The generator is d(rho)/dt = -i[H, rho] + sum_j gamma_j (L_j rho L_j^dag
- {L_j^dag L_j, rho} / 2). It is evaluated through the non-Hermitian
effective Hamiltonian H_eff = H - (i/2) sum_j gamma_j L_j^dag L_j as
d(rho)/dt = -i(H_eff rho - rho H_eff^dag) + sum_j gamma_j L_j rho L_j^dag;
the same H_eff gives the vectorized Liouvillian, and its multiple -i H_eff
(`LindbladModel.drift`, cached per model) the drift of the diffusion
trajectories in `qsd`. Density matrices are vectorized by stacking columns,
so vec(A X B) = (B^T kron A) vec(X).

One function, `_hermitian_rhs`, evaluates the generator, on a Hermitian rho.
There rho H_eff^dag = (H_eff rho)^dag, so the first term is A + A^dag with
A = (-i H_eff) rho: one d x d x d product per evaluation. The columns of
`_real_generator` are Hermitian and `integrate`'s RK4 stages Hermitian to
round-off (the rank-one and dense sandwiches are not exactly Hermitian); both
call it directly, and the kernel reads its input as Hermitian, which moves
a stage only at round-off. `rhs` takes any matrix: an exactly Hermitian one
goes straight to the kernel, any other is split as X + iY with X and Y
Hermitian and gives kernel(X) + i kernel(Y), since the generator is linear.

The jump terms come from the jump set's one factorization,
`DissipatorSet._jumps`; `dissipators._JumpFactors` describes its layout
(rank-one, shared-left-vector and dense jumps). `h_eff` and `_hermitian_rhs`
assemble the generator from its kernels `decay` and `add_sandwich`, and both
matrices below are read off the generator column by column, the Liouvillian
off `rhs` and the fallback's real matrix off `_hermitian_rhs`. The
certificate and `is_dark` apply jumps to vectors through the set's actions
L_j t and L_j^dag t, and the certificate screens its candidates with the
set's `screen`.

Both time-stepping routes, `integrate` here and the trajectory ensembles of
`qsd`, take step_count(t_max, dt) = ceil(t_max / dt) steps (with a relative
1e-12 of slack for round-off in the ratio), so they sample the same times and
end at or just after t_max.

Steady states come from a certificate when the model has a pure steady
state, and otherwise from the null space of the generator restricted to
Hermitian matrices. The certificate (Ticozzi & Viola, Automatica 45, 2002
(2009); the dark-state condition of Kraus et al., PRA 78, 042307 (2008))
looks among the eigenvectors of H_eff for the one |t> that every jump and
H_eff leave invariant and checks that the jumps drain its complement; it
costs O(d^3), see `steady_states`. The fallback works in the orthonormal
Hermitian basis E_aa, (E_ab + E_ba)/sqrt2 and i(E_ab - E_ba)/sqrt2 (a < b),
where the generator's matrix is real, with the singular values of the
complex Liouvillian, so one real SVD of size N^2 finds the null space and
each null vector is a Hermitian matrix. That fallback is refused above
MAX_DENSE_BYTES.
"""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .algebra import dag, null_space
from .dissipators import SCALE_LIMIT, DissipatorSet, _times_power_of_two
from .states import DensityMatrix, PureState, as_matrix, as_vector, fidelity, purity

NULL_TOL = 1e-9  # relative singular-value cut of steady_states
CERT_TOL = 1e-12  # relative invariance residual accepted by the certificate
CERT_MARGIN = 1e-6  # relative decay rate the certificate requires of the complement

# Cap on the largest dense array of one run (1 GiB): the steady-state
# fallback's real d^2 x d^2 matrix and singular vectors, 16 d^4 bytes, up to 6
# qubits, and the bound of the CLI's size estimates.
MAX_DENSE_BYTES = 1 << 30


class ContractError(RuntimeError):
    """A numerical contract failed during a run (CLI exit code 3)."""


class IntegrationError(ContractError):
    """Step-size instability detected during time integration."""


class SizeLimitError(ContractError):
    """A dense route would allocate more than MAX_DENSE_BYTES."""


class SteadyStateError(ContractError):
    """The steady-state fallback found no valid density-matrix representative."""


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Jump operators with rates, plus an optional Hamiltonian."""

    dissipators: DissipatorSet
    hamiltonian: np.ndarray | None = None
    dim: int = field(init=False, repr=False)

    def __post_init__(self):
        H = self.hamiltonian
        if H is not None:
            H = np.asarray(H, dtype=complex).copy()
            if H.ndim != 2 or H.shape[0] != H.shape[1] or not H.size:
                raise ValueError(f"Hamiltonian must be square and non-empty, got shape {H.shape}")
            if not np.all(np.isfinite(H)):  # NaN would pass the Hermiticity test below
                raise ValueError("Hamiltonian entries must be finite")
            if np.max(np.abs(H - H.conj().T)) > 1e-12:
                raise ValueError("Hamiltonian is not Hermitian to 1e-12")
            if self.dissipators.dim is not None and H.shape[0] != self.dissipators.dim:
                raise ValueError("Hamiltonian and jump operators act on different dimensions")
            H.setflags(write=False)
            object.__setattr__(self, "hamiltonian", H)
        elif self.dissipators.dim is None:
            raise ValueError("model needs a Hamiltonian or at least one jump operator")
        dim = self.dissipators.dim
        object.__setattr__(self, "dim", H.shape[0] if dim is None else dim)

    @cached_property
    def h_eff(self) -> np.ndarray:
        """Read-only H - (i/2) sum_j gamma_j L_j^dag L_j, built on first use."""
        H = -0.5j * self.dissipators._jumps.decay(self.dim)
        if self.hamiltonian is not None:
            H += self.hamiltonian
        H.setflags(write=False)
        return H

    @cached_property
    def drift(self) -> np.ndarray:
        """Read-only -i H_eff, built on first use: the no-jump part of the generator
        and the drift of the trajectories in `qsd`."""
        D = -1j * self.h_eff
        D.setflags(write=False)
        return D


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacked vector of a matrix."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def _hermitian_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """The generator on a Hermitian rho: A + A^dag with A = (-i H_eff) rho, plus
    the jump sandwich. The one place the generator is evaluated."""
    A = model.drift @ rho
    out = A + dag(A)
    model.dissipators._jumps.add_sandwich(rho, out)
    return out


def rhs(model: LindbladModel, rho) -> np.ndarray:
    """Generator applied to one matrix: -i(H_eff rho - rho H_eff^dag) + jump terms.

    An exactly Hermitian rho goes to `_hermitian_rhs`. Any other rho, NaN
    entries included, is split as X + iY with X = (rho + rho^dag)/2 and
    Y = (rho - rho^dag)/2i, both Hermitian, and gives
    _hermitian_rhs(X) + i _hermitian_rhs(Y).
    """
    m = as_matrix(rho)
    if m.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {m.shape} does not match model dimension {model.dim}")
    md = dag(m)
    if np.array_equal(m, md):
        return _hermitian_rhs(model, m)
    return _hermitian_rhs(model, (m + md) / 2.0) + 1j * _hermitian_rhs(model, (m - md) * -0.5j)


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """N^2 x N^2 matrix M with M vec(rho) = vec(rhs(rho)), columns stacked.

    M = -i (I kron H_eff - H_eff* kron I) + sum_j gamma_j L_j* kron L_j; its
    column a + b N is vec(rhs(E_ab)) for the matrix unit E_ab.
    """
    d = model.dim
    M = np.empty((d * d, d * d), dtype=complex)
    for k in range(d * d):
        E = np.zeros((d, d), dtype=complex)
        E[k % d, k // d] = 1.0
        M[:, k] = vec(rhs(model, E))
    return M


@dataclass(eq=False)
class SteadyStateResult:
    """Null space of the generator plus a positive representative.

    basis_matrices are Hermitian and orthonormal in the Hilbert-Schmidt inner
    product. route names what decided the result: "certificate" or "svd".
    """

    dimension: int
    state: DensityMatrix
    basis_matrices: list
    route: str

    @property
    def null_vectors(self) -> list:
        """The column-stacked vec forms of basis_matrices."""
        return [vec(b) for b in self.basis_matrices]


@cache
def _hermitian_basis_indices(d: int):
    """vec positions of the diagonal, of (a, b) and of (b, a), a < b, read-only.

    They index the orthonormal Hermitian basis E_aa, (E_ab + E_ba)/sqrt2,
    i(E_ab - E_ba)/sqrt2, in that order of blocks.
    """
    a, b = np.triu_indices(d, 1)
    out = np.arange(d) * (d + 1), a + b * d, b + a * d
    for idx in out:
        idx.setflags(write=False)
    return out


def _hermitian_matrix(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrix with real coordinates x in the Hermitian basis."""
    diag, upper, lower = _hermitian_basis_indices(d)
    p = d + len(upper)
    v = np.empty(d * d, dtype=complex)
    v[diag] = x[:d]
    v[upper] = (x[d:p] + 1j * x[p:]) / math.sqrt(2.0)
    v[lower] = v[upper].conj()
    return unvec(v, d)


def _real_generator(model: LindbladModel) -> np.ndarray:
    """Real d^2 x d^2 matrix of the generator in the orthonormal Hermitian basis:
    column k holds the coordinates of the Hermitian rhs(B_k), B_k =
    _hermitian_matrix(e_k, d), read from its diagonal and upper entries."""
    d = model.dim
    diag, upper, _ = _hermitian_basis_indices(d)
    columns = np.empty((d * d, d * d))  # filled as rows, which are contiguous
    for k in range(d * d):
        e = np.zeros(d * d)
        e[k] = 1.0
        v = vec(_hermitian_rhs(model, _hermitian_matrix(e, d)))
        up = math.sqrt(2.0) * v[upper]
        columns[k] = np.concatenate((v[diag].real, up.real, up.imag))
    return columns.T


def _invariant_eigenvectors(H: np.ndarray, jumps, scale: float) -> list:
    """The eigenvectors t of H = H_eff that H_eff and every jump of the set's
    `_jumps` leave invariant, as `steady_states` describes; `scale` is ||H_eff||_F.
    `jumps.screen` drops candidates in one pass and `invariant(t)` decides the rest."""
    T = np.linalg.eig(H)[1]
    bound = CERT_TOL * np.concatenate(([scale], jumps.norms))
    keep = jumps.screen(T, bound[1:])

    def invariant(t):
        # the parts of H_eff t and of every L_j t off t
        X = np.column_stack((H @ t, jumps.apply(t)))
        off = X - np.outer(t, t.conj() @ X)
        return np.all(np.linalg.norm(off, axis=0) <= bound)

    return [t for t, ok in zip(T.T, keep) if ok and invariant(t)]


def _certified_state(model: LindbladModel) -> np.ndarray | None:
    """The unit |t> of the certificate described in `steady_states`, or None."""
    H = model.h_eff
    jumps = model.dissipators._jumps
    scale = np.linalg.norm(H)
    found = _invariant_eigenvectors(H, jumps, scale)
    if len(found) != 1:
        return None
    t = found[0] / np.linalg.norm(found[0])
    # W = sum_j gamma_j Q L_j^dag |t><t| L_j Q, from the columns Q L_j^dag t
    X = jumps.apply_dag(t)
    QX = X - np.outer(t, t.conj() @ X)
    W = (QX * jumps.rates) @ dag(QX)
    # Q W Q maps t to 0, so the lowest eigenvalue is t's and the rest are W's on Q
    lam = np.linalg.eigvalsh((W + dag(W)) / 2.0)
    return t if np.all(lam[1:] > CERT_MARGIN * scale) else None


def _unit_scaled(model: LindbladModel) -> LindbladModel:
    """model itself when no operator is rescaled (`DissipatorSet._rescaled`) and
    every term gamma_j max|L_j|^2 of a nonzero L_j, and max|H|, lies within
    SCALE_LIMIT of 1; otherwise the generator over a power of two 2^s near its
    largest term: the `_rescaled` set (or the set) at rates gamma_j 2^(2 k_j - s),
    but a zero operator, which adds nothing at any rate, keeps its own. Only
    binary exponents are compared, so no product overflows; ldexp is exact."""
    limit = math.frexp(SCALE_LIMIT)[1]
    ds = model.dissipators
    unit, ks = ds._rescaled or (ds, (0,) * len(ds))
    terms = [math.frexp(g)[1] + 2 * math.frexp(top)[1] for g, top in zip(ds.rates, ds.peaks) if top]
    H = model.hamiltonian
    if H is not None and np.any(H):
        terms.append(math.frexp(np.max(np.abs(H)))[1])
    if unit is ds and all(abs(t) <= limit for t in terms):
        return model
    s = max(terms)
    rates = [math.ldexp(g, 2 * k - s) if top else g for g, top, k in zip(ds.rates, ds.peaks, ks)]
    if 0.0 in rates:
        raise SteadyStateError(f"generator terms span 2^{min(terms)} to 2^{s}, too wide to rescale")
    unit._jumps  # factored once, here, and carried to the rescaled model
    return LindbladModel(unit._with_rates(rates), None if H is None else _times_power_of_two(H, -s))


def steady_states(model: LindbladModel) -> SteadyStateResult:
    """Null space of the generator, with a positive representative.

    Certificate route. Every pure steady state |t> is an eigenvector of
    H_eff, so the candidates are the eigenvectors of one `eig(H_eff)`. With
    P = |t><t| and Q = I - P, a candidate is kept when L_j|t> is parallel to
    |t> for every jump and Q H_eff |t> = 0, each to CERT_TOL relative to the
    norm of L_j and of H_eff. The rank-one jumps L_j = u_j v_j^dag first
    screen every candidate in one array pass: the products U^dag T and
    V^dag T, T the eigenvectors, give for each pair (j, t) the lower bound
    |v_j^dag t| sqrt(max(||u_j||^2 - |t^dag u_j|^2 - slack_j, 0)) on the part
    of L_j t off t, where slack_j covers the rounding of both products and
    of the per-candidate test, plus | ||t|| - 1 | (see `_JumpFactors.screen`
    in `dissipators`). A candidate whose bound exceeds the tolerance for some
    j is dropped; the exact per-candidate test decides the survivors, so the
    screen changes no result. On the synthesized sets only the target
    survives it. When exactly one candidate is kept and
    W = sum_j gamma_j Q L_j^dag P L_j Q has every eigenvalue on the range of
    Q above CERT_MARGIN ||H_eff||_F, the null space is spanned by P:

    - Q L_j P = 0 and Q H_eff P = 0, so Q L_j = Q L_j Q and Q H_eff = Q H_eff Q
      and the block Q rho Q obeys a Lindblad-type equation of its own, with
      H_eff -> Q H_eff Q and L_j -> Q L_j Q.
    - Its trace obeys d/dt Tr(Q rho) = -Tr(W Q rho Q) <= -lambda_min(W) Tr(Q rho),
      so Tr(Q rho(t)) decays at least as fast as exp(-lambda_min(W) t), and
      by positivity the coherences P rho Q as well: every state converges to P.
    - Every matrix is a combination of states, so exp(t G) X -> Tr(X) P for
      the generator G; a null vector X is fixed by exp(t G) and so equals
      Tr(X) P. The kernel is one-dimensional.

    The result is then P itself, hermitized, as state, basis matrix and
    (vec) null vector, with route "certificate".

    SVD route, taken otherwise. A Lindblad generator maps Hermitian matrices
    to Hermitian matrices, so in an orthonormal Hermitian basis its matrix,
    read off `rhs`, is real and has the singular values of the complex
    Liouvillian; the null space comes from the SVD of that real matrix. The
    representative state is the maximally mixed state projected onto the
    null space (orthogonal projection in the Hilbert-Schmidt inner product)
    and normalized; for a one-dimensional null space this is the unique
    steady state. A singular value counts as zero at most NULL_TOL times the
    largest. When that matrix and its singular vectors, 16 d^4 bytes, would
    exceed MAX_DENSE_BYTES, SizeLimitError is raised before anything is
    allocated. A representative that is not a density matrix, as when rates
    spread so widely that the null space is resolved only to about
    eps / sigma_2 and its minimum eigenvalue falls below -1e-10, raises
    SteadyStateError naming that eigenvalue. Both routes run on
    `_unit_scaled(model)`, so neither the rates' nor the operators' scale
    matters; out-of-window operators come from the set's `_rescaled` set,
    whose factors `is_dark` shares.
    """
    model = _unit_scaled(model)
    t = _certified_state(model)
    if t is not None:
        p = np.outer(t, t.conj())
        p = (p + dag(p)) / 2.0
        return SteadyStateResult(1, DensityMatrix(p), [p], "certificate")
    d = model.dim
    if 16 * d**4 > MAX_DENSE_BYTES:
        raise SizeLimitError(
            f"no pure steady state certified, and the dense fallback's {16 * d**4 / 2**30:g} GiB "
            f"real matrix and singular vectors exceed the {MAX_DENSE_BYTES / 2**30:g} GiB limit"
        )
    xs = null_space(_real_generator(model), NULL_TOL)
    if not xs:
        raise SteadyStateError("no null vector found; a Lindblad generator always has one")
    X = np.array(xs)
    # <B_k, I/d> = Tr(B_k)/d, the sum of B_k's diagonal coordinates over d
    m = _hermitian_matrix((X[:, :d].sum(axis=1) / d) @ X, d)
    tr = np.trace(m).real
    if abs(tr) < 1e-12:
        raise SteadyStateError("projected representative has vanishing trace")
    try:
        state = DensityMatrix(m / tr)
    except ValueError as exc:  # round-off of an ill-conditioned null space
        raise SteadyStateError(f"steady-state representative is not a state: {exc}") from None
    return SteadyStateResult(len(xs), state, [_hermitian_matrix(x, d) for x in xs], "svd")


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
        if not abs(self.times[idx] - t) <= step / 2 + 1e-12:  # NaN fails too
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


def step_count(t_max: float, dt: float) -> int:
    """Steps of size dt from 0 to t_max, ceil(t_max / dt): the last sample lies at
    or after t_max. The ratio is first shrunk by a relative 1e-12, which absorbs
    its round-off at any size, so an exact multiple k dt takes k steps. Shared by
    integrate and the trajectory ensembles of `qsd`, so both sample the same times."""
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValueError(f"t_max and dt must be finite, got t_max = {t_max}, dt = {dt}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_max < dt:
        raise ValueError(f"t_max = {t_max} is below one step dt = {dt}")
    return int(math.ceil(t_max / dt * (1.0 - 1e-12)))


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

    Samples k dt for k = 0..step_count(t_max, dt). After every step the trace
    drift is measured, then removed, and the state is re-hermitized; both
    corrections are at round-off level for a stable step. Drift above 1e-4,
    negativity below -1e-4 or a non-finite entry aborts with IntegrationError.
    A non-finite entry of rho0 or target raises ValueError, before any step.
    rho0 is hermitized once, (rho0 + rho0^dag)/2, which leaves an exactly
    Hermitian rho0 bit for bit, so every RK4 stage is Hermitian to round-off
    and goes to `_hermitian_rhs`, which reads it as Hermitian.
    """
    rho = as_matrix(rho0)
    if rho.shape != (model.dim, model.dim):
        raise ValueError(f"initial state shape {rho.shape} does not match dimension {model.dim}")
    tvec = None if target is None else as_vector(target)
    if not (np.all(np.isfinite(rho)) and (tvec is None or np.all(np.isfinite(tvec)))):
        raise ValueError("initial state and target entries must be finite")
    rho = (rho + dag(rho)) / 2.0
    if dt is None:
        dt = default_step(model)
    steps = step_count(t_max, dt)

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
            fids[i] = fidelity(rho, tvec)

    record(0, abs(np.trace(rho).real - 1.0))
    # an overflowing step is reported by the non-finite check below, not by a
    # numpy warning that escapes as an exception under error::RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, steps + 1):
            k1 = _hermitian_rhs(model, rho)
            k2 = _hermitian_rhs(model, rho + 0.5 * dt * k1)
            k3 = _hermitian_rhs(model, rho + 0.5 * dt * k2)
            k4 = _hermitian_rhs(model, rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = (rho + dag(rho)) / 2.0
            tr = np.trace(rho).real
            drift = abs(tr - 1.0)
            rho = rho / tr
            if not np.isfinite(rho).all():
                raise IntegrationError(
                    f"state became non-finite at t = {times[step]:.6g}; reduce dt")
            record(step, drift)
            if drift > 1e-4 or min_eigs[step] < -1e-4:
                raise IntegrationError(
                    f"unstable step at t = {times[step]:.6g}: trace drift {drift:.3e}, "
                    f"min eigenvalue {min_eigs[step]:.3e}; reduce dt"
                )
    return EvolutionRecord(times, states, trace_errors, min_eigs, fids)


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
