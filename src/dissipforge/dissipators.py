"""Synthesis of jump operators whose joint dark space is a chosen target.

Two constructions are provided. The subspace route emits one operator
|phi_j><j| per level outside the protected block, draining that level into
the block. The single-operator route couples the target to every other
frame vector at once, which pins the steady state to one pure state as long
as every coefficient is nonzero.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .algebra import PauliSum, complex_pairs, dag
from .states import as_vector

SCALE_LIMIT = 1e100  # is_dark and steady_states rescale an operator (or term) beyond this


@dataclass(frozen=True, eq=False)
class SynthesisSpec:
    """Frame and coefficients defining a dark-space synthesis problem.

    The columns of `basis` list the working frame |1>..|N>; the first k
    columns span the protected block. Row j-k-1 of `coeffs` holds the
    block components of |phi_j>, the vector level j decays into (it need
    not be normalized).
    """

    dim: int
    k: int
    coeffs: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.k < self.dim:
            raise ValueError(f"need 1 <= k < N, got k={self.k}, N={self.dim}")
        if self.basis is None:
            basis = np.eye(self.dim, dtype=complex)
        else:
            basis = np.array(self.basis, dtype=complex)
            if basis.shape != (self.dim, self.dim):
                raise ValueError(f"basis shape {basis.shape} is not ({self.dim}, {self.dim})")
            if not np.max(np.abs(dag(basis) @ basis - np.eye(self.dim))) <= 1e-12:  # NaN fails
                raise ValueError("basis is not unitary to 1e-12")
        coeffs = np.asarray(self.coeffs, dtype=complex).copy()
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.shape != (self.dim - self.k, self.k):
            raise ValueError(
                f"coeffs shape {coeffs.shape} is not ({self.dim - self.k}, {self.k})"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        rows = np.linalg.norm(coeffs, axis=1)
        if np.any(rows == 0):
            dead = int(np.nonzero(rows == 0)[0][0]) + self.k + 1
            raise ValueError(f"coefficient row for level {dead} is all zero; it would never decay")
        basis.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", coeffs)


def _frozen(op) -> np.ndarray:
    """op as a read-only complex array that owns its data.

    Such an array is kept as it is, so a set built from another set's
    operators (a synthesized set, the `_rescaled` set) holds one copy of each;
    anything else is copied.
    """
    if (isinstance(op, np.ndarray) and op.dtype == complex
            and op.flags.owndata and not op.flags.writeable):
        return op
    op = np.array(op, dtype=complex)
    op.setflags(write=False)
    return op


def _times_power_of_two(x: np.ndarray, k: int) -> np.ndarray:
    """x 2^k for a complex array, exact while its entries stay normal floats."""
    return np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)


def _rate(gamma) -> float:
    gamma = float(gamma)
    if not 0 < gamma < np.inf:  # NaN fails both comparisons
        raise ValueError(f"decay rates must be positive and finite, got {gamma}")
    return gamma


def _rank_one(L: np.ndarray, peak: float):
    """(u, v) with L = u v^dag to round-off, or None, in O(d^2) without an SVD.

    u is the column of largest norm and v = L^dag u / ||u||^2; a rank-one L
    is reproduced by u v^dag exactly up to rounding, any other L is not.
    peak is max|L|, which sets the tolerance.
    """
    norms = np.sum(np.abs(L) ** 2, axis=0)
    k = int(np.argmax(norms))
    if norms[k] == 0.0:
        return None
    u = L[:, k]
    v = (dag(L) @ u) / norms[k]
    tol = 8 * L.shape[0] * np.finfo(float).eps * peak
    if not np.max(np.abs(L - np.outer(u, v.conj()))) <= tol:  # NaN from an overflow fails too
        return None
    return u, v


@dataclass(frozen=True, eq=False)
class _JumpFactors:
    """A jump set grouped by structure; this class alone reads the layout.

    Rank-one jumps L_j = u_j v_j^dag are columns of U and V (d, m1), with
    U^dag precomputed. Every other jump is kept in the stack Ld = L_j^dag of
    shape (m2, d, d). An empty group is None. `order` holds each jump's index
    in the set. Only `rates` and the products gVc = gamma_j conj(V) and
    gL = gamma_j L_j (built on first use) depend on the rates, so
    `with_rates` shares everything else.

    Interface: `rates` and `norms` (Frobenius), rank-one jumps first, in the
    column order of the actions `apply` (L_j t) and `apply_dag` (L_j^dag t);
    the generator's jump terms `decay` and `add_sandwich`; the certificate's
    `screen`; `factors`, (U, V) when every jump is rank one and None
    otherwise, the path rule of `qsd.ensemble_average`; and `with_rates`.
    """

    rates: np.ndarray
    norms: np.ndarray
    order: np.ndarray  # the set's item index of each jump
    U: np.ndarray | None = None
    Ud: np.ndarray | None = None
    V: np.ndarray | None = None
    Ld: np.ndarray | None = None

    @cached_property
    def gVc(self) -> np.ndarray | None:
        return None if self.U is None else self.rates[: self.U.shape[1]] * self.V.conj()

    @cached_property
    def gL(self) -> np.ndarray | None:
        if self.Ld is None:
            return None
        return self.rates[-len(self.Ld):, None, None] * self.Ld.conj().transpose(0, 2, 1)

    def with_rates(self, rates) -> "_JumpFactors":
        """The same factors at new rates, given in the set's item order."""
        return replace(self, rates=np.array(rates)[self.order])

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        return None if self.U is None or self.Ld is not None else (self.U, self.V)

    def apply(self, t: np.ndarray) -> np.ndarray:
        """The columns L_j t, (d, m)."""
        cols = [np.empty((t.size, 0), dtype=complex)]
        if self.U is not None:
            cols.append(self.U * np.conj(t.conj() @ self.V))
        if self.Ld is not None:
            cols.append(np.conj(t.conj() @ self.Ld).T)
        return np.hstack(cols)

    def apply_dag(self, t: np.ndarray) -> np.ndarray:
        """The columns L_j^dag t, (d, m)."""
        cols = [np.empty((t.size, 0), dtype=complex)]
        if self.U is not None:
            cols.append(self.V * (self.Ud @ t))
        if self.Ld is not None:
            cols.append((self.Ld @ t).T)
        return np.hstack(cols)

    def decay(self, d: int) -> np.ndarray:
        """sum_j gamma_j L_j^dag L_j, (d, d), the jump part of H_eff."""
        K = np.zeros((d, d), dtype=complex)
        if self.U is not None:
            weights = self.rates[: self.U.shape[1]] * np.sum(np.abs(self.U) ** 2, axis=0)
            K += (self.V * weights) @ dag(self.V)
        if self.gL is not None:
            K += np.sum(self.Ld @ self.gL, axis=0)
        return K

    def add_sandwich(self, rho: np.ndarray, out: np.ndarray) -> None:
        """Add sum_j gamma_j L_j rho L_j^dag, the jump term of rhs, to out."""
        if self.U is not None:
            c = (self.gVc * (rho @ self.V)).sum(axis=0)
            out += (self.U * c) @ self.Ud
        if self.gL is not None:
            out += (self.gL @ rho @ self.Ld).sum(axis=0)

    def screen(self, T: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Mask of the columns t of T that `invariant(t)` in `lindblad._invariant_eigenvectors`
        may accept, from the products U^dag T and V^dag T; bounds holds that test's
        bound for every jump. With no rank-one jump every column is kept.

        The part of L_j t = u_j (v_j^dag t) off t has norm |v_j^dag t| ||u_j - t
        t^dag u_j||, and ||u_j - t t^dag u_j||^2 = ||u_j||^2 - (2 - ||t||^2)
        |t^dag u_j|^2. An entry of either product, a sum of d complex terms, is
        off by at most e ||x|| ||t|| (x = u_j or v_j), e = 2 (d + 2) eps, four
        times Higham's gamma_{d+2}. The per-candidate test rounds v_j^dag t and
        t^dag L_j t as much, and its other roundings (L_j t = u_j (v_j^dag t)
        first, the subtraction, the norm) add at most 8 eps + (d + 1) eps <= 1.5 e
        of ||u_j|| |v_j^dag t|. So |v_j^dag t| is lowered by 3 e ||v_j|| ||t|| and
        ||u_j||^2 - |t^dag u_j|^2 by slack_j = (8 e + 3 | ||t|| - 1 |) ||u_j||^2,
        of which the rounding needs about 7 e (eig's columns have unit norm to
        rounding): a column whose lower bound exceeds its bound for some j fails
        the test as computed too, so dropping it changes no result.
        """
        if self.U is None:
            return np.ones(T.shape[1], dtype=bool)
        e = 2 * (T.shape[0] + 2) * np.finfo(float).eps
        n = np.linalg.norm(T, axis=0)
        uu = np.linalg.norm(self.U, axis=0)[:, None] ** 2
        slack = (8 * e + 3 * np.abs(n - 1.0)) * uu
        off_u = np.sqrt(np.maximum(uu - np.abs(self.Ud @ T) ** 2 - slack, 0.0))
        v_norm = np.linalg.norm(self.V, axis=0)
        vt = np.maximum(np.abs(dag(self.V) @ T) - 3 * e * v_norm[:, None] * n, 0.0)
        return ~np.any(vt * off_u > bounds[: self.U.shape[1], None], axis=0)


@dataclass(frozen=True, eq=False)
class DissipatorSet:
    """Ordered collection of (decay rate, jump operator) pairs."""

    items: tuple  # of (gamma, operator)
    peaks: tuple = field(init=False)  # largest |entry| of each operator

    def __post_init__(self):
        norm, peaks = [], []
        dim = None
        for gamma, op in self.items:
            gamma = _rate(gamma)
            op = _frozen(op)
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValueError(f"jump operator must be square, got shape {op.shape}")
            if dim is None:
                dim = op.shape[0]
            elif op.shape[0] != dim:
                raise ValueError("jump operators act on different dimensions")
            peaks.append(float(np.max(np.abs(op))))
            if not np.isfinite(peaks[-1]):  # an inf or NaN entry
                raise ValueError(f"jump operator entries must be finite, got {peaks[-1]}")
            norm.append((gamma, op))
        object.__setattr__(self, "items", tuple(norm))
        object.__setattr__(self, "peaks", tuple(peaks))

    @property
    def dim(self) -> int | None:
        return self.items[0][1].shape[0] if self.items else None

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(g for g, _ in self.items)

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(op for _, op in self.items)

    @cached_property
    def _jumps(self) -> _JumpFactors:
        """The set split into rank-one factors and dense stacks, built on first use
        and shared by every model over the set and by `is_dark`."""
        uvs = [_rank_one(L, peak) for L, peak in zip(self.operators, self.peaks)]
        order = np.argsort([uv is None for uv in uvs], kind="stable")  # rank one first
        rank_one = [uvs[i] for i in order if uvs[i] is not None]
        dense = [self.items[i][1] for i in order if uvs[i] is None]
        norms, fields = [np.empty(0)], {}
        if rank_one:
            us, vs = zip(*rank_one)
            U, V = np.column_stack(us), np.column_stack(vs)
            fields.update(U=U, Ud=dag(U), V=V)
            norms.append(np.linalg.norm(U, axis=0) * np.linalg.norm(V, axis=0))
        if dense:
            L = np.stack(dense)
            fields.update(Ld=L.conj().transpose(0, 2, 1))
            norms.append(np.linalg.norm(L, axis=(1, 2)))
        return _JumpFactors(np.array(self.rates)[order], np.concatenate(norms), order, **fields)

    @cached_property
    def _rescaled(self) -> tuple["DissipatorSet", tuple[int, ...]] | None:
        """(set, ks) built on first use, or None when every ks[j] is 0: ks[j] is the
        binary exponent of operator j's largest entry (`peaks`) beyond SCALE_LIMIT
        of 1, else 0, and set holds operator j over 2^ks[j] at its rate, sharing the
        rest. `is_dark` and `lindblad._unit_scaled` share it and its `_jumps`."""
        limit = math.frexp(SCALE_LIMIT)[1]
        ks = tuple(e if abs(e) > limit else 0 for e in (math.frexp(p)[1] for p in self.peaks))
        if not any(ks):
            return None  # not self: a cached self-reference would keep the set alive in a cycle
        ops = (_times_power_of_two(L, -k) if k else L for (_, L), k in zip(self.items, ks))
        return DissipatorSet(tuple(zip(self.rates, ops))), ks

    def scaled(self, factor: float) -> "DissipatorSet":
        """Same operators with every rate multiplied by factor."""
        return self._with_rates(g * factor for g, _ in self.items)

    def _with_rates(self, rates) -> "DissipatorSet":
        """Same operators at new rates, one per operator and checked as the
        constructor checks them. The operators, their `peaks` and, once built,
        their factors `_jumps` are carried over, so no operator is scanned or
        factored again."""
        items = tuple((_rate(g), op) for g, (_, op) in zip(rates, self.items, strict=True))
        out = object.__new__(DissipatorSet)
        object.__setattr__(out, "items", items)
        object.__setattr__(out, "peaks", self.peaks)
        if "_jumps" in self.__dict__:
            out.__dict__["_jumps"] = self._jumps.with_rates(out.rates)
        return out

    def to_json_obj(self) -> list:
        return [{"gamma": gamma, "matrix": complex_pairs(op)} for gamma, op in self.items]

    @classmethod
    def from_json_obj(cls, obj) -> "DissipatorSet":
        items = []
        for entry in obj:
            flat = np.array([complex(re, im) for re, im in entry["matrix"]])
            d = int(round(np.sqrt(flat.size)))
            items.append((float(entry["gamma"]), flat.reshape(d, d)))
        return cls(tuple(items))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def synth_subspace(spec: SynthesisSpec) -> DissipatorSet:
    """One jump operator |phi_j><j| per level outside the protected block.

    Every operator annihilates the block, so any state supported there is
    stationary; populations and coherences involving the outside levels
    decay. All rates default to 1.
    """
    block = spec.basis[:, : spec.k]
    ops = []
    for row in range(spec.dim - spec.k):
        phi = block @ spec.coeffs[row]
        bra = spec.basis[:, spec.k + row].conj()
        L = np.outer(phi, bra)
        L.setflags(write=False)  # kept, not copied, by DissipatorSet
        ops.append((1.0, L))
    return DissipatorSet(tuple(ops))


def synth_single(spec: SynthesisSpec) -> DissipatorSet:
    """Single jump operator |phi_0>(sum_b a_b <phi_b|), |phi_b> the columns of spec.basis.

    Requires k = 1 with every coefficient nonzero. The operator annihilates
    |phi_0> and drains every diagonal population into it, but on its own it
    also leaves the (N-2)-dimensional slice of the complement orthogonal to
    the coefficient vector dark, so the generator kernel has dimension
    (N-1)^2. Pair it with splitting_hamiltonian to lift that degeneracy; the
    unique steady state is then the pure |phi_0>.
    """
    if spec.k != 1:
        raise ValueError(f"single-operator synthesis needs k = 1, got k = {spec.k}")
    if np.any(spec.coeffs == 0):
        raise ValueError("all coefficients must be nonzero or the steady state is not unique")
    phi0 = spec.basis[:, 0]
    bra = spec.basis[:, 1:].conj() @ spec.coeffs[:, 0]
    return DissipatorSet(((1.0, np.outer(phi0, bra)),))


def splitting_hamiltonian(spec: SynthesisSpec, energies=None) -> np.ndarray:
    """Hamiltonian with the columns of spec.basis as nondegenerate eigenstates.

    Coherences among the extra dark directions of a single synthesized
    operator are stationary by themselves; distinct energies on the frame
    vectors make them rotate, leaving the target as the unique steady
    state. Energies default to 0, 1, ..., N-1.
    """
    if energies is None:
        energies = np.arange(spec.dim, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (spec.dim,):
        raise ValueError(f"need {spec.dim} energies, got shape {energies.shape}")
    if np.unique(energies).size != spec.dim:
        raise ValueError("energies must be pairwise distinct to split the frame")
    H = spec.basis @ np.diag(energies).astype(complex) @ dag(spec.basis)
    return (H + dag(H)) / 2.0


def orthonormal_frame(target) -> np.ndarray:
    """Unitary whose first column is `target`, completed by orthogonalization.

    The remaining columns come from computational basis seeds, skipping the
    seed that overlaps `target` most strongly (lowest index on ties), in one
    QR factorization whose columns are phased so that R has a positive
    diagonal: the frame Gram-Schmidt would give on the same seeds.
    """
    v = as_vector(target)
    v = v / np.linalg.norm(v)
    drop = int(np.argmax(np.abs(v)))
    seeds = np.delete(np.eye(v.size, dtype=complex), drop, axis=1)
    Q, R = np.linalg.qr(np.column_stack((v, seeds)))
    r = np.diag(R)
    if not np.all(np.abs(r) >= 1e-12):  # a zero or non-finite target included
        raise ValueError("basis seed collapsed during orthogonalization")
    return Q * (r / np.abs(r))


def preset_lfor2() -> DissipatorSet:
    """Stock two-qubit jump operators with joint dark state (|00>+|11>)/sqrt(2).

    L1 = i(X1 Y2 + Y1 X2) - (Z1 + Z2)
    L2 = i(Z1 Y2 + Y1 Z2) + (X1 + X2)
    L3 = (Z1 X2 - X1 Z2) - i(Y1 - Y2)

    Each is rank one with left vector the Bell state, so together they drain
    the full orthogonal complement. All rates are 1; the operators are not
    normalized (their scale folds into the rate).
    """
    combos = (
        ((1j, "XY"), (1j, "YX"), (-1, "ZI"), (-1, "IZ")),
        ((1j, "ZY"), (1j, "YZ"), (1, "XI"), (1, "IX")),
        ((1, "ZX"), (-1, "XZ"), (-1j, "YI"), (1j, "IY")),
    )
    ops = tuple((1.0, PauliSum.from_terms(2, terms).dense()) for terms in combos)
    return DissipatorSet(ops)


def is_dark(ds: DissipatorSet, phi) -> bool:
    """True when every jump operator annihilates |phi>: ||L phi|| <= 1e-10 ||L||_F ||phi||.

    L_j phi comes from the factorization (`_jumps`) of the set's `_rescaled`
    set, or of the set itself when no operator is rescaled, after |phi> is
    divided by a power of two near its largest entry. Both scalings are exact
    and the bound is relative, so no norm overflows or underflows and
    rescaling changes no answer. A state with a non-finite entry raises ValueError.
    """
    v = as_vector(phi)
    if ds.dim is not None and ds.dim != v.size:
        raise ValueError(f"dimension mismatch: operators on {ds.dim}, state on {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state entries must be finite")
    v = _times_power_of_two(v, -math.frexp(np.max(np.abs(v), initial=0.0))[1])
    jumps = (ds._rescaled or (ds,))[0]._jumps
    residuals = np.linalg.norm(jumps.apply(v), axis=0)
    return bool(np.all(residuals <= 1e-10 * jumps.norms * np.linalg.norm(v)))
