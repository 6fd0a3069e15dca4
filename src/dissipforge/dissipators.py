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

from .algebra import (
    PauliSum, _frozen, _integer, _operator, _positive, _rank_one, _real, _times_power_of_two,
    complex_pairs, dag,
)
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
        for name in ("dim", "k"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not 1 <= self.k < self.dim:
            raise ValueError(f"need 1 <= k < N, got k={self.k}, N={self.dim}")
        if self.basis is None:
            basis = _frozen(np.eye(self.dim))
        else:
            basis = _frozen(self.basis)
            if basis.shape != (self.dim, self.dim):
                raise ValueError(f"basis shape {basis.shape} is not ({self.dim}, {self.dim})")
            if not np.max(np.abs(dag(basis) @ basis - np.eye(self.dim))) <= 1e-12:  # NaN fails
                raise ValueError("basis is not unitary to 1e-12")
        coeffs = _frozen(self.coeffs)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.shape != (self.dim - self.k, self.k):
            raise ValueError(
                f"coeffs shape {coeffs.shape} is not ({self.dim - self.k}, {self.k})"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        dead_rows = ~np.any(coeffs, axis=1)  # not a norm, which underflows at 1e-200
        if np.any(dead_rows):
            dead = int(np.nonzero(dead_rows)[0][0]) + self.k + 1
            raise ValueError(f"coefficient row for level {dead} is all zero; it would never decay")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", coeffs)


def _outer_factors(X: np.ndarray, peak: float | np.ndarray):
    """(u, v) with X = u v^dag to round-off, or None, in O(d m) for X of shape
    (d, m), without an SVD.

    u is the column of largest norm and v = X^dag u / ||u||^2; an X of rank
    one is reproduced by u v^dag exactly up to rounding, any other X is not.
    peak is max|X|, or the largest |entry| of each column, which sets the
    tolerance 8 d eps peak of every entry, or of every entry in that column.
    """
    norms = np.sum(np.abs(X) ** 2, axis=0)
    k = int(np.argmax(norms))
    if norms[k] == 0.0:
        return None
    u = X[:, k]
    v = (dag(X) @ u) / norms[k]
    tol = 8 * X.shape[0] * np.finfo(float).eps * peak
    if not np.all(np.abs(X - np.outer(u, v.conj())) <= tol):  # NaN from an overflow fails too
        return None
    return u, v


@dataclass(frozen=True, eq=False)
class _JumpFactors:
    """A jump set grouped by structure; this class alone reads the layout.

    Rank-one jumps L_j = u_j v_j^dag are columns of U and V (d, m1), with
    U^dag precomputed; (u_j, v_j) is a factor item's own pair, or the pair
    `_outer_factors` finds in a dense operator. Every other jump is kept in
    the stack Ld = L_j^dag of shape (m2, d, d). When every u_j is parallel to
    one u, u_j = a_j u to round-off of max|u_j| (every synthesized set, the
    Bell preset), the rank-one jumps also form the shared group: uu = u u^dag
    and the columns Vs of v'_j = conj(a_j) v_j, so L_j = u v'_j^dag and the
    sandwich sum_j gamma_j L_j rho L_j^dag is tr(rho K) uu with K = sum_j
    gamma_j v'_j v'_j^dag. An empty group is None. `order` holds each jump's index
    in the set. Only `rates` and the products gVc = gamma_j conj(V), K and
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
    uu: np.ndarray | None = None
    Vs: np.ndarray | None = None

    @cached_property
    def gVc(self) -> np.ndarray | None:
        return None if self.U is None else self.rates[: self.U.shape[1]] * self.V.conj()

    @cached_property
    def K(self) -> np.ndarray | None:
        """sum_j gamma_j v'_j v'_j^dag of the shared group, or None."""
        if self.Vs is None:
            return None
        return (self.Vs * self.rates[: self.Vs.shape[1]]) @ dag(self.Vs)

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
        """Add sum_j gamma_j L_j rho L_j^dag, the jump term of rhs, to out, for a
        Hermitian rho; the shared group adds tr(rho K) uu, in O(d^2)."""
        if self.K is not None:
            out += np.vdot(self.K, rho).real * self.uu  # tr(rho K): .real keeps K's Hermitian part
        elif self.U is not None:
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


def _dense(item) -> np.ndarray:
    """The read-only operator of a `DissipatorSet` item: a dense item's own array, or
    u v^dag of a factor item (gamma, u, v), built on each call and not kept."""
    if len(item) == 2:
        return item[1]
    L = np.outer(item[1], item[2].conj())
    L.setflags(write=False)
    return L


@dataclass(frozen=True, eq=False)
class DissipatorSet:
    """Ordered collection of jumps with their decay rates.

    An item is (gamma, L), a dense operator, or (gamma, u, v), the factors of the
    rank-one L = u v^dag (`algebra._rank_one` checks and balances them), which holds
    O(d) instead of O(d^2): synthesis hands over factors, so a synthesized set holds
    no dense operator. `operators`, iteration and `to_json_obj` give (gamma, L) with L dense,
    a factor item's built on request and not kept (`_dense`); `peaks` holds each
    operator's largest |entry|, max|u| max|v| for a factor item. The generator, the
    certificate and `is_dark` read the factors alone (`_jumps`).
    """

    items: tuple  # of (gamma, operator) or (gamma, u, v)
    peaks: tuple = field(init=False)  # largest |entry| of each operator

    def __post_init__(self):
        items, peaks = [], []
        dim = None
        for gamma, *op in self.items:
            gamma = _positive(gamma, "gamma")
            if len(op) == 2:
                *op, peak = _rank_one(*op, "jump operator")
            elif len(op) == 1:
                *op, peak = _operator(*op, "jump operator")
            else:
                raise ValueError("a jump is (gamma, operator) or (gamma, u, v)")
            if dim is None:
                dim = op[0].shape[0]
            elif op[0].shape[0] != dim:
                raise ValueError("jump operators act on different dimensions")
            peaks.append(peak)
            items.append((gamma, *op))
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "peaks", tuple(peaks))

    @property
    def dim(self) -> int | None:
        return self.items[0][1].shape[0] if self.items else None

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(item[0] for item in self.items)

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        """Every operator dense at once; iterate the set to hold one at a time."""
        return tuple(_dense(item) for item in self.items)

    @cached_property
    def _jumps(self) -> _JumpFactors:
        """The set split into rank-one factors, their shared group when every left
        factor is parallel to one vector, and dense stacks, built on first use and
        shared by every model over the set and by `is_dark`. A factor item's pair is
        taken as it is; only dense operators go through `_outer_factors`."""
        uvs = [item[1:] if len(item) == 3 else _outer_factors(item[1], peak)
               for item, peak in zip(self.items, self.peaks)]
        order = np.argsort([uv is None for uv in uvs], kind="stable")  # rank one first
        rank_one = [uvs[i] for i in order if uvs[i] is not None]
        dense = [self.items[i][1] for i in order if uvs[i] is None]
        norms, fields = [np.empty(0)], {}
        if rank_one:
            us, vs = zip(*rank_one)
            U, V = np.column_stack(us), np.column_stack(vs)
            fields.update(U=U, Ud=dag(U), V=V)
            norms.append(np.linalg.norm(U, axis=0) * np.linalg.norm(V, axis=0))
            # U = u w^dag, u_j = conj(w_j) u, each column to round-off of its own peak:
            # against max|U| a small u_j off u would pass and lose its sandwich term
            shared = _outer_factors(U, np.max(np.abs(U), axis=0))
            if shared is not None:
                u, w = shared
                uu = np.outer(u, u.conj())
                fields.update(uu=(uu + dag(uu)) / 2.0, Vs=V * w)
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
        rest; a factor item's u is divided. `is_dark` and `lindblad._unit_scaled`
        share it and its `_jumps`."""
        limit = math.frexp(SCALE_LIMIT)[1]
        ks = tuple(e if abs(e) > limit else 0 for e in (math.frexp(p)[1] for p in self.peaks))
        if not any(ks):
            return None  # not self: a cached self-reference would keep the set alive in a cycle
        items = []
        for (gamma, x, *v), k in zip(self.items, ks):
            if k:
                x = _times_power_of_two(x, -k)
                x.setflags(write=False)  # kept, not copied, by DissipatorSet
            items.append((gamma, x, *v))
        return DissipatorSet(tuple(items)), ks

    def scaled(self, factor: float) -> "DissipatorSet":
        """Same operators with every rate multiplied by factor."""
        return self._with_rates(g * factor for g in self.rates)

    def _with_rates(self, rates) -> "DissipatorSet":
        """Same operators at new rates, one per operator and checked as the
        constructor checks them. The operators or factor pairs, their `peaks` and,
        once built, their factors `_jumps` and the `_rescaled` set (at the new
        rates) are carried over, so no operator is scanned, rescaled or factored
        again."""
        items = tuple((_positive(g, "gamma"), *op)
                      for g, (_, *op) in zip(rates, self.items, strict=True))
        out = object.__new__(DissipatorSet)
        object.__setattr__(out, "items", items)
        object.__setattr__(out, "peaks", self.peaks)
        if "_jumps" in self.__dict__:
            out.__dict__["_jumps"] = self._jumps.with_rates(out.rates)
        if "_rescaled" in self.__dict__:
            rescaled = self._rescaled
            if rescaled is not None:
                rescaled = (rescaled[0]._with_rates(out.rates), rescaled[1])
            out.__dict__["_rescaled"] = rescaled
        return out

    def to_json_obj(self) -> list:
        return [{"gamma": gamma, "matrix": complex_pairs(op)} for gamma, op in self]

    @classmethod
    def from_json_obj(cls, obj) -> "DissipatorSet":
        items = []
        for entry in obj:
            flat = np.array([complex(re, im) for re, im in entry["matrix"]])
            d = int(round(np.sqrt(flat.size)))
            items.append((entry["gamma"], flat.reshape(d, d)))
        return cls(tuple(items))

    def __iter__(self):
        """(gamma, dense operator) pairs, a factor item's operator built as it is reached."""
        return ((item[0], _dense(item)) for item in self.items)

    def __len__(self):
        return len(self.items)


def synth_subspace(spec: SynthesisSpec) -> DissipatorSet:
    """One jump operator |phi_j><j| per level outside the protected block, held as
    its factors (|phi_j>, |j>).

    Every operator annihilates the block, so any state supported there is
    stationary; populations and coherences involving the outside levels
    decay. All rates default to 1.
    """
    block = spec.basis[:, : spec.k]
    items = []
    for row in range(spec.dim - spec.k):
        phi = block @ spec.coeffs[row]
        phi.setflags(write=False)  # kept, not copied, by DissipatorSet
        items.append((1.0, phi, spec.basis[:, spec.k + row]))
    return DissipatorSet(tuple(items))


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
    return DissipatorSet(((1.0, phi0, bra.conj()),))


def splitting_hamiltonian(spec: SynthesisSpec, energies=None) -> np.ndarray:
    """Hamiltonian with the columns of spec.basis as nondegenerate eigenstates.

    Coherences among the extra dark directions of a single synthesized
    operator are stationary by themselves; distinct energies on the frame
    vectors make them rotate, leaving the target as the unique steady
    state. Energies default to 0, 1, ..., N-1.
    """
    if energies is None:
        energies = np.arange(spec.dim, dtype=float)
    if np.shape(energies) != (spec.dim,):
        raise ValueError(f"need {spec.dim} energies, got shape {np.shape(energies)}")
    energies = np.array([_real(e, f"energies[{i}]") for i, e in enumerate(energies)])
    if np.unique(energies).size != spec.dim:
        raise ValueError("energies must be pairwise distinct to split the frame")
    H = spec.basis @ np.diag(energies).astype(complex) @ dag(spec.basis)
    return (H + dag(H)) / 2.0


def orthonormal_frame(target) -> np.ndarray:
    """Unitary whose first column is `target` normalized, completed by orthogonalization.

    The target may be any finite nonzero vector, at any scale: it is divided by
    a power of two near its largest entry (exact, as in `is_dark`) before it is
    normalized, so its norm neither overflows nor underflows. A zero or
    non-finite target raises ValueError ("collapsed"). The remaining columns
    come from computational basis seeds, skipping the seed that overlaps
    `target` most strongly (lowest index on ties), in one QR factorization
    whose columns are phased so that R has a positive diagonal: the frame
    Gram-Schmidt would give on the same seeds.
    """
    v = as_vector(target)
    peak = np.max(np.abs(v), initial=0.0)
    if not 0 < peak < np.inf:  # NaN fails both comparisons
        raise ValueError(f"basis seed collapsed: the target must be finite and nonzero, "
                         f"got max |entry| {peak}")
    v = _times_power_of_two(v, -math.frexp(peak)[1])
    v = v / np.linalg.norm(v)
    drop = int(np.argmax(np.abs(v)))
    seeds = np.delete(np.eye(v.size, dtype=complex), drop, axis=1)
    Q, R = np.linalg.qr(np.column_stack((v, seeds)))
    r = np.diag(R)
    if not np.all(np.abs(r) >= 1e-12):
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
