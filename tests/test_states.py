import itertools
import re
import tracemalloc

import numpy as np
import pytest

from dissipforge.algebra import PauliString, kron, kron_all
from dissipforge.states import (
    CORRECTION_GATES,
    DensityMatrix,
    GraphSpec,
    HADAMARD,
    PureState,
    bell_state,
    basis_state,
    cluster_formula,
    fidelity,
    ghz_state,
    graph_state,
    max_local_overlap,
    plus_state,
    purity,
)


def _cluster_oracle(n):
    """Recursive expansion of the product form, independent of the closed formula.

    Builds the state from the last qubit inward: each new factor prepends
    |0> applied together with Z on the previous front qubit, or |1> alone.
    """
    v = np.array([1.0 + 0j])
    for q in range(n, 0, -1):
        if q == n:
            zpart = v
        else:
            half = v.reshape(2, -1)
            zpart = np.concatenate([half[0], -half[1]])
        v = np.concatenate([zpart, v]) / np.sqrt(2.0)
    return v


# ---------------------------------------------------------------- GraphSpec


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec(2, ((1, 1),))
    with pytest.raises(ValueError):
        GraphSpec(2, ((1, 3),))
    with pytest.raises(ValueError):
        GraphSpec(3, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        GraphSpec(0, ())
    for n, edge in ((3.7, (1, 3)), (True, ()), ("3", (1, 3)), (3, (1.9, 3)), (3, (True, 3))):
        with pytest.raises(ValueError, match="integer"):
            GraphSpec(n, (edge,) if edge else ())
    with pytest.raises(ValueError, match="two vertices"):
        GraphSpec(3, ((1, 2, 3),))
    assert GraphSpec(3.0, ((1.0, 3),)) == GraphSpec(3, ((1, 3),))


def test_graph_spec_json_roundtrip():
    g = GraphSpec.path(4)
    assert GraphSpec.from_obj(g.to_obj()) == g
    assert g.to_obj() == {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}


@pytest.mark.parametrize("obj", [
    [1], None, "graph", {"edges": []}, {"n": 2, "edges": 5}, {"n": 2, "edges": [5]},
    {"n": 2, "edges": [{"a": 1, "b": 2}]}, {"n": 2, "edges": ["12"]},
], ids=["list", "none", "string", "no-n", "edges-number", "edge-number", "edge-object",
        "edge-string"])
def test_graph_spec_from_obj_says_what_it_expects(obj):
    with pytest.raises(ValueError, match=re.escape('{"n": ..., "edges": [[a, b], ...]}')):
        GraphSpec.from_obj(obj)


# ---------------------------------------------------------------- graph states


def test_graph_state_single_vertex_is_plus():
    got = graph_state(GraphSpec(1, ()))
    assert np.allclose(got.amplitudes, plus_state(1).amplitudes)


def test_graph_state_two_qubits():
    got = graph_state(GraphSpec(2, ((1, 2),)))
    assert np.array_equal(got.amplitudes, np.array([1, 1, 1, -1]) / 2.0)
    # Hadamard on qubit 2 turns it into the Bell state
    rotated = kron(np.eye(2), HADAMARD) @ got.amplitudes
    assert np.max(np.abs(rotated - bell_state().amplitudes)) < 1e-14


def test_graph_state_path3_stabilizers():
    psi = graph_state(GraphSpec.path(3)).amplitudes
    for word in ("XZI", "ZXZ", "IZX"):
        S = PauliString(word).dense()
        assert abs(np.vdot(psi, S @ psi) - 1.0) < 1e-12


def test_graph_state_flat_magnitudes():
    g = GraphSpec(4, ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)))
    psi = graph_state(g).amplitudes
    assert np.max(np.abs(np.abs(psi) - 0.25)) < 1e-14


def test_graph_state_edge_order_invariant():
    a = graph_state(GraphSpec(3, ((1, 2), (2, 3))))
    b = graph_state(GraphSpec(3, ((2, 3), (1, 2))))
    assert np.array_equal(a.amplitudes, b.amplitudes)


def _cz(n, a, b):
    """Dense diagonal CZ on qubits a and b of n, qubit 1 the most significant."""
    bits = np.array(list(itertools.product((0, 1), repeat=n)))
    return np.diag(1.0 - 2.0 * (bits[:, a - 1] & bits[:, b - 1]))


@pytest.mark.parametrize("seed", range(12))
def test_graph_state_matches_cz_gates_on_plus_for_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    edges = tuple((a, b) for a, b in itertools.combinations(range(1, n + 1), 2)
                  if rng.random() < 0.5)
    want = plus_state(n).amplitudes
    for a, b in edges:
        want = _cz(n, a, b) @ want
    assert np.max(np.abs(graph_state(GraphSpec(n, edges)).amplitudes - want)) < 1e-15


@pytest.mark.parametrize("build", [lambda n: graph_state(GraphSpec.path(n)), cluster_formula],
                         ids=["graph_state", "cluster_formula"])
def test_path_and_cluster_states_peak_at_four_times_the_state(build):
    # the int64 index, the parity and two shifted copies: 2.5 times the state's 16 B per entry
    tracemalloc.start()
    try:
        build(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * 2**16


# ---------------------------------------------------------------- cluster formula


def test_cluster_formula_single_qubit():
    assert np.allclose(cluster_formula(1).amplitudes, plus_state(1).amplitudes)


def test_cluster_formula_two_qubits():
    got = cluster_formula(2).amplitudes
    assert np.array_equal(got, np.array([1, -1, 1, 1]) / 2.0)
    # exactly Z on qubit 2 applied to the path graph state
    corrected = kron(np.eye(2), np.diag([1, -1])) @ graph_state(GraphSpec.path(2)).amplitudes
    assert np.array_equal(got, corrected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cluster_formula_matches_recursive_oracle(n):
    assert np.max(np.abs(cluster_formula(n).amplitudes - _cluster_oracle(n))) < 1e-14


def test_cluster_formula_rejects_bad_n():
    with pytest.raises(ValueError):
        cluster_formula(0)


@pytest.mark.parametrize("make", [
    ghz_state, cluster_formula, DensityMatrix.maximally_mixed, lambda n: basis_state(n, 0),
    plus_state,
], ids=["ghz_state", "cluster_formula", "maximally_mixed", "basis_state", "plus_state"])
def test_state_constructors_take_their_qubit_count_as_an_integer(make):
    for bad in (True, np.bool_(True), 2.5, "2", 0):
        with pytest.raises(ValueError, match="n must be an integer"):
            make(bad)
    assert make(2.0).n == 2 and type(make(2.0).n) is int


@pytest.mark.parametrize("index", [-1, 4, True, 1.5], ids=repr)
def test_basis_state_refuses_an_index_outside_the_register(index):
    with pytest.raises(ValueError, match="index"):
        basis_state(2, index)
    assert np.array_equal(basis_state(2, 3.0).amplitudes, [0, 0, 0, 1])


# ---------------------------------------------------------------- metrics


def test_fidelity_cases():
    phi = bell_state()
    assert abs(fidelity(phi.density(), phi) - 1.0) < 1e-14
    assert abs(fidelity(DensityMatrix.maximally_mixed(2), phi) - 0.25) < 1e-14
    assert abs(fidelity(basis_state(1, 0).density(), plus_state(1)) - 0.5) < 1e-14
    with pytest.raises(ValueError):
        fidelity(DensityMatrix.maximally_mixed(1), phi)


@pytest.mark.parametrize("rho, phi", [
    pytest.param(np.diag([np.nan, 0.0]), [1.0, 0.0], id="nan-state"),
    pytest.param(np.diag([np.inf, 0.0]), [1.0, 0.0], id="inf-state"),
    pytest.param(np.diag([1.0, 0.0]), [np.nan, 0.0], id="nan-target"),
])
def test_fidelity_rejects_a_non_finite_overlap(rho, phi):
    # clipping would turn inf into 1 and pass NaN through, outside [0, 1]
    with pytest.raises(ValueError, match="finite"):
        fidelity(rho, phi)


def test_purity_cases():
    assert abs(purity(bell_state().density()) - 1.0) < 1e-14
    assert abs(purity(DensityMatrix.maximally_mixed(1)) - 0.5) < 1e-14
    assert abs(purity(np.diag([0.75, 0.25])) - 0.625) < 1e-14


def test_purity_of_a_stack_is_each_matrix_purity():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 8, 8)) + 1j * rng.standard_normal((6, 8, 8))
    rhos = a @ a.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    stacked = purity(rhos)
    assert isinstance(purity(rhos[0]), float) and stacked.shape == (6,)
    for p, rho in zip(stacked, rhos):
        assert abs(p - np.trace(rho @ rho).real) <= 1e-14 * abs(p)


# ---------------------------------------------------------------- type invariants


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState([1.0, 1.0])
    with pytest.raises(ValueError):
        PureState([1.0, 0.0, 0.0])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.9, 0.3]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))
    DensityMatrix.maximally_mixed(2)


def test_pure_state_rejects_a_nan_amplitude():
    # ||amp|| is NaN, and abs(NaN - 1) > 1e-12 is False
    with pytest.raises(ValueError, match="not normalized"):
        PureState([np.nan, 0.0])


def test_density_matrix_rejects_a_nan_entry():
    # NaN passes the Hermiticity, trace and eigenvalue comparisons
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix([[np.nan, 0.0], [0.0, 0.5]])


# ---------------------------------------------------------------- local equivalence


def test_cluster_formula_locally_equivalent_to_graph_state_n3():
    overlap = max_local_overlap(cluster_formula(3), graph_state(GraphSpec.path(3)))
    assert abs(overlap - 1.0) < 1e-10


def test_ghz_locally_equivalent_to_path3():
    overlap = max_local_overlap(graph_state(GraphSpec.path(3)), ghz_state(3))
    assert abs(overlap - 1.0) < 1e-10


def _kron_overlap(psi, phi):
    """max_local_overlap by the 8^n dense Kronecker products, the oracle."""
    n = psi.size.bit_length() - 1
    return max(abs(np.vdot(phi, kron_all(combo) @ psi))
               for combo in itertools.product(CORRECTION_GATES, repeat=n))


@pytest.mark.parametrize("seed", range(9))
def test_max_local_overlap_matches_the_kronecker_products(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    psi, phi = rng.normal(size=(2, 2**n)) + 1j * rng.normal(size=(2, 2**n))
    psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
    assert abs(max_local_overlap(psi, phi) - _kron_overlap(psi, phi)) < 1e-14


@pytest.mark.parametrize("psi, message", [
    pytest.param([np.nan, 1.0, 0.0, 0.0], "finite", id="nan-entry"),
    pytest.param([np.inf, 0.0, 0.0, 0.0], "finite", id="inf-entry"),
    pytest.param([0.6, 0.8, 0.0], "not 2\\^n", id="three-entries"),
    pytest.param([1.0], "not 2\\^n", id="one-entry"),
])
def test_max_local_overlap_refuses_bad_input(psi, message):
    phi = np.zeros(len(psi))
    phi[0] = 1.0
    with pytest.raises(ValueError, match=message):
        max_local_overlap(psi, phi)
    with pytest.raises(ValueError, match=message):
        max_local_overlap(phi, psi)


def test_four_qubit_target_locally_equivalent_to_path4():
    phi4 = np.zeros(16, dtype=complex)
    phi4[[0, 3, 12]] = 0.5
    phi4[15] = -0.5
    overlap = max_local_overlap(graph_state(GraphSpec.path(4)), PureState(phi4))
    assert abs(overlap - 1.0) < 1e-10
