import numpy as np
import pytest

from dissipforge.algebra import PauliString, kron
from dissipforge.states import (
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


def test_four_qubit_target_locally_equivalent_to_path4():
    phi4 = np.zeros(16, dtype=complex)
    phi4[[0, 3, 12]] = 0.5
    phi4[15] = -0.5
    overlap = max_local_overlap(graph_state(GraphSpec.path(4)), PureState(phi4))
    assert abs(overlap - 1.0) < 1e-10
