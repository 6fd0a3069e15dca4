import numpy as np


def random_unitary(dim, rng):
    """Haar-ish unitary from a QR decomposition with phase-fixed diagonal."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim, rng):
    """Full-rank random density matrix (Ginibre construction)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def skew_null_space(monkeypatch):
    """Make the steady-state fallback's representative miss the state cone.

    1e-6 (E_00 - E_11), in the Hermitian-basis coordinates the fallback
    works in (diagonal first), is added to its first null vector. The
    projected representative of a pure steady state then has a negative
    eigenvalue near -1e-6, whatever the round-off of the SVD.
    """
    from dissipforge.algebra import null_space

    def skewed(A, tol):
        xs = null_space(A, tol)
        delta = np.zeros_like(xs[0])
        delta[:2] = 1e-6, -1e-6
        return [xs[0] + delta, *xs[1:]]

    monkeypatch.setattr("dissipforge.lindblad.null_space", skewed)


def coupling_generator(terms, bath):
    """Dense reference for the compiler's couplings: the summed generator
    sum_a (W_a (x) B^dag + W_a^dag (x) B) on the register (x) bath."""
    B = bath.operator
    return sum(np.kron(W.dense(), B.conj().T) + np.kron(W.dense().conj().T, B) for W in terms)

