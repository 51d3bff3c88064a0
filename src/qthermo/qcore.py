"""Dense complex operator algebra and superoperator machinery.

Everything here works on plain numpy arrays: operators are ``(d, d)``
complex matrices, superoperators are ``(d*d, d*d)`` matrices acting on
column-stacked operators. :func:`dagger`, :func:`kron`, :func:`spre`,
:func:`spost`, :func:`dissipator_superop`, :func:`unvectorize` and
:func:`eig_general` also take stacks ``(..., d, d)`` and act on each
trailing matrix, with the same bits as one call per matrix.
Intended for small Hilbert spaces (the README gives timings up to
d = 32); no sparse or tensor-network representations.

Conventions
-----------
- hbar = 1, energies in units of a reference rate; k_B is carried
  explicitly as :data:`KB`.
- Vectorization is column-stacking: ``vec(A)[i + d*j] = A[i, j]``, so
  ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``.
"""

import functools
import math

import numpy as np
import scipy.linalg

# Boltzmann constant. Temperatures are k_B*T in energy units, so the
# numerical value is 1, but it is written out wherever it belongs.
KB = 1.0

# Numerical contracts shared by several modules. The PSD floor has two
# values: TOL_PSD for states a caller hands in, TOL_PSD_STEADY for the
# steady-state candidate read off a Liouvillian null vector.
TOL_TRACE = 1e-10         # |Tr rho - 1|; |sum p - 1| of populations
TOL_HERM = 1e-10          # max|M - M†|
TOL_PSD = 1e-9            # smallest eigenvalue >= -TOL_PSD
TOL_PSD_STEADY = 1e-8     # smallest eigenvalue >= -TOL_PSD_STEADY
TOL_EIG_RESIDUAL = 1e-8   # max_j |M v_j - v_j nu_j| <= TOL * ||M||
TOL_COMMUTE = 1e-9        # max|[H, N]| of Hamiltonian and number operator


class NumericalError(RuntimeError):
    """Valid inputs, but a computation missed its numerical contract."""


class EigenvalueError(NumericalError):
    """Eigen-decomposition failed or did not meet its residual contract."""


def raise_first_failure(checks):
    """Raise the error of the first failing point of a stack, if any.

    ``checks`` are ``(failed, error)`` pairs in the order one point is
    checked: ``failed`` is a boolean array over the points (any leading
    shape, flattened row-major) and ``error(i)`` builds the exception of
    point i. The first point in that order with a failed check raises the
    error of its first failed check.
    """
    flags = [np.ravel(failed) for failed, _ in checks]
    any_failed = np.logical_or.reduce(flags)
    if any_failed.any():
        i = int(np.argmax(any_failed))
        for failed, (_, error) in zip(flags, checks):
            if failed[i]:
                raise error(i)


def dagger(m):
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.asarray(m).swapaxes(-1, -2).conj()


def is_hermitian(m):
    """max|M - M†| <= TOL_HERM."""
    m = np.asarray(m)
    return float(np.abs(m - dagger(m)).max()) <= TOL_HERM


def hermitize(m):
    """(M + M†)/2, cleaning numerical asymmetry."""
    return (m + dagger(m)) / 2


def check_density_matrix(rho):
    """Validate the density-matrix invariants, raising ValueError on failure.

    Checks unit trace (TOL_TRACE), Hermiticity (TOL_HERM), and positive
    semi-definiteness up to numerical dust (eigenvalues >= -TOL_PSD).
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"trace {tr} deviates from 1 by more than {TOL_TRACE}")
    if not is_hermitian(rho):
        raise ValueError(f"density matrix is not Hermitian within {TOL_HERM}")
    evals = np.linalg.eigvalsh(hermitize(rho))
    if evals.min() < -TOL_PSD:
        raise ValueError(f"density matrix has eigenvalue {evals.min()} < -{TOL_PSD}")
    return rho


def random_density_matrix(dim, rng):
    """Random full-rank density matrix from a Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_hermitian(dim, rng, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * hermitize(g)


def kron(a, b):
    """Kronecker product of two matrices, as one broadcast multiply.

    Every entry is the same single product a[i, j] * b[k, l] that
    ``np.kron`` forms, so the result is bitwise equal to it; only the
    generic-shape bookkeeping of ``np.kron`` is skipped. Leading axes
    broadcast: stacks ``(..., n, m)`` and ``(..., p, q)`` give the stack
    ``(..., n*p, m*q)`` of the pairwise products.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    (n, m), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (n * p, m * q))


def partial_trace(c, dim_a, dim_b, keep="A"):
    """Trace out one factor of a bipartite operator on H_A (x) H_B.

    Parameters
    ----------
    c : (dim_a*dim_b, dim_a*dim_b) array
        Operator on the composite space, with the A factor most
        significant (numpy kron convention).
    keep : {"A", "B"}
        Which subsystem survives.

    The result has the trace of ``c``; dimension mismatches are rejected.
    """
    c = np.asarray(c)
    d = dim_a * dim_b
    if c.shape != (d, d):
        raise ValueError(f"operator shape {c.shape} incompatible with dims "
                         f"({dim_a}, {dim_b})")
    r = c.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abac->bc", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def vectorize(m):
    """Column-stack an operator into a vector."""
    m = np.asarray(m)
    return m.reshape(-1, order="F")


def unvectorize(v):
    """Inverse of :func:`vectorize`, on the last axis; rejects lengths that
    are not squares."""
    v = np.asarray(v)
    d = math.isqrt(v.shape[-1])
    if d * d != v.shape[-1]:
        raise ValueError(f"vector length {v.shape[-1]} is not a perfect square")
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)


@functools.lru_cache(maxsize=None)
def _identity(dim):
    """Read-only ``np.eye(dim)``, shared by every superoperator built."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def spre(a):
    """Superoperator for left multiplication, X -> A X."""
    a = np.asarray(a)
    return kron(_identity(a.shape[-1]), a)


def spost(b):
    """Superoperator for right multiplication, X -> X B."""
    b = np.asarray(b)
    return kron(b.swapaxes(-1, -2), _identity(b.shape[-1]))


def commutator_superop(h):
    """Superoperator for rho -> -i[H, rho]."""
    return -1j * (spre(h) - spost(h))


def dissipator_superop(op):
    """Superoperator for rho -> L rho L† - {L†L, rho}/2."""
    ld_l = dagger(op) @ op
    return (kron(op.conj(), op)
            - 0.5 * spre(ld_l)
            - 0.5 * spost(ld_l))


def dissipator_apply(op, rho):
    """L rho L† - {L†L, rho}/2 by direct operator arithmetic."""
    op = np.asarray(op, dtype=complex)
    op_dag = dagger(op)
    return dissipate(op, op_dag, op_dag @ op, np.asarray(rho, dtype=complex))


def dissipate(op, op_dag, ld_l, rho):
    """:func:`dissipator_apply` with L† and L†L already formed."""
    return op @ rho @ op_dag - 0.5 * (ld_l @ rho + rho @ ld_l)


def trace_vector(dim):
    """Left vector implementing Tr: trace_vector(d) @ vec(rho) = Tr(rho)."""
    return vectorize(np.eye(dim)).conj()


def eig_general(m):
    """Eigenvalues and right eigenvectors of a general complex matrix.

    Returns ``(values, vectors)`` sorted by descending real part of the
    eigenvalue; ``vectors[..., :, j]`` belongs to ``values[..., j]``. The
    residual ``max_j |M v_j - v_j nu_j|`` of each matrix is checked against
    :data:`TOL_EIG_RESIDUAL` times its largest column 2-norm, a lower bound on
    ``||M||_2``, so the check is at least as strict as one against the
    spectral norm. An :class:`EigenvalueError` is raised if the solver
    fails to converge or, for the first matrix of a stack that violates
    it, if the residual contract is violated.
    """
    m = np.asarray(m, dtype=complex)
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-values.real, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    norm = np.linalg.norm(m, axis=-2).max(axis=-1)
    residual = np.abs(m @ vectors - vectors * values[..., None, :]).max(
        axis=(-2, -1))
    raise_first_failure([
        ((norm > 0) & (residual > TOL_EIG_RESIDUAL * norm),
         lambda i: EigenvalueError(
             f"eigenpair residual {residual.flat[i]:.3e} exceeds "
             f"{TOL_EIG_RESIDUAL:.1e}*||M||"))])
    return values, vectors


def expm_dense(m, t):
    """Dense propagator e^{M t}."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"propagation time t must be finite and >= 0, "
                         f"got {t}")
    return scipy.linalg.expm(np.asarray(m, dtype=complex) * t)
