import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qthermo import qcore
from qthermo.qcore import (commutator_superop, dagger, dissipator_apply,
                           dissipator_superop, eig_general, expm_dense, kron,
                           partial_trace, spre, spost, trace_vector,
                           unvectorize, vectorize)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_expansion(self):
        out = kron(np.eye(2), np.diag([1.0, 0.0]))
        assert np.array_equal(out, np.diag([1.0, 0.0, 1.0, 0.0]))

    def test_mixed_product_rule(self, rng):
        # oracle: direct 4x4 multiplication
        a, b, c, d = (random_complex(rng, 2, 2) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def assert_bitwise(out, ref):
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.array_equal(out, ref) and out.tobytes() == ref.tobytes()


def kernel_pairs(rng):
    """Factor pairs for the broadcast-kernel checks, by input kind."""
    return {
        "square": (random_complex(rng, 3, 3), random_complex(rng, 2, 2)),
        "non-square": (random_complex(rng, 2, 3), random_complex(rng, 4, 1)),
        "real-complex": (rng.normal(size=(3, 2)), random_complex(rng, 2, 3)),
        "complex-real": (random_complex(rng, 2, 2), rng.normal(size=(3, 3))),
        "identity": (np.eye(3), random_complex(rng, 2, 2)),
        "signed-zeros": (np.array([[0.0, 1.0], [0.0, 0.0]]),
                         np.array([[0.0, -1.0j], [0.0, -0.0]])),
    }


KERNEL_CASES = ("square", "non-square", "real-complex", "complex-real",
                "identity", "signed-zeros")


class TestBroadcastKernels:
    """kron, spre, spost and dissipator_superop equal their np.kron
    formulas bit for bit, signed zeros included."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_kron(self, rng, case):
        a, b = kernel_pairs(rng)[case]
        assert_bitwise(kron(a, b), np.kron(a, b))
        assert_bitwise(kron(b, a), np.kron(b, a))

    @pytest.mark.parametrize("case", ["complex", "real", "identity",
                                      "signed-zeros"])
    def test_superoperators(self, rng, case):
        op = {"complex": random_complex(rng, 3, 3),
              "real": rng.normal(size=(3, 3)),
              "identity": np.eye(3),
              "signed-zeros": np.array([[0.0, -1.0j], [0.0, -0.0]])}[case]
        eye = np.eye(op.shape[0])
        ld_l = dagger(op) @ op
        assert_bitwise(spre(op), np.kron(eye, op))
        assert_bitwise(spost(op), np.kron(op.T, eye))
        assert_bitwise(dissipator_superop(op),
                       np.kron(op.conj(), op) - 0.5 * np.kron(eye, ld_l)
                       - 0.5 * np.kron(ld_l.T, eye))


class TestStackedKernels:
    """On a (k, d, d) stack each kernel returns, slice by slice, the bytes of
    its call on that 2-D slice; k = 0 gives an empty stack of the right
    shape."""

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 3, 4, 8]), k=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_slices(self, dim, k, seed):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, k, dim, dim), random_complex(rng, k, dim, dim)
        a[rng.random(a.shape) < 0.3] = -0.0
        b.real[rng.random(b.shape) < 0.3] = 0.0
        single, rho = random_complex(rng, dim, dim), random_complex(rng, dim, dim)
        stacked = {
            "dagger": (dagger(a), lambda i: dagger(a[i])),
            "kron": (kron(a, b), lambda i: kron(a[i], b[i])),
            "kron, 2-D left": (kron(single, b), lambda i: kron(single, b[i])),
            "kron, 2-D right": (kron(a, single), lambda i: kron(a[i], single)),
            "spre": (spre(a), lambda i: spre(a[i])),
            "spost": (spost(a), lambda i: spost(a[i])),
            "dissipator_superop": (dissipator_superop(a),
                                   lambda i: dissipator_superop(a[i])),
            "dissipator_apply": (dissipator_apply(a, rho),
                                 lambda i: dissipator_apply(a[i], rho)),
        }
        for name, (out, per_slice) in stacked.items():
            side = dim if name in ("dagger", "dissipator_apply") else dim ** 2
            assert out.shape == (k, side, side), name
            for i in range(k):
                assert_bitwise(out[i], per_slice(i))

    def test_dissipator_apply_matches_superoperator(self, rng):
        ops = random_complex(rng, 3, 4, 4)
        rho = random_complex(rng, 4, 4)
        for op, d_rho in zip(ops, dissipator_apply(ops, rho)):
            direct = unvectorize(dissipator_superop(op) @ vectorize(rho))
            assert np.max(np.abs(d_rho - direct)) < 1e-12


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = qcore.random_density_matrix(3, rng)
        rho_b = qcore.random_density_matrix(2, rng)
        out = partial_trace(kron(rho_a, rho_b), 3, 2, keep="A")
        assert np.max(np.abs(out - rho_a)) < 1e-12
        out_b = partial_trace(kron(rho_a, rho_b), 3, 2, keep="B")
        assert np.max(np.abs(out_b - rho_b)) < 1e-12

    def test_bell_state_reduction(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        out = partial_trace(rho, 2, 2, keep="A")
        assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12

    def test_trace_preserved(self, rng):
        c = random_complex(rng, 12, 12)
        for keep in ("A", "B"):
            out = partial_trace(c, 4, 3, keep=keep)
            assert abs(np.trace(out) - np.trace(c)) < 1e-12

    def test_linearity(self, rng):
        c1 = random_complex(rng, 6, 6)
        c2 = random_complex(rng, 6, 6)
        lhs = partial_trace(2.0 * c1 - 0.5j * c2, 2, 3)
        rhs = 2.0 * partial_trace(c1, 2, 3) - 0.5j * partial_trace(c2, 2, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), 2, 2)


class TestVectorization:
    def test_column_stacking_identity(self):
        assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1]))

    def test_round_trip(self, rng):
        a = random_complex(rng, 5, 5)
        assert np.array_equal(unvectorize(vectorize(a)), a)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            unvectorize(np.arange(5))

    def test_commutator_superop_matches_direct(self, rng):
        # oracle: direct matrix arithmetic
        h = qcore.random_hermitian(4, rng)
        rho = qcore.random_density_matrix(4, rng)
        via_superop = unvectorize(commutator_superop(h) @ vectorize(rho))
        direct = -1j * (h @ rho - rho @ h)
        assert np.max(np.abs(via_superop - direct)) < 1e-10

    def test_spre_spost(self, rng):
        a = random_complex(rng, 3, 3)
        x = random_complex(rng, 3, 3)
        assert np.max(np.abs(unvectorize(spre(a) @ vectorize(x)) - a @ x)) < 1e-12
        assert np.max(np.abs(unvectorize(spost(a) @ vectorize(x)) - x @ a)) < 1e-12

    def test_trace_vector(self, rng):
        x = random_complex(rng, 4, 4)
        assert abs(trace_vector(4) @ vectorize(x) - np.trace(x)) < 1e-12


class TestEig:
    def test_diagonal(self):
        vals, _ = eig_general(np.diag([3.0, -1.0]))
        assert np.allclose(vals, [3.0, -1.0])

    def test_high_bias_rate_matrix(self):
        # population block of the unidirectional dot at zero counting field
        kl, kr = 1.7, 0.4
        m = np.array([[-kl, kr], [kl, -kr]])
        vals, _ = eig_general(m)
        assert np.allclose(sorted(vals.real), sorted([0.0, -(kl + kr)]),
                           atol=1e-12)
        assert np.max(np.abs(vals.imag)) < 1e-12

    def test_hermitian_spectrum_real(self, rng):
        m = qcore.random_hermitian(6, rng)
        vals, _ = eig_general(m)
        assert np.max(np.abs(vals.imag)) < 1e-9

    def test_residual_contract(self, rng):
        m = random_complex(rng, 8, 8)
        vals, vecs = eig_general(m)
        res = np.max(np.abs(m @ vecs - vecs * vals[None, :]))
        assert res <= qcore.TOL_EIG_RESIDUAL * np.linalg.norm(m, 2)

    def test_sorted_by_real_part(self, rng):
        vals, _ = eig_general(random_complex(rng, 6, 6))
        assert np.all(np.diff(vals.real) <= 1e-12)

    def test_corrupted_eigenpair_rejected(self, rng, monkeypatch):
        # the residual scale is now the largest column norm, a lower bound
        # on ||M||_2: a unit eigenvector off by 1e-6 must still fail
        stack = random_complex(rng, 3, 5, 5)
        eig = np.linalg.eig

        def corrupted(m):
            values, vectors = eig(m)
            (vectors[1] if vectors.ndim == 3 else vectors)[:, 2] += 1e-6
            return values, vectors

        monkeypatch.setattr(np.linalg, "eig", corrupted)
        with pytest.raises(qcore.EigenvalueError, match="residual"):
            eig_general(stack)
        with pytest.raises(qcore.EigenvalueError, match="residual"):
            eig_general(stack[1])

    def test_stack_equals_slices(self, rng):
        stack = random_complex(rng, 4, 6, 6)
        values, vectors = eig_general(stack)
        for i, m in enumerate(stack):
            one_values, one_vectors = eig_general(m)
            assert values[i].tobytes() == one_values.tobytes()
            assert vectors[i].tobytes() == one_vectors.tobytes()


def rk4_oracle(m, v, t, n_steps=4000):
    """Independent fixed-step RK4 integration of dv/dt = M v."""
    dt = t / n_steps
    v = v.astype(complex).copy()
    for _ in range(n_steps):
        k1 = m @ v
        k2 = m @ (v + 0.5 * dt * k1)
        k3 = m @ (v + 0.5 * dt * k2)
        k4 = m @ (v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


class TestExpmApply:
    """e^{Mt} applied to a vector through :func:`qcore.expm_dense`."""

    def test_zero_time(self, rng):
        m = random_complex(rng, 4, 4)
        v = random_complex(rng, 4)
        assert np.array_equal(expm_dense(m, 0.0) @ v, v)

    def test_scalar_decay(self):
        out = expm_dense(np.array([[-1.0]]), 1.0) @ np.array([1.0])
        assert abs(out[0] - np.exp(-1.0)) < 1e-12

    def test_matches_rk4(self, rng):
        m = random_complex(rng, 4, 4)
        v = random_complex(rng, 4)
        got = expm_dense(m, 0.7) @ v
        want = rk4_oracle(m, v, 0.7)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    def test_semigroup_property(self, rng):
        m = random_complex(rng, 5, 5)
        v = random_complex(rng, 5)
        once = expm_dense(m, 0.9) @ v
        twice = expm_dense(m, 0.5) @ (expm_dense(m, 0.4) @ v)
        assert np.max(np.abs(once - twice)) < 1e-8 * max(np.max(np.abs(once)), 1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            expm_dense(np.eye(2), -1.0)

    def test_unitary_generator_preserves_state(self, rng):
        # pure commutator: trace and Hermiticity survive to 1e-9
        h = qcore.random_hermitian(3, rng)
        rho = qcore.random_density_matrix(3, rng)
        out = unvectorize(expm_dense(commutator_superop(h), 2.3) @ vectorize(rho))
        assert abs(np.trace(out) - 1.0) < 1e-9
        assert np.max(np.abs(out - dagger(out))) < 1e-9


class TestStateValidation:
    def test_valid_state_passes(self, rng):
        qcore.check_density_matrix(qcore.random_density_matrix(5, rng))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            qcore.check_density_matrix(2.0 * np.eye(2))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError):
            qcore.check_density_matrix(m)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            qcore.check_density_matrix(np.diag([1.2, -0.2]))
