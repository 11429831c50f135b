import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist import DiracSet, DualProblem, Grid, MatrixMeasure, State, as_hermitian
from specdist import linalg
from specdist.connes import _commutator_program, _commutators

from conftest import clip_oracle, eig_map, random_hermitian, soft_threshold_oracle, trace_pairing


def _rng(seed):
    return np.random.default_rng(seed)


def _op(H):
    return float(linalg.hermitian_op_norms(H[None])[0])


def _nuc(H):
    return float(linalg.hermitian_nuclear_norms(H[None])[0])


def _clip(H, r):
    return linalg.clip_eigenvalues(H[None], r)[0]


def _shrink(H, tau):
    return linalg.soft_threshold_eigenvalues(H[None], tau)[0]


def _min_eigenvalues(M):
    """The PSD check's smallest eigenvalues (``MatrixMeasure``, ``State``)."""
    return linalg.eigenvalues(linalg.to_coords(M))[0]


def _spectral_sign(M):
    """The ball program's K = 1 closed form: eigenvalues mapped to {-1, 0, +1}."""
    return linalg.from_coords(linalg.map_eigenvalues(linalg.to_coords(M), np.sign))


class TestCoordinates:
    """The real coordinates of Hermitian blocks in the orthonormal basis."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_basis_is_orthonormal_and_hermitian(self, n):
        basis = linalg.from_coords(np.eye(n * n))
        assert basis.shape == (n * n, n, n)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.abs(gram - np.eye(n * n)).max() <= 1e-15
        assert np.array_equal(basis, basis.conj().swapaxes(-1, -2))
        assert np.abs(basis[0] - np.eye(n) / np.sqrt(n)).max() <= 1e-15

    def test_pauli_matrices_at_n_2(self):
        pauli = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        assert np.abs(linalg.from_coords(np.eye(4)) - pauli / np.sqrt(2)).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, rng, n):
        H = np.array([[random_hermitian(rng, n, 2.0) for _ in range(3)] for _ in range(2)])
        c = linalg.to_coords(H)
        assert c.shape == (2, 3, n * n) and c.dtype == float
        back = linalg.from_coords(c)
        assert np.abs(back - H).max() <= 1e-14
        # rebuilt blocks are exactly Hermitian, and converting again is stable
        assert np.array_equal(back, back.conj().swapaxes(-1, -2))
        assert np.abs(linalg.to_coords(back) - c).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_pairing_is_a_dot_product(self, rng, n):
        F, G = (np.array([random_hermitian(rng, n) for _ in range(4)]) for _ in range(2))
        dot = float(np.vdot(linalg.to_coords(F), linalg.to_coords(G)))
        assert dot == pytest.approx(trace_pairing(F, G), abs=1e-12)
        # a non-Hermitian block has the coordinates of its Hermitian part
        A = F + 1j * G
        assert np.abs(linalg.to_coords(A) - linalg.to_coords(linalg.hermitian_part(A))).max() \
            <= 1e-15


class TestEigh:
    """The eigenvalue reductions and maps against numpy's eigh, every size path."""

    def test_identity(self):
        eye = np.eye(2, dtype=complex)[None]
        assert _min_eigenvalues(eye) == pytest.approx([1.0])
        assert linalg.hermitian_op_norms(eye) == pytest.approx([1.0])
        assert linalg.hermitian_nuclear_norms(eye) == pytest.approx([2.0])
        assert np.allclose(_spectral_sign(eye), eye)

    def test_flip(self):
        flip = np.array([[[0, 1], [1, 0]]], dtype=complex)
        assert _min_eigenvalues(flip) == pytest.approx([-1.0])
        assert linalg.hermitian_op_norms(flip) == pytest.approx([1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_reconstruction(self, rng, n):
        H = np.array([random_hermitian(rng, n, scale=3.0) for _ in range(5)])
        lam = np.linalg.eigh(H)[0]
        scale = max(1.0, float(np.abs(lam).max()))
        assert np.abs(_min_eigenvalues(H) - lam[:, 0]).max() <= 1e-10 * scale
        assert np.abs(linalg.hermitian_op_norms(H) - np.abs(lam).max(axis=-1)).max() \
            <= 1e-10 * scale
        assert np.abs(linalg.hermitian_nuclear_norms(H) - np.abs(lam).sum(axis=-1)).max() \
            <= 1e-10 * scale
        # the eigenvalue map rebuilds H from its positive and negative parts
        rebuilt = linalg.positive_part(H) - linalg.positive_part(-H)
        assert np.abs(rebuilt - H).max() <= 1e-10 * scale

    def test_rejects_non_hermitian(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError, match="Hermitian"):
            as_hermitian(stack)


class TestNorms:
    def test_op_norm_permutation(self):
        assert _op(np.array([[0, 1], [1, 0]], dtype=complex)) == pytest.approx(1.0)

    def test_op_norm_diagonal(self):
        assert _op(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(4.0)

    def test_nuclear_diagonal(self):
        assert _nuc(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(7.0)

    def test_nuclear_identity(self):
        assert _nuc(np.eye(2, dtype=complex)) == pytest.approx(2.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_op_norm_gram_oracle(self, seed):
        rng = _rng(seed)
        H = random_hermitian(rng, 3, scale=2.0)
        gram = np.linalg.eigvalsh(H.conj().T @ H)
        assert _op(H) == pytest.approx(np.sqrt(gram[-1]), abs=1e-10)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_nuclear_gram_oracle(self, seed):
        rng = _rng(seed)
        H = random_hermitian(rng, 3, scale=2.0)
        gram = np.linalg.eigvalsh(H.conj().T @ H)
        assert _nuc(H) == pytest.approx(np.sqrt(np.maximum(gram, 0)).sum(), abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_norms_are_eigenvalue_sums(self, seed):
        rng = _rng(seed)
        H = random_hermitian(rng, 2, scale=2.0)
        lam = np.linalg.eigvalsh(H)
        assert _nuc(H) == pytest.approx(np.abs(lam).sum(), abs=1e-10)
        assert _op(H) == pytest.approx(np.abs(lam).max(), abs=1e-10)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pairing_bound(self, seed):
        rng = _rng(seed)
        F = random_hermitian(rng, 3)
        delta = random_hermitian(rng, 3)
        pairing = abs(np.trace(F @ delta).real)
        assert pairing <= _op(F) * _nuc(delta) + 1e-10


class TestProjectOpnormBall:
    """``clip_eigenvalues`` on one-block stacks is the operator-norm ball projection."""

    def test_interior_point_unchanged(self, rng):
        H = random_hermitian(rng, 3)
        H = 0.5 * H / _op(H)
        assert np.abs(_clip(H, 1.0) - H).max() <= 1e-12

    def test_diagonal_clipping(self):
        P = _clip(np.diag([3.0, -4.0]).astype(complex), 1.0)
        assert np.allclose(P, np.diag([1.0, -1.0]))

    def test_random_feasible_point_optimality(self, rng):
        for n in (2, 3):
            H = random_hermitian(rng, n, scale=3.0)
            P = _clip(H, 1.0)
            dist = np.linalg.norm(H - P)
            for _ in range(100):
                Q = _clip(random_hermitian(rng, n, scale=2.0), 1.0)
                assert dist <= np.linalg.norm(H - Q) + 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_nonexpansive(self, seed):
        rng = _rng(seed)
        for n in (2, 3):
            H1 = random_hermitian(rng, n, scale=2.0)
            H2 = random_hermitian(rng, n, scale=2.0)
            P1 = _clip(H1, 1.0)
            P2 = _clip(H2, 1.0)
            assert np.abs(_clip(P1, 1.0) - P1).max() <= 1e-12
            assert np.linalg.norm(P1 - P2) <= np.linalg.norm(H1 - H2) + 1e-12


class TestEigSoftThreshold:
    """``soft_threshold_eigenvalues`` on one-block stacks is the nuclear-norm prox."""

    def test_diagonal(self):
        S = _shrink(np.diag([3.0, -4.0]).astype(complex), 1.0)
        assert np.allclose(S, np.diag([2.0, -3.0]))

    def test_full_shrinkage(self, rng):
        H = random_hermitian(rng, 3)
        assert np.abs(_shrink(H, _op(H) + 0.1)).max() <= 1e-12

    def test_zero_threshold_exact(self, rng):
        # exact up to the rounding of the eigenvalue map
        for n in (1, 2, 4):
            H = random_hermitian(rng, n)
            assert np.abs(_shrink(H, 0.0) - H).max() <= 1e-12

    def test_prox_optimality_probe(self, rng):
        tau = 0.7
        for n in (2, 3):
            H = random_hermitian(rng, n, scale=2.0)
            P = _shrink(H, tau)

            def prox_objective(X):
                return 0.5 * np.linalg.norm(H - X) ** 2 + tau * _nuc(X)

            base = prox_objective(P)
            for _ in range(100):
                assert base <= prox_objective(P + 0.1 * random_hermitian(rng, n)) + 1e-12


class TestCommutator:
    """The commutator images -i[D, f] of the spectral-distance program, whose
    forward and adjoint maps act on coordinates."""

    @staticmethod
    def _images(D, f):
        diracs = DiracSet(D)
        program = _commutator_program(np.zeros_like(f), diracs,
                                      _commutators(diracs.operators), 1.0)
        return linalg.from_coords(program.forward(linalg.to_coords(f)[None]))

    def test_off_diagonal_pattern(self):
        D = np.array([[0, 1], [1, 0]], dtype=complex)
        F = np.diag([2.0, 5.0]).astype(complex)
        assert np.allclose(self._images(D, F)[0], -1j * np.array([[0, 3.0], [-3.0, 0]]))

    def test_identity_commutes(self, rng):
        D = random_hermitian(rng, 3)
        assert np.abs(self._images(D, np.eye(3, dtype=complex))).max() == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_anti_hermitian(self, seed):
        # [D, f] is anti-Hermitian, so the images are Hermitian, and the
        # adjoint map matches the forward one in the trace pairing
        rng = _rng(seed)
        D = np.array([random_hermitian(rng, 3) for _ in range(2)])
        f = random_hermitian(rng, 3)
        diracs = DiracSet(D)
        program = _commutator_program(np.zeros_like(f), diracs,
                                      _commutators(diracs.operators), 1.0)
        images = linalg.from_coords(program.forward(linalg.to_coords(f)[None]))
        assert np.abs(images + 1j * (D @ f - f @ D)).max() <= 1e-12
        assert np.abs(images - images.conj().swapaxes(-1, -2)).max() <= 1e-12
        Y = np.array([random_hermitian(rng, 3) for _ in range(2)])
        adjoint = linalg.from_coords(program.adjoint(linalg.to_coords(Y)))
        assert trace_pairing(images, Y) == pytest.approx(
            trace_pairing(f[None], adjoint), abs=1e-10)
        # the adjoint of f -> -i[D, f] is Y -> i[D, Y], summed over the operators
        assert np.abs(adjoint[0] - 1j * (D @ Y - Y @ D).sum(axis=0)).max() <= 1e-12


class TestBatchedTransforms:
    """The closed-form n <= 2 paths must agree with the eigh-based route."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_clip_matches_eigh(self, rng, n):
        M = np.array([random_hermitian(rng, n, 2.0) for _ in range(40)])
        r = rng.uniform(0.1, 2.0, size=40)
        assert np.abs(linalg.clip_eigenvalues(M, r) - clip_oracle(M, r)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_soft_threshold_matches_single(self, rng, n):
        M = np.array([random_hermitian(rng, n, 2.0) for _ in range(20)])
        tau = rng.uniform(0.0, 1.5, size=20)
        batched = linalg.soft_threshold_eigenvalues(M, tau)
        assert np.abs(batched - soft_threshold_oracle(M, tau)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norm_batches(self, rng, n):
        M = np.array([random_hermitian(rng, n, 2.0) for _ in range(25)])
        assert np.allclose(
            linalg.hermitian_op_norms(M), np.linalg.norm(M, 2, axis=(-2, -1)), atol=1e-11
        )
        assert np.allclose(
            linalg.hermitian_nuclear_norms(M), np.linalg.norm(M, "nuc", axis=(-2, -1)),
            atol=1e-11,
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_shapes(self, rng, n):
        # the transport primal feeds (K, K, n, n) and (2, K, n, n) stacks with
        # per-block thresholds
        M = np.array([[random_hermitian(rng, n, 2.0) for _ in range(3)] for _ in range(2)])
        r = rng.uniform(0.1, 1.5, size=(2, 3))
        lam = np.linalg.eigvalsh(M)
        assert np.abs(linalg.clip_eigenvalues(M, r) - clip_oracle(M, r)).max() <= 1e-12
        assert np.abs(linalg.soft_threshold_eigenvalues(M, r)
                      - soft_threshold_oracle(M, r)).max() <= 1e-12
        assert np.abs(linalg.positive_part(M)
                      - eig_map(M, lambda x: np.maximum(x, 0.0))).max() <= 1e-12
        assert np.abs(_spectral_sign(M) - eig_map(M, np.sign)).max() <= 1e-12
        assert _min_eigenvalues(M).shape == (2, 3)
        assert np.abs(_min_eigenvalues(M) - lam[..., 0]).max() <= 1e-12
        assert np.abs(linalg.hermitian_op_norms(M) - np.abs(lam).max(axis=-1)).max() <= 1e-12
        assert np.abs(linalg.hermitian_nuclear_norms(M)
                      - np.abs(lam).sum(axis=-1)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coordinate_kernels_match_eigh(self, rng, n):
        # the kernels the solvers call, on (2, 3, n^2) coordinate stacks
        M = np.array([[random_hermitian(rng, n, 2.0) for _ in range(3)] for _ in range(2)])
        c = linalg.to_coords(M)
        r = rng.uniform(0.1, 1.5, size=(2, 3))
        lam = np.linalg.eigvalsh(M)

        def close(coords, oracle):
            return np.abs(linalg.from_coords(coords) - oracle).max() <= 1e-12

        assert close(linalg.clip(c, -r, r), clip_oracle(M, r))
        assert close(linalg.soft_threshold(c, r), soft_threshold_oracle(M, r))
        assert close(linalg.clip(c, 0.0, np.inf), eig_map(M, lambda x: np.maximum(x, 0.0)))
        assert close(linalg.map_eigenvalues(c, np.sign), eig_map(M, np.sign))
        assert np.abs(np.moveaxis(linalg.eigenvalues(c), 0, -1) - lam).max() <= 1e-12
        assert np.abs(linalg.op_norms(c) - np.abs(lam).max(axis=-1)).max() <= 1e-12
        assert np.abs(linalg.nuclear_norms(c) - np.abs(lam).sum(axis=-1)).max() <= 1e-12

    def test_coordinate_maps_of_multiples_of_identity(self):
        # s = 0 at n = 2: the map keeps no direction and needs no division
        c = np.array([[1.5, 0, 0, 0], [-2.0, 0, 0, 0], [0.0, 0, 0, 0]]) * np.sqrt(2)
        with np.errstate(all="raise"):
            clipped = linalg.from_coords(linalg.clip(c, -1.0, 1.0))
            signs = linalg.from_coords(linalg.map_eigenvalues(c, np.sign))
        assert np.abs(clipped - np.multiply.outer([1.0, -1.0, 0.0], np.eye(2))).max() <= 1e-15
        assert np.abs(signs - np.multiply.outer([1.0, -1.0, 0.0], np.eye(2))).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_pairs_map_exactly_as_their_slices(self, rng, n):
        # the transport primal maps its (2, 2, K, n^2) dual pairs in one pass,
        # soft-thresholding one pair and clipping the other; that is only the
        # same solve if a stacked call equals the per-slice calls bit for bit
        M = np.array([[[random_hermitian(rng, n, 2.0) for _ in range(5)] for _ in range(2)]
                      for _ in range(2)])
        M[:, :, 0] = 0.0
        M[:, :, 1] = np.eye(n)            # eigenvalues meet: the n = 2 gap is 0
        c = linalg.to_coords(M)
        tau = rng.uniform(0.1, 1.5, size=5)
        maps = [lambda x: linalg.clip(x, 0.0, np.inf),
                lambda x: linalg.clip(x, -tau, tau),
                lambda x: linalg.soft_threshold(x, 0.7),
                lambda x: linalg.soft_threshold(x, tau),
                lambda x: linalg.map_eigenvalues(x, np.sign)]
        for f in maps:
            whole = f(c)
            for i in range(2):
                assert np.array_equal(whole[i], f(c[i]))
                for j in range(2):
                    assert np.array_equal(whole[i, j], f(c[i, j]))

        def halves(lam):
            out = np.empty_like(lam)
            out[:, 0] = np.sign(lam[:, 0]) * np.maximum(np.abs(lam[:, 0]) - 0.7, 0.0)
            out[:, 1] = np.maximum(lam[:, 1], 0.0)
            return out

        merged = linalg.map_eigenvalues(c, halves)
        assert np.array_equal(merged[0], linalg.soft_threshold(c[0], 0.7))
        assert np.array_equal(merged[1], linalg.clip(c[1], 0.0, np.inf))

    def test_degenerate_identity_blocks(self):
        M = np.einsum("k,ij->kij", np.array([1.5, -2.0, 0.0]), np.eye(2)).astype(complex)
        clipped = linalg.clip_eigenvalues(M, 1.0)
        assert np.allclose(clipped[0], np.eye(2))
        assert np.allclose(clipped[1], -np.eye(2))
        assert np.allclose(clipped[2], np.zeros((2, 2)))

    def test_positive_part(self, rng):
        H = random_hermitian(rng, 3, 2.0)
        pos = linalg.positive_part(H[None])[0]
        lam = np.linalg.eigvalsh(pos)
        assert lam.min() >= -1e-12
        # positive and negative parts act on orthogonal eigenspaces
        assert np.abs((pos - H) @ pos).max() <= 1e-10
        assert np.abs(pos - linalg.positive_part(pos[None])[0]).max() <= 1e-12

    def test_spectral_sign(self, rng):
        H = random_hermitian(rng, 2, 2.0)
        S = _spectral_sign(H[None])[0]
        lam = np.linalg.eigvalsh(S)
        assert np.all(np.abs(np.abs(lam) - 1.0) <= 1e-12)
        assert np.trace(S @ H).real == pytest.approx(np.linalg.norm(H, "nuc"), abs=1e-10)


def test_as_hermitian_repairs_small_drift(rng):
    H = random_hermitian(rng, 3)
    drift = H + 1e-14 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
    repaired = as_hermitian(drift)
    assert np.abs(repaired - repaired.conj().T).max() == 0.0


def test_as_hermitian_rejects_large_violation():
    with pytest.raises(ValueError, match="not Hermitian"):
        as_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("M", [
    np.diag([1e308, 1e308]),                    # the Hermitian part overflows
    np.diag([1e200, 0.0]),                      # the 2x2 closed form's square overflows
    np.array([[1e300, 0.5], [0.5, -1.0]])[None],
], ids=["sum-1e308", "square-1e200", "stack-1e300"])
def test_as_hermitian_rejects_overflowing_eigenvalues(M):
    with pytest.raises(ValueError, match="too large"):
        as_hermitian(M)


@pytest.mark.parametrize("build", [
    lambda: as_hermitian(np.zeros((3, 0, 0))),
    lambda: MatrixMeasure(Grid([0.0, 1.0], [1.0, 1.0]), np.zeros((2, 0, 0))),
    lambda: State(np.zeros((0, 0))),
    lambda: DiracSet(np.zeros((1, 0, 0))),
    lambda: DualProblem(Grid([0.0, 1.0], [1.0, 1.0]), np.zeros((2, 0, 0)), 1.0),
], ids=["as_hermitian", "MatrixMeasure", "State", "DiracSet", "DualProblem"])
def test_empty_blocks_are_rejected(build):
    with pytest.raises(ValueError, match="nonempty square"):
        build()
