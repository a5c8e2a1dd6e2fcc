"""Realizations: atomic data, inner canonical form, dilation, tridiagonal."""

import numpy as np
import pytest

import pqsys
from pqsys import errors, realize, sysmodel, transfer
from pqsys.errors import (
    InvalidD,
    NotInner,
    NotInSqs,
    NotMinimal,
    NotScalar,
    PqsysError,
    SingularResolvent,
    TransferMismatch,
)
from pqsys.realize import blaschke

import oracles
from helpers import (
    circle_points,
    linalg_calls,
    near_pqs_direct_sum,
    pqs_from_spectrum,
    rand_atoms,
    rand_complex,
    rand_contraction,
    rand_pqs_T,
    rand_unitary,
)


def make_system(T, in_dim, out_dim, state_dim):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), in_dim, out_dim, state_dim)


def member_data(rng, m=3, n=2):
    atoms = rand_atoms(rng, m, n)
    center = -sum(t * s for t, s in atoms)
    total = sum(s for _, s in atoms)
    Rh = pqsys.psd_sqrt(np.eye(n) - total)
    X = rand_contraction(rng, n, n, smax=0.9)
    theta0 = center + Rh @ X @ Rh
    return pqsys.SqsFunctionData(theta0, tuple(atoms))


def inner_pqs_system(rng, points, n):
    """Conservative pqs system whose transfer function is unitarily
    diagonal: Blaschke factors at the given points plus a unitary block."""
    s = len(points)
    pts = np.array(points, dtype=float)
    A = np.diag(pts.astype(complex))
    Q, _ = np.linalg.qr(rand_complex(rng, n, n))
    K = Q[:, :s]
    Wp = Q[:, s:]
    Xu = rand_unitary(rng, n - s) if n > s else np.zeros((0, 0), dtype=complex)
    DA = np.diag(np.sqrt(1.0 - pts ** 2).astype(complex))
    D = -K @ A @ K.conj().T + Wp @ Xu @ Wp.conj().T
    T = np.block([[D, K @ DA], [DA @ K.conj().T, A]])
    return make_system(T, n, n, s)


# ---------------------------------------------------------------------------
# atomic data <-> system
# ---------------------------------------------------------------------------

def test_realize_from_data_is_pqs_minimal_and_matches():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = member_data(rng)
        tau = pqsys.realize_from_data(f)
        flags = pqsys.classify(tau)
        assert flags.pqs
        assert pqsys.is_minimal(tau)
        for lam in (0.3, -0.45j, 0.2 - 0.5j):
            gap = np.linalg.norm(pqsys.theta_eval(tau, lam) - pqsys.theta_from_data(f, lam))
            assert gap < 1e-9


def test_realize_from_data_rejects_non_member():
    rng = np.random.default_rng(1)
    atoms = rand_atoms(rng, 2, 2)
    f = pqsys.SqsFunctionData(2.0 * np.eye(2), tuple(atoms))
    with pytest.raises(NotInSqs):
        pqsys.realize_from_data(f)


def test_spectral_measure_roundtrip():
    rng = np.random.default_rng(2)
    f = member_data(rng, m=3, n=2)
    tau = pqsys.realize_from_data(f)
    g = pqsys.spectral_measure(tau)
    assert np.linalg.norm(g.theta0 - f.theta0) < 1e-10
    assert len(g.atoms) == len(f.atoms)
    ts_f = sorted(t for t, _ in f.atoms)
    ts_g = sorted(t for t, _ in g.atoms)
    assert max(abs(a - b) for a, b in zip(ts_f, ts_g)) < 1e-9
    for (ta, sa), (tb, sb) in zip(sorted(f.atoms), sorted(g.atoms)):
        assert np.linalg.norm(sa - sb) < 1e-8


def test_spectral_measure_skips_unit_eigenvalues():
    # a decoupled eigenvalue at 1 carries no transfer content
    f = pqsys.SqsFunctionData(np.array([[0.1 + 0j]]), ((0.3, np.array([[0.5]])),))
    tau = pqsys.realize_from_data(f)
    T = np.zeros((tau.T.shape[0] + 1,) * 2, dtype=complex)
    T[:tau.T.shape[0], :tau.T.shape[0]] = tau.T
    T[-1, -1] = 1.0
    padded = make_system(T, 1, 1, tau.state_dim + 1)
    g = pqsys.spectral_measure(padded)
    assert len(g.atoms) == 1
    assert abs(g.atoms[0][0] - 0.3) < 1e-12


def test_a_reduced_realization_records_one_agreement_check():
    # atoms at 0.3 and 0.3 + 5e-9 on one channel: the reduction drops a
    # state, and the data alone decide the realization (grid_agreement)
    f = pqsys.SqsFunctionData(np.zeros((1, 1)), ((-0.5, np.array([[0.1]])), (0.3, np.array([[0.2]])),
                                                  (0.3 + 5e-9, np.array([[0.2]]))))
    with errors.ledger() as entries:
        assert pqsys.realize_from_data(f).state_dim == 2
    names = [e["name"] for e in entries]
    assert "grid_agreement" in names and "reduction_agreement" not in names
    assert all(e["pass"] for e in entries)


def test_zero_channel_data_and_systems_are_read():
    f = pqsys.SqsFunctionData(np.zeros((0, 0)), ())
    assert f.weights.shape == (0, 0, 0)
    tau = pqsys.realize_from_data(f)
    assert (tau.state_dim, tau.out_dim) == (0, 0)
    g = pqsys.spectral_measure(pqsys.PartitionedContraction(np.diag([0.5, 0.2]), 0, 0, 2))
    assert g.atoms == () and g.dim == 0


# ---------------------------------------------------------------------------
# inner canonical form
# ---------------------------------------------------------------------------

def test_blaschke_values():
    assert abs(blaschke(0.0, 0.5) - 0.5) < 1e-15
    assert abs(blaschke(0.3, 1.0) - 1.0) < 1e-15
    assert abs(blaschke(0.3, -1.0) + 1.0) < 1e-15
    assert abs(abs(blaschke(0.4, np.exp(0.7j))) - 1.0) < 1e-12


def test_inner_canonical_form_recovers_points():
    rng = np.random.default_rng(3)
    points = [-0.6, 0.1, 0.45]
    tau = inner_pqs_system(rng, points, n=5)
    can = pqsys.inner_canonical_form(tau)
    assert sorted(np.round(can.points, 8)) == sorted(np.round(points, 8))
    m = can.unitary_block.shape[0]
    assert np.linalg.norm(can.unitary_block.conj().T @ can.unitary_block - np.eye(m)) < 1e-9
    n = can.basis.shape[0]
    assert np.linalg.norm(can.basis.conj().T @ can.basis - np.eye(n)) < 1e-9
    # the diagonal model reproduces the transfer function
    lam = 0.3 + 0.4j
    diag = np.diag([blaschke(a, lam) for a in can.points] + [0] * m).astype(complex)
    diag[len(can.points):, len(can.points):] = can.unitary_block * np.ones(1)
    rec = can.basis @ diag @ can.basis.conj().T
    assert np.linalg.norm(rec - pqsys.theta_eval(tau, lam)) < 1e-9


def test_inner_canonical_form_rejects_non_inner():
    rng = np.random.default_rng(4)
    f = member_data(rng, m=2, n=2)
    tau = pqsys.realize_from_data(f)
    with pytest.raises(NotInner):
        pqsys.inner_canonical_form(tau)


def test_inner_canonical_form_rejects_non_minimal():
    rng = np.random.default_rng(5)
    tau = inner_pqs_system(rng, [0.2, -0.4], n=3)
    T = np.zeros((tau.T.shape[0] + 1,) * 2, dtype=complex)
    T[:tau.T.shape[0], :tau.T.shape[0]] = tau.T
    T[-1, -1] = 0.5
    padded = make_system(T, 3, 3, tau.state_dim + 1)
    with pytest.raises(NotMinimal):
        pqsys.inner_canonical_form(padded)


def _dilation_of_12_states():
    rng = np.random.default_rng(105)
    tau = make_system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 12), 3), 3, 3, 12)
    return pqsys.biinner_dilation(tau).system


@pytest.mark.parametrize("eps, inner", [(4e-10, True), (6e-10, False), (1e-9, False),
                                        (1e-8, False), (1e-6, False)])
def test_inner_verdict_is_the_isometry_of_T_at_eq_tol(eps, inner):
    # ||I - (1 - eps)^2 T*T|| = 2 eps - eps^2 for a unitary T: eq_tol = 1e-9
    # sits between 4e-10 and 6e-10, while the circle defect of Theta stays
    # under grid_tol = 1e-7 up to eps = 1e-9
    big = _dilation_of_12_states()
    scaled = make_system((1 - eps) * big.T, big.in_dim, big.out_dim, big.state_dim)
    assert pqsys.classify(scaled).isometric == inner
    if inner:
        cf = pqsys.inner_canonical_form(scaled)
        assert len(cf.points) == 12
    else:
        with pytest.raises(NotInner, match="not isometric"):
            pqsys.inner_canonical_form(scaled)


def test_inner_canonical_form_samples_theta_only_for_its_reconstruction(monkeypatch):
    big = _dilation_of_12_states()
    # a fresh copy of the dilation system, with nothing cached yet
    fresh = make_system(big.T, big.in_dim, big.out_dim, big.state_dim)
    calls = {"inner_test": 0, "theta_eval": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pqsys.transfer, name, counted(name, getattr(pqsys.transfer, name)))
    pqsys.inner_canonical_form(fresh)
    # the reconstruction is checked at lambda = 0, with no sample of Theta
    assert calls == {"inner_test": 0, "theta_eval": 0}


def _recorded_markov_gaps(monkeypatch):
    """Record the pole forms (f, g) of every `transfer.markov_gap` call."""
    calls = []
    real = transfer.markov_gap

    def recording(f, g, bound, count=None):
        calls.append((f, g))
        return real(f, g, bound, count)

    monkeypatch.setattr(transfer, "markov_gap", recording)
    return calls


def _exact_markov_gap(f, g):
    """The largest 2-norm of the coefficients of lambda^0..lambda^len(t) of
    the difference of two pole forms sharing t, summed over the poles directly."""
    (Df, t, Rf), (Dg, _, Rg) = f, g
    dR = Rf - Rg
    coeffs = [Df - Dg] + [(t[:, None, None] ** j * dR).sum(axis=0) for j in range(t.size)]
    return max(np.linalg.norm(c, 2) for c in coeffs)


def _failed_entry(entries, name):
    (entry,) = [e for e in entries if e["name"] == name]
    assert not entry["pass"]
    return entry


def test_canonical_reconstruction_failure_records_the_exact_gap(monkeypatch):
    # every point of the form moved by 1e-6: Theta(0) of the form,
    # W diag(-t - 1e-6) W* + const, is off by 1e-6 W W*, of 2-norm 1e-6 for
    # the isometric W (its Frobenius norm is 1e-6 sqrt(12))
    big = _dilation_of_12_states()
    main_defect_data = pqsys.sysmodel.main_defect_data

    def shifted(tau, tol):
        dd = main_defect_data(tau, tol)
        return dd._replace(t=dd.t + 1e-6)
    monkeypatch.setattr(pqsys.sysmodel, "main_defect_data", shifted)
    with errors.ledger() as entries, pytest.raises(PqsysError, match="canonical reconstruction off") as exc:
        pqsys.inner_canonical_form(big)
    assert type(exc.value) is PqsysError
    entry = _failed_entry(entries, "canonical_reconstruction")
    assert abs(entry["residual"] - 1e-6) < 1e-12


# ---------------------------------------------------------------------------
# bi-inner dilation
# ---------------------------------------------------------------------------

def test_corner_match_failure_records_the_exact_gap(monkeypatch):
    # the enlarged T turned by a rotation of 1e-6 that mixes the first output
    # channel with the first added one: still unitary, pqs and minimal, but
    # the corner of its transfer function is off the source by about 1e-6
    rng = np.random.default_rng(105)
    n, s = 3, 12
    tau = make_system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, s), n), n, n, s)
    built = []

    def rotated(T, m, k, states):
        R = np.eye(T.shape[0])
        R[[0, n], [0, n]] = np.cos(1e-6)
        R[0, n], R[n, 0] = -np.sin(1e-6), np.sin(1e-6)
        built.append(pqsys.PartitionedContraction(R @ T @ R.T, m, k, states))
        return built[-1]

    monkeypatch.setattr(realize, "PartitionedContraction", rotated)
    calls = _recorded_markov_gaps(monkeypatch)
    with errors.ledger() as entries, pytest.raises(PqsysError, match="dilation corner deviates") as exc:
        pqsys.biinner_dilation(tau)
    assert type(exc.value) is PqsysError
    assert [e["name"] for e in entries if not e["pass"]] == ["corner_match"]
    entry = _failed_entry(entries, "corner_match")
    corner, source = calls[-1]
    assert entry["residual"] == pytest.approx(_exact_markov_gap(corner, source), rel=1e-10)
    assert 1e-8 < entry["residual"] < 1e-5
    # the corner's pole form is the corner of the enlarged system's, on tau's t
    (big,) = built
    D, t, R = transfer.pole_form(big)
    assert t is source[1] is corner[1]
    assert np.array_equal(corner[0], D[:n, :n]) and np.array_equal(corner[2], R[:, :n, :n])


def test_dilation_is_unitary_and_extends():
    rng = np.random.default_rng(6)
    for _ in range(3):
        tau = make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3)
        dil = pqsys.biinner_dilation(tau)
        big = dil.system
        U = big.T
        assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])) < 1e-9
        flags = pqsys.classify(big)
        assert flags.conservative and flags.pqs
        # top-left corner of the dilated transfer is the original
        lam = 0.35 - 0.2j
        full = dil.big_theta(lam)
        n = tau.out_dim
        assert np.linalg.norm(full[:n, :n] - pqsys.theta_eval(tau, lam)) < 1e-9


def _bits(M):
    return np.ascontiguousarray(M).tobytes()


def test_dilation_block_formulas_match_partition():
    # the enlarged transfer function is the enlarged system's, bit for bit
    rng = np.random.default_rng(7)
    tau = make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3)
    dil = pqsys.biinner_dilation(tau)
    n = dil.out_dim
    dk, dks = dil.dk_dim, dil.dks_dim
    for lam in (-0.3 + 0.45j, 0.0, -0.7, 2.5j):
        full = dil.big_theta(lam)
        assert _bits(full) == _bits(pqsys.theta_eval(dil.system, lam, dil.tol))
        assert full.shape == (n + dk + dks, n + dk + dks)


def test_dilation_transfer_unitary_on_circle():
    rng = np.random.default_rng(8)
    tau = make_system(rand_pqs_T(rng, 1, 2), 1, 1, 2)
    dil = pqsys.biinner_dilation(tau)
    for xi in circle_points(16):
        val = dil.big_theta(xi)
        assert np.linalg.norm(val.conj().T @ val - np.eye(val.shape[1])) < 1e-7


def _dilation_closed_forms(p, E, lam):
    """The enlarged transfer function written through the parameters p of the
    source and an orthonormal basis E of ran D_K in the product form

        G* Phi_A(lambda) G + L_out J(X) L_in*,

    G = [K*, D_K E] with D_K E applied in the factors of D_K, J(X) = [[X,
    D_{X*}], [-D_X, X*]], L_out = [D_{K*}; -(K E)*] E_DKs (+) I and L_in =
    [D_{K*}; -(K E)*] E_DM (+) I.  Only Phi_A(lambda), diagonal on the
    eigenbasis of A, depends on lambda."""
    phi = np.diagonal(pqsys.transfer._phi(p.A, p.defects, complex(lam)))
    G = np.hstack([p.K.conj().T, p.DK.apply(E)])
    KEs = -(p.K @ E).conj().T

    def lift(DY, basis, m):
        L = np.vstack([DY, KEs]) @ basis
        return np.block([[L, np.zeros((L.shape[0], m))], [np.zeros((m, L.shape[1])), np.eye(m)]])

    dks, dm = p.X.shape
    J = np.block([[p.X, p.DXs], [-p.DX, p.X.conj().T]])
    theta = lift(p.DKs, p.E_DKs, dm) @ J @ lift(p.DKs, p.E_DM, dks).conj().T
    k = G.shape[1]
    theta[:k, :k] += (G.conj().T * phi) @ G
    return theta


def _dilation_four_blocks(p, E, lam):
    """The product form of `_dilation_closed_forms` expanded into its four
    blocks over Phi_A(lambda), each read afresh: X is read in the bases
    E_DKs x E_DM it was extracted in, so E_DM stands on X's input side in
    every block."""
    phi = pqsys.transfer._phi(p.A, p.defects, complex(lam))
    Ks = p.K.conj().T
    DKE = p.DK.apply(E)
    xo = p.DKs @ p.E_DKs          # X's output side, D_{K*} E_DKs
    xi = p.E_DM.conj().T @ p.DKs  # X's input side, E_DM* D_{K*}
    ke = p.E_DM.conj().T @ p.K @ E
    ek = E.conj().T @ Ks @ p.E_DKs
    theta = p.K @ phi @ Ks + xo @ p.X @ xi
    theta12 = np.hstack([p.K @ phi @ DKE - xo @ p.X @ ke, xo @ p.DXs])
    theta21 = np.vstack([DKE.conj().T @ phi @ Ks - ek @ p.X @ xi, -p.DX @ xi])
    theta22 = np.block([
        [ek @ p.X @ ke + DKE.conj().T @ phi @ DKE, -ek @ p.DXs],
        [p.DX @ ke, p.X.conj().T],
    ])
    return np.block([[theta, theta12], [theta21, theta22]])


def _rand_pqs_battery():
    # the systems of acceptance criterion 7
    rng = np.random.default_rng(107)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        s = int(rng.integers(2, 5))
        yield make_system(rand_pqs_T(rng, n, s), n, n, s)


def _near_pqs_battery():
    # C = B* to rounding, not bit for bit: M and K* differ by ~1e-14, and so
    # do the bases E_DM and E_DKs of their defects, up to a unitary
    return (near_pqs_direct_sum(np.random.default_rng(seed)) for seed in range(20))


def _off_rule_battery():
    # ||C - B*|| = 5e-10, inside the 1e-9 rule: D_M and D_{K*} differ by
    # about that over the defect of A
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        T = rand_pqs_T(rng, n, s)
        noise = rand_complex(rng, n, s)
        T[:n, n:] += 5e-10 * noise / np.linalg.norm(noise, 2)
        yield make_system(T, n, n, s)


def test_dilation_D_is_the_closed_forms_at_zero_bit_for_bit():
    # D is the product form at lambda = 0, bit for bit, and at other points
    # the product form agrees with the transfer function of the enlarged
    # system, off-diagonal blocks too
    for tau in _rand_pqs_battery():
        dil = pqsys.biinner_dilation(tau)
        p = pqsys.parametrize(tau)
        E = p.E_DK
        assert _bits(dil.system.D) == _bits(_dilation_closed_forms(p, E, 0.0))
        for lam in (0.35 - 0.2j, -0.6j, 0.8, 0.9 * np.exp(2.5j)):
            assert np.linalg.norm(dil.big_theta(lam) - _dilation_closed_forms(p, E, lam), 2) < 1e-12


@pytest.mark.parametrize("battery", [_rand_pqs_battery, _near_pqs_battery, _off_rule_battery])
def test_dilation_D_is_the_four_block_expansion(battery):
    for tau in battery():
        dil = pqsys.biinner_dilation(tau)
        p = pqsys.parametrize(tau)
        assert np.linalg.norm(dil.system.D - _dilation_four_blocks(p, p.E_DK, 0.0), 2) < 1e-13


@pytest.mark.parametrize("battery", [_near_pqs_battery, _off_rule_battery])
def test_dilation_of_a_system_whose_C_is_not_B_star_bit_for_bit_is_conservative(battery):
    # D reads X in the bases it was extracted in, and both lifts through
    # D_{K*}: the enlarged block stays unitary to rounding, with the
    # source's Theta as its corner within the corner_match bound
    for tau in battery():
        assert pqsys.classify(tau).pqs
        with errors.ledger() as entries:
            dil = pqsys.biinner_dilation(tau)
        checks = {e["name"]: e for e in entries}
        assert checks["block_unitarity"]["residual"] <= 1e-12
        assert checks["corner_match"]["pass"]
        assert pqsys.classify(dil.system).conservative


def test_big_theta_reads_the_factorization_of_the_dilation_call(monkeypatch):
    # a dilation at non-default tolerances evaluates at those tolerances, on
    # the factorization the enlarged system shares with the source
    rng = np.random.default_rng(10)
    tau = make_system(rand_pqs_T(rng, 2, 6), 2, 2, 6)
    tol = pqsys.Tolerances(eq_tol=2e-10, grid_tol=1e-8)
    dil = pqsys.biinner_dilation(tau, tol)
    assert dil.tol is tol
    eighs = linalg_calls(monkeypatch, "eigh")
    eigs = linalg_calls(monkeypatch, "eig")
    for lam in (0.2, 0.5 - 0.5j, 3.0):
        dil.big_theta(lam)
    assert eighs == [] and eigs == []


def test_big_theta_raises_at_a_pole():
    rng = np.random.default_rng(11)
    tau = make_system(rand_pqs_T(rng, 2, 4), 2, 2, 4)
    dil = pqsys.biinner_dilation(tau)
    t = pqsys.sysmodel.spectral_data(tau).t
    with pytest.raises(SingularResolvent):
        dil.big_theta(1.0 / t[np.argmax(np.abs(t))])


# ---------------------------------------------------------------------------
# tridiagonal realizations
# ---------------------------------------------------------------------------

def test_jacobi_matrix_structure():
    jr = pqsys.JacobiRealization(0.2 + 0.1j, (0.5, 0.4), (0.1, -0.2), False)
    T = jr.matrix()
    expect = np.array([
        [0.2 + 0.1j, 0.5, 0.0],
        [0.5, 0.1, 0.4],
        [0.0, 0.4, -0.2],
    ])
    assert np.linalg.norm(T - expect) < 1e-15
    assert jr.system().state_dim == 2


def test_jacobi_rejects_nonpositive_offdiagonal():
    with pytest.raises(pqsys.PqsysError):
        pqsys.JacobiRealization(0.0, (0.5, -0.1), (0.0, 0.0), False)


@pytest.mark.parametrize("d, a, b", [(complex(np.nan, 0.0), (0.5,), (0.0,)), (0.1j, (0.5, np.inf), (0.0, 0.0)),
                                     (0.0, (0.5,), (-np.inf,)), (complex(0.0, np.inf), (), ())])
def test_jacobi_rejects_non_finite_coefficients(d, a, b):
    with pytest.raises(ValueError, match="^coefficients must be finite numbers$"):
        pqsys.JacobiRealization(d, a, b, False)


@pytest.mark.parametrize("scale", [1e-11, 1e-19, 1e-21])
def test_jacobi_cuts_tiny_scalar_weights_relative_to_the_largest(scale):
    # the 50-node arcsine measure with its weights scaled down: far below
    # rank_tol in absolute terms, but all of one size, so no weight is cut,
    # as none is by the realization of the same data; and Lanczos normalizes
    # its start, so the expansion is empty only when no weight is left: every
    # scale keeps the 50 steps and the unscaled coefficients (a_0 scaled)
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 50)
    ref = pqsys.jacobi_realize(data)
    tiny = pqsys.SqsFunctionData(data.theta0, tuple((t, scale * w) for t, w in data.atoms))
    jr = pqsys.jacobi_realize(tiny)
    tau = pqsys.realize_from_data(tiny)
    via_system = pqsys.jacobi_realize(tau)
    assert tau.state_dim == jr.length == via_system.length == 50
    assert jr.d == via_system.d
    assert np.abs(np.subtract(jr.a, via_system.a)).max() <= 1e-12
    assert np.abs(np.subtract(jr.b, via_system.b)).max() <= 1e-12
    for got in (jr, via_system):
        assert abs(got.a[0] / (np.sqrt(scale) * ref.a[0]) - 1) < 1e-12
        assert np.abs(np.subtract(got.a[1:], ref.a[1:])).max() < 1e-12
        assert np.abs(np.subtract(got.b, ref.b)).max() < 1e-12


def test_jacobi_realize_chebyshev_coefficients():
    data, tau = pqsys.chebyshev_example(0.25, 120)
    jr = pqsys.jacobi_realize(data, max_len=40)
    assert jr.truncated
    assert abs(jr.a[0] - 0.5) < 1e-9
    for k in range(1, 40):
        assert abs(jr.a[k] - 0.5) < 1e-6
        assert abs(jr.b[k]) < 1e-6


def test_jacobi_realize_matches_moment_oracle():
    rng = np.random.default_rng(9)
    atoms = rand_atoms(rng, 5, 1)
    d = 0.05
    f = pqsys.SqsFunctionData(np.array([[d + 0j]]), tuple(atoms))
    jr = pqsys.jacobi_realize(f)
    A = np.diag([t for t, _ in atoms]).astype(complex)
    Bv = np.array([np.sqrt((1 - t * t) * s[0, 0]) for t, s in atoms], dtype=complex)
    moments = oracles.moments_of_pair(A, Bv, 12)
    a_ref, b_ref = oracles.jacobi_from_moments(np.real(moments), 4)
    for k in range(5):
        assert abs(jr.a[k] - a_ref[k]) < 1e-7
        assert abs(jr.b[k] - b_ref[k]) < 1e-7


def test_jacobi_realize_breakdown_on_rational():
    # two atoms: the expansion terminates at length two, untruncated
    f = pqsys.SqsFunctionData(
        np.array([[0.0 + 0j]]),
        ((0.4, np.array([[0.3]])), (-0.2, np.array([[0.25]]))),
    )
    jr = pqsys.jacobi_realize(f)
    assert not jr.truncated
    assert jr.length == 2
    # continued fraction of the coefficients reproduces the resolvent form
    z = 3.0 + 0.5j
    lhs = oracles.jacobi_cf_eval(jr.d, jr.a, jr.b, z)
    tau = pqsys.realize_from_data(f)
    q = pqsys.q_eval(tau, z)
    assert abs(lhs - complex(q[0, 0])) < 1e-10


@pytest.mark.parametrize("max_len", [0, -1])
def test_jacobi_realize_rejects_a_max_len_below_one(max_len):
    data, tau = pqsys.chebyshev_example(0.25, 20)
    for source in (data, tau):
        with pytest.raises(ValueError, match=f"max_len must be at least 1, got {max_len}"):
            pqsys.jacobi_realize(source, max_len=max_len)
    assert pqsys.jacobi_realize(data, max_len=1).length == 1


def test_jacobi_realize_rejects_matrix_data():
    rng = np.random.default_rng(10)
    f = member_data(rng, m=2, n=2)
    with pytest.raises(NotScalar):
        pqsys.jacobi_realize(f)


def test_jacobi_realize_rejects_dissipative_corner():
    f = pqsys.SqsFunctionData(np.array([[-0.2j]]), ((0.3, np.array([[0.4]])),))
    with pytest.raises(InvalidD):
        pqsys.jacobi_realize(f)


def test_truncated_jacobi_matches_the_first_2L_markov_parameters(monkeypatch):
    # an L-step expansion is the Gauss quadrature of the measure: it matches
    # d and the first 2L Markov parameters, and not the next one
    data, tau = pqsys.chebyshev_example(0.25, 120)
    counts = []
    markov_gap = transfer.markov_gap
    monkeypatch.setattr(transfer, "markov_gap",
                        lambda f, g, bound, count=None: counts.append(count) or markov_gap(f, g, bound, count))
    for source in (data, tau):
        with errors.ledger() as entries:
            jr = pqsys.jacobi_realize(source, max_len=10)
        assert jr.truncated and counts[-1] == 20
        (entry,) = [e for e in entries if e["name"] == "tridiagonal_agreement"]
        assert entry["pass"] and entry["residual"] < 1e-14
    form, measure = transfer.pole_form(jr.system()), transfer.pole_form(data)
    assert markov_gap(form, measure, 1e-8, 20)[0] < 1e-14
    gap = abs(_scalar_coefficient(form, 21) - _scalar_coefficient(measure, 21))
    assert gap > 1e-8 and markov_gap(form, measure, 1e-8, 21) == (pytest.approx(gap), 21)


def _scalar_coefficient(form, j):
    """The coefficient sum_k t_k^(j-1) R_k of lambda^j (j >= 1) of a scalar pole form."""
    _, t, R = form
    return (t ** (j - 1) * R[:, 0, 0]).sum()


def test_constructions_sample_no_theta(monkeypatch):
    # each of the six agreement checks compares pole forms; none samples Theta
    def refuse(*args):
        raise AssertionError("Theta sampled")
    rng = np.random.default_rng(15)
    # atoms at 0.3 and 0.3 + 5e-9 on one channel: the reduction drops a state
    close = pqsys.SqsFunctionData(np.zeros((1, 1)), ((-0.5, np.array([[0.1]])), (0.3, np.array([[0.2]])),
                                                      (0.3 + 5e-9, np.array([[0.2]]))))
    t = np.array([-0.5, 0.3, 0.3 + 5e-9])
    unreduced = sysmodel._diagonal_pqs(np.zeros((1, 1)), np.sqrt((1 - t * t) * [0.1, 0.2, 0.2])[:, None], t)
    data, _ = pqsys.chebyshev_example(0.1, 12)
    f = member_data(rng)
    monkeypatch.setattr(transfer, "theta_eval", refuse)
    monkeypatch.setattr(transfer, "theta_from_data", refuse)
    with errors.ledger() as entries:
        assert pqsys.realize_from_data(close).state_dim == 2
        assert pqsys.minimal_pqs_reduction(unreduced).state_dim == 2
        tau = pqsys.realize_from_data(f)
        pqsys.spectral_measure(tau)
        big = pqsys.biinner_dilation(tau).system
        pqsys.inner_canonical_form(big)
        pqsys.jacobi_realize(data)
    names = {e["name"] for e in entries}
    assert {"reduction_agreement", "grid_agreement", "readout_agreement", "corner_match",
            "canonical_reconstruction", "tridiagonal_agreement"} <= names
    assert all(e["pass"] for e in entries)


# ---------------------------------------------------------------------------
# arcsine-weight example
# ---------------------------------------------------------------------------

def test_chebyshev_closed_forms():
    assert abs(pqsys.chebyshev_w_closed(0.6) - oracles.CHEB_W_AT_06) < 1e-12
    assert abs(pqsys.chebyshev_w_closed(1.0) - oracles.CHEB_W_AT_1) < 1e-12
    assert abs(pqsys.chebyshev_w_closed(-1.0) - oracles.CHEB_W_AT_M1) < 1e-12
    assert abs(-2.0 * pqsys.chebyshev_w_closed(0.5) - oracles.SQRT3_MINUS_2) < 1e-12
    assert abs(pqsys.chebyshev_q_identity(2.0) - oracles.cheb_q_identity_rhs(2.0)) < 1e-12
    # the two closed forms agree through the substitution z = 1/lambda
    for lam in (0.3, 0.45 + 0.2j):
        lhs = pqsys.chebyshev_q_identity(1.0 / lam)
        assert abs(lhs + 2.0 * pqsys.chebyshev_w_closed(lam)) < 1e-10


def test_chebyshev_example_discretization():
    data, tau = pqsys.chebyshev_example(0.25, 60)
    assert len(data.atoms) == 60
    mass = sum(s[0, 0] for _, s in data.atoms)
    assert abs(mass - 0.5) < 1e-12
    assert abs(complex(data.theta0[0, 0]) - 0.25) < 1e-15
    # quadrature converges geometrically; 60 nodes is already exact to 1e-9
    w_disc = complex(pqsys.w_from_data(data, 0.6)[0, 0])
    assert abs(w_disc - oracles.CHEB_W_AT_06) < 1e-9
    flags = pqsys.classify(tau)
    assert flags.pqs
    assert pqsys.sqs_membership(data).member


def test_chebyshev_example_rejects_large_corner():
    with pytest.raises(InvalidD):
        pqsys.chebyshev_example(0.51, 20)


def test_chebyshev_moments():
    data, _ = pqsys.chebyshev_example(0.0, 200)
    # even power moments of the arcsine weight over the node measure
    ts = np.array([t for t, _ in data.atoms])
    ws = np.array([float(np.real(s[0, 0])) for _, s in data.atoms])
    for k, ref in enumerate(oracles.CHEB_SIGMA_MOMENTS_EVEN):
        assert abs(float(np.sum(ws * ts ** (2 * k))) - ref) < 1e-12


# ---------------------------------------------------------------------------
# unitary similarity of minimal realizations
# ---------------------------------------------------------------------------

def test_unitary_similarity_recovers_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(3):
        tau1 = pqsys.realize_from_data(member_data(rng, m=3, n=2))
        U = rand_unitary(rng, tau1.state_dim)
        T2 = oracles.conjugate_system(tau1.T, 2, 2, U)
        tau2 = make_system(T2, 2, 2, tau1.state_dim)
        res = pqsys.unitary_similarity(tau1, tau2)
        assert all(v < 1e-8 for v in res.residuals.values()), res.residuals
        # one SVD of U against the two Gram products
        eye = np.eye(res.U.shape[0])
        products = max(np.linalg.norm(res.U.conj().T @ res.U - eye, 2),
                       np.linalg.norm(res.U @ res.U.conj().T - eye, 2))
        assert abs(res.residuals["unitarity"] - products) < 1e-12
        # intertwining: U A1 = A2 U and U B1 = B2
        assert np.linalg.norm(res.U @ tau1.A - tau2.A @ res.U) < 1e-8
        assert np.linalg.norm(res.U @ tau1.B - tau2.B) < 1e-8


def test_unitary_similarity_accepts_explicit_S():
    rng = np.random.default_rng(12)
    tau1 = pqsys.realize_from_data(member_data(rng, m=2, n=2))
    U = rand_unitary(rng, tau1.state_dim)
    tau2 = make_system(oracles.conjugate_system(tau1.T, 2, 2, U), 2, 2, tau1.state_dim)
    res = pqsys.unitary_similarity(tau1, tau2, S=np.eye(2))
    assert res.residuals["unitarity"] < 1e-8


def test_unitary_similarity_rejects_mismatched_transfer():
    rng = np.random.default_rng(13)
    tau1 = pqsys.realize_from_data(member_data(rng, m=2, n=2))
    tau2 = pqsys.realize_from_data(member_data(rng, m=2, n=2))
    with pytest.raises(TransferMismatch):
        pqsys.unitary_similarity(tau1, tau2)


def test_unitary_similarity_diag_vs_jacobi():
    rng = np.random.default_rng(14)
    f = member_data(rng, m=6, n=1)
    if complex(f.theta0[0, 0]).imag < 0:
        # center and radius are real here, so conjugation stays in the ball
        f = pqsys.SqsFunctionData(f.theta0.conj(), f.atoms)
    diag_sys = pqsys.realize_from_data(f)
    jac_sys = pqsys.jacobi_realize(f).system()
    res = pqsys.unitary_similarity(diag_sys, jac_sys)
    U = res.U
    assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])) < 1e-7
