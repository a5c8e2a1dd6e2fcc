"""Cluster ranks at the threshold, checked at 50 digits.

`sysmodel._cluster_span` counts, cluster by cluster, the singular values of
the cluster rows of the components above rank_tol * ||comps||_2, and
`sysmodel._cluster_union` those of the cluster blocks [U_x, U_y] of two
spans' bases above rank_tol times the largest of any cluster.  Here the
singular values that decide are planted at (1 +- 1e-3) times the threshold,
in singleton and triple clusters with 1-3 channels and s <= 12, and each
float rank is checked against the rank counted from `mpmath.svd_c` of the
same float blocks at 50 digits, and against the planted rank."""

import mpmath
import numpy as np
import pytest

import pqsys
from pqsys import opcore, sysmodel

from helpers import rand_unitary

TOL = pqsys.DEFAULT_TOL
MARGIN = 1e-3


def _mp_svals(M):
    """The singular values of the float matrix M at 50 digits, from its
    exact binary entries."""
    if 0 in M.shape:
        return []
    with mpmath.workdps(50):
        A = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in M])
        return list(mpmath.svd_c(A, compute_uv=False))


def _mp_ranks(blocks, scale_svals):
    """For each block, the number of its 50-digit singular values above
    rank_tol times the largest of scale_svals."""
    with mpmath.workdps(50):
        thresh = mpmath.mpf(TOL.rank_tol) * max(scale_svals, default=mpmath.mpf(0))
        return [sum(1 for sv in _mp_svals(W) if sv > thresh) for W in blocks]


def _spectrum(rng, triples):
    """Ascending t in the given number of triple clusters of exactly equal
    values and singletons, s <= 12; the cluster slices."""
    singles = int(rng.integers(0, 12 - 3 * triples + 1))
    sizes = rng.permutation([3] * triples + [1] * singles)
    values = np.sort(rng.choice(np.linspace(-0.9, 0.9, 13), size=sizes.size, replace=False))
    t = np.repeat(values, sizes)
    assert [c.stop - c.start for c in opcore.eigen_clusters(t)] == sizes.tolist()
    return t, opcore.eigen_clusters(t)


def _orthonormal(rng, rows, cols):
    return rand_unitary(rng, rows)[:, :cols]


@pytest.mark.parametrize("seed", range(30))
def test_cluster_span_ranks_at_the_threshold_match_50_digit_ranks(seed):
    # each cluster block is P diag(sigma) Q* with sigma loud (0.1 to 1) or
    # planted at (1 +- MARGIN) rank_tol ||comps||_2: quiet rows change
    # ||comps||_2 only at the 1e-20 level, so it is read off the loud part
    rng = np.random.default_rng(700 + seed)
    t, clusters = _spectrum(rng, int(rng.integers(1, 4)))
    m = int(rng.integers(1, 4))
    sizes = [min(c.stop - c.start, m) for c in clusters]
    flat = rng.choice(["loud", "above", "below"], size=sum(sizes))
    flat[:3] = ["loud", "above", "below"][:flat.size]
    kinds = np.split(rng.permutation(flat), np.cumsum(sizes)[:-1])
    parts = [(_orthonormal(rng, c.stop - c.start, k.size), _orthonormal(rng, m, k.size)) for c, k in zip(clusters, kinds)]
    sigma = [np.where(k == "loud", rng.uniform(0.1, 1.0, k.size), 0.0) for k in kinds]
    comps = np.zeros((t.size, m), dtype=complex)
    for c, (P, Q), sv in zip(clusters, parts, sigma):
        comps[c] = (P * sv) @ Q.conj().T
    thresh = TOL.rank_tol * np.linalg.norm(comps, 2)
    for c, (P, Q), sv, k in zip(clusters, parts, sigma, kinds):
        sv[k == "above"] = (1 + MARGIN) * thresh
        sv[k == "below"] = (1 - MARGIN) * thresh
        comps[c] = (P * sv) @ Q.conj().T
    planted = [int(np.count_nonzero(k != "below")) for k in kinds]

    got = sysmodel._cluster_span(t, comps, TOL)
    assert [c for c, _, _ in got] == clusters
    ranks = [rank for _, rank, _ in got]
    assert ranks == _mp_ranks([comps[c] for c in clusters], _mp_svals(comps)), seed
    assert ranks == planted, seed


@pytest.mark.parametrize("seed", range(30))
def test_cluster_union_ranks_at_the_threshold_match_50_digit_ranks(seed):
    # in each triple cluster X reaches rx = 1 or 2 orthonormal directions u
    # and Y one direction v = cos(theta) u_1 + sin(theta) w, w orthogonal to
    # every u: the smallest singular value of [U_x, U_y] is
    # sqrt(2) sin(theta / 2), planted at (1 +- MARGIN) rank_tol sqrt(2) for
    # theta "above" or "below", and theta = 0 for "same", whose largest
    # singular value sqrt(2) is the largest of any cluster.  Singletons
    # reach X and Y at random.
    rng = np.random.default_rng(800 + seed)
    t, clusters = _spectrum(rng, 3)
    m, p = (int(k) for k in rng.integers(1, 4, size=2))
    kinds = ["same", *(rng.permutation(["above", "below"]) if seed % 3 else ["loud", rng.choice(["above", "below"])])]
    kinds = iter(rng.permutation(kinds))
    xc = np.zeros((t.size, m), dtype=complex)
    yc = np.zeros((t.size, p), dtype=complex)
    planted = []
    for c in clusters:
        if c.stop - c.start == 1:
            reach = rng.random(2) < 0.7
            xc[c] = reach[0] * rng.uniform(0.1, 1.0) * _orthonormal(rng, m, 1).T
            yc[c] = reach[1] * rng.uniform(0.1, 1.0) * _orthonormal(rng, p, 1).T
            planted.append(int(reach.any()))
            continue
        rx = int(rng.integers(1, min(m, 2) + 1))
        kind = next(kinds)
        U = rand_unitary(rng, 3)
        sv = {"same": 0.0, "loud": 1.0, "above": 1 + MARGIN, "below": 1 - MARGIN}[kind]
        theta = rng.uniform(0.3, 1.5) if kind == "loud" else 2 * np.arcsin(sv * TOL.rank_tol)
        v = np.cos(theta) * U[:, 0] + np.sin(theta) * U[:, 2]
        xc[c] = (U[:, :rx] * rng.uniform(0.1, 1.0, rx)) @ _orthonormal(rng, m, rx).conj().T
        yc[c] = rng.uniform(0.1, 1.0) * np.outer(v, _orthonormal(rng, p, 1).conj())
        planted.append(rx + (kind in ("loud", "above")))

    xs = sysmodel._cluster_span(t, xc, TOL)
    ys = sysmodel._cluster_span(t, yc, TOL)
    got = sysmodel._cluster_union(xs, ys, TOL)
    assert [c for c, _, _ in got] == clusters
    ranks = [rank for _, rank, _ in got]
    blocks = [np.hstack([x[2], y[2]]) for x, y in zip(xs, ys)]
    assert ranks == _mp_ranks(blocks, [sv for W in blocks for sv in _mp_svals(W)]), seed
    assert ranks == planted, seed
