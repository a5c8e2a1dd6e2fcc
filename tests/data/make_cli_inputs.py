"""Write the inputs of the installed-entry-point step of CI:

    PYTHONPATH=src python tests/data/make_cli_inputs.py

arcsine_measure.json is the 12-node arcsine measure of `chebyshev_example`
at d = 0.2 + 0.1j, for `pqsys realize` and `pqsys jacobi`.
arcsine_system.json is its minimal realization (`realize_from_data`, the
{D, B, t} form), and arcsine_system_rotated.json the same system with its
state space rotated by a seeded unitary (the T form), for `pqsys similar`."""

from pathlib import Path

import numpy as np

from pqsys import PartitionedContraction, _json, realize

HERE = Path(__file__).parent
data, _ = realize.chebyshev_example(0.2 + 0.1j, 12)
tau = realize.realize_from_data(data)
n, s = tau.in_dim, tau.state_dim
rng = np.random.default_rng(0)
W = np.eye(n + s, dtype=complex)
W[n:, n:] = np.linalg.qr(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))[0]
twin = PartitionedContraction(W @ tau.T @ W.conj().T, n, n, s)
_json.dump(_json.measure_to_json(data), str(HERE / "arcsine_measure.json"))
_json.dump(_json.system_to_json(tau), str(HERE / "arcsine_system.json"))
_json.dump(_json.system_to_json(twin), str(HERE / "arcsine_system_rotated.json"))
