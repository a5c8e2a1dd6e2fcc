#!/usr/bin/env python3
"""Take apart a passive system and put it back together.

A discrete-time system is a block contraction T = [[D, C], [B, A]] acting
from input+state to output+state.  Fixing the main operator A, every such
contraction comes from exactly one triple of contractive parameters
(M, K, X) living on the defect spaces of A.  This script extracts the
triple, reassembles the block matrix, and checks the per-step energy
bookkeeping that makes "passive" more than a name.
"""

import numpy as np

import pqsys

rng = np.random.default_rng(7)

# a random strict contraction, partitioned with 2 inputs, 2 outputs, 3 states
G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
U, s, Vh = np.linalg.svd(G)
T = U @ np.diag(s / s.max() * 0.9) @ Vh
tau = pqsys.PartitionedContraction(T, in_dim=2, out_dim=2, state_dim=3)

flags = pqsys.classify(tau)
print("system flags:", flags)

p = pqsys.parametrize(tau)
print("\nmain operator A has defect dimensions",
      p.defects.E_A.shape[1], "(forward) and", p.defects.E_As.shape[1], "(adjoint)")
print("parameter norms:",
      f"M {pqsys.operator_norm(p.M):.4f},",
      f"K {pqsys.operator_norm(p.K):.4f},",
      f"X {pqsys.operator_norm(p.X):.4f}")

rebuilt = pqsys.assemble(p)
print("reassembly error:", f"{pqsys.operator_norm(rebuilt.T - T):.3e}")

# the defect balance splits the energy a step fails to transmit into the
# two parameter-side defects; both sides agree identically
h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
lhs, rhs = pqsys.defect_balance(p, h, f)
print("defect balance:", f"{lhs:.6f} = {rhs:.6f}",
      f"(gap {abs(lhs - rhs):.3e})")

# drive the system and watch the stored-plus-emitted energy never exceed
# the injected energy
inputs = rng.standard_normal((8, 2))
states, outputs = pqsys.simulate(tau, inputs, np.zeros(3))
print("\nstep   in^2    out^2   stored  slack")
for k in range(8):
    e_in = np.linalg.norm(inputs[k]) ** 2 + np.linalg.norm(states[k]) ** 2
    e_out = np.linalg.norm(outputs[k]) ** 2 + np.linalg.norm(states[k + 1]) ** 2
    print(f"{k:4d} {np.linalg.norm(inputs[k])**2:7.3f} "
          f"{np.linalg.norm(outputs[k])**2:8.3f} "
          f"{np.linalg.norm(states[k+1])**2:8.3f} {e_in - e_out:8.4f}")
