"""Circuit-level crossbar simulation (the HSPICE substitute).

This package solves the DC operating point of the full parasitic crossbar
network: source/sink/wire resistances plus the non-linear 1T1R cell stack at
every junction. It exposes three simulation modes:

* ``ideal``  — no non-idealities, plain MVM (reference numerator for fR);
* ``linear`` — parasitic resistances with ohmic cells: the *exact linear
  model*, equivalent to the matrix-inversion analytical baseline (CxDNN);
* ``full``   — parasitics plus the non-linear access transistor and RRAM
  I-V, solved with damped Newton-Raphson on the sparse nodal system. This is
  the ground truth that stands in for the paper's HSPICE runs.

Each job has one mechanism. Every nodal matrix, the linear network's and
the Newton Jacobian alike, is assembled on one precomputed sparsity
pattern (:meth:`LinearCrossbarSolver.system_matrix`), and every full-mode
solve is one run of the batched Newton driver
(:func:`~repro.circuit.newton.solve_newton_batch`): a single operating
point is a batch of one.
"""

from repro.circuit.topology import CrossbarTopology
from repro.circuit.linear_solver import LinearCrossbarSolver
from repro.circuit.newton import NewtonOptions
from repro.circuit.simulator import CrossbarCircuitSimulator, CrossbarSolution

__all__ = [
    "CrossbarTopology",
    "LinearCrossbarSolver",
    "NewtonOptions",
    "CrossbarCircuitSimulator",
    "CrossbarSolution",
]
