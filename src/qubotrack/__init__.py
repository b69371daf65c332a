"""Track reconstruction in a toy 4-layer pixel tracker by binary triplet
selection, with exact, simulated-annealing and simulated-VQE solvers."""

__version__ = "0.1.0"
