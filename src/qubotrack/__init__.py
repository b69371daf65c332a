"""Track reconstruction in a toy 4-layer pixel tracker by binary triplet
selection, with exact, simulated-annealing and simulated-VQE solvers."""

__version__ = "0.1.0"

from .geometry import (Event, GeometryConfig, Hit, Hits, Particles,
                       TruthParticle, build_geometry)
from .fastsim import (EnergySpectrum, SimConfig, dipole_deflection,
                      generate_event, xi_to_multiplicity)
from .preselect import (Doublet, Doublets, PreselectionWindow, Triplet,
                        Triplets, build_doublets, build_triplets,
                        calibrate_dx_window)
from .qubo import (IsingHamiltonian, Qubo, QuboScaling, assemble_qubo,
                   objective, to_ising)
from .solvers import (AnnealSchedule, SolveReport, solve_annealing, solve_exact,
                      solve_iterative)
from .vqe import VqeConfig, VqeResult, nft_update, prepare_state, run_vqe
from .trackbuild import (TrackFits, estimate_energy, fit_track,
                         resolve_ambiguities, triplets_to_candidates)
from .metrics import MetricsReport, TrackRecord, build_report
from .config import RunConfig
