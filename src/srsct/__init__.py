"""Simultaneous reconstruction and segmentation for parallel-beam X-ray CT."""

from .config import ClassPrior, ExperimentConfig, SolverConfig, parse_angles
from .errors import DivergenceError
from .geometry import (
    SystemMatrix,
    add_noise,
    apply,
    build_parallel_geometry,
    export_triplets,
)
from .kernels import (
    image_gradient,
    image_gradient_adjoint,
    logsum_transform,
    mixture_component,
    normalize_to_simplex,
    solve_reconstruction,
    total_variation,
    tv_prox,
    update_coupling,
    update_responsibilities,
)
from .metrics import labels_from, reconstruction_error, segmentation_error
from .phantoms import Phantom, make_piecewise_phantom, make_smooth_phantom
from .solver import (
    SrsProblem,
    SrsResult,
    joint_energy,
    marginal_energy,
    reconstruct_and_segment,
    solve_membership_subproblem,
)

__all__ = [
    "ClassPrior", "ExperimentConfig", "SolverConfig", "parse_angles",
    "SystemMatrix", "add_noise", "apply", "build_parallel_geometry",
    "export_triplets",
    "image_gradient", "image_gradient_adjoint", "logsum_transform",
    "mixture_component", "normalize_to_simplex", "solve_reconstruction",
    "total_variation", "tv_prox", "update_coupling", "update_responsibilities",
    "labels_from", "reconstruction_error", "segmentation_error",
    "Phantom", "make_piecewise_phantom", "make_smooth_phantom",
    "DivergenceError", "SrsProblem", "SrsResult", "joint_energy",
    "marginal_energy", "reconstruct_and_segment", "solve_membership_subproblem",
]

__version__ = "0.1.0"
