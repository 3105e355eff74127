"""Lensless pseudothermal ghost imaging through atmospheric turbulence.

The package simulates frame-by-frame ghost image formation with a
pseudothermal subsource array, turbulence as one random source-plane
tilt per frame (a square-law phase screen is exactly a tilt), and
bucket/reference covariance estimation, and evaluates the matching
closed-form second-order coherence prediction.
"""

from .analytic import (ImmunityVerdict, corrected_mds_lhs, immunity_criterion,
                       pair_coherence_factor, predicted_ghost_image)
from .config import RunConfig, build_config, config_to_setup, load_config, parse_mask
from .correlator import (GhostImageEstimate, GhostImageResult, ObjectMask, PsfMetrics,
                         double_slit_mask, point_mask, psf_metrics, three_bar_mask)
from .errors import (ConfigurationError, InsufficientDataError, NoDetectionError,
                     ValidationError)
from .optics import Grid2D, OpticalConfig
from .simulate import FramePipeline, RunSetup, SimulationOutput, run_simulation
from .source import SubsourceSet, make_source_grid
from .turbulence import (CnSquaredProfile, TurbulenceModel, coherence_length,
                         weighted_path_integral)

__version__ = "0.1.0"

__all__ = [
    "CnSquaredProfile", "ConfigurationError", "FramePipeline",
    "GhostImageEstimate", "GhostImageResult", "Grid2D", "ImmunityVerdict",
    "InsufficientDataError", "NoDetectionError", "ObjectMask", "OpticalConfig",
    "PsfMetrics", "RunConfig", "RunSetup", "SimulationOutput",
    "SubsourceSet", "TurbulenceModel", "ValidationError", "build_config",
    "coherence_length", "config_to_setup", "corrected_mds_lhs", "double_slit_mask",
    "immunity_criterion", "load_config", "make_source_grid", "pair_coherence_factor",
    "parse_mask", "point_mask", "predicted_ghost_image", "psf_metrics", "run_simulation",
    "three_bar_mask", "weighted_path_integral",
    "__version__",
]
