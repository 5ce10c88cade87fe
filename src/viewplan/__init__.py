"""View planning for triangle meshes.

Pick camera views that cover a mesh, score candidate coverage by area against
boundary length, and train small value networks that learn how hard to weight
the boundary penalty at each step.
"""

from .agents import ALGORITHMS, TrainConfig, TrainedModel, plan_with_model, train
from .bench import CertifiedInstance, SyntheticSpec, exact_min_cover, generate_instance
from .io import (CURVE_KEEP_ALL, CURVE_STRIDE, CurveRow, FormatError, MethodRow,
                 curve_rows, load_cameras, load_coverage, load_mesh, load_model,
                 load_plan, method_row, save_cameras, save_coverage, save_mesh,
                 save_model, save_plan, write_curve_csv, write_method_csv)
from .mesh import Submesh, TriangleMesh, brute_force_boundary, score, union_coverage
from .network import (NetworkConfig, ValueNetwork, apply_update, encode_input, forward,
                      gradient, init_network)
from .planner import (CoverageState, Plan, candidate_scores, is_terminal, next_best_view,
                      run_alternating, run_fixed_lambda)
from .raycast import Bvh, build_bvh, ray_triangle
from .shapes import grid_square_triangles, icosphere, planar_grid
from .visibility import CoverageTable, ViewPoint, precompute_coverage, view_coverage

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "Bvh", "CURVE_KEEP_ALL", "CURVE_STRIDE", "CertifiedInstance",
    "CoverageState", "CoverageTable", "CurveRow", "FormatError", "MethodRow",
    "NetworkConfig", "Plan", "Submesh", "SyntheticSpec",
    "TrainConfig", "TrainedModel", "TriangleMesh", "ValueNetwork", "ViewPoint",
    "apply_update", "brute_force_boundary", "build_bvh", "candidate_scores", "curve_rows",
    "encode_input", "exact_min_cover", "forward", "generate_instance", "gradient",
    "grid_square_triangles", "icosphere", "init_network", "is_terminal",
    "load_cameras", "load_coverage", "load_mesh", "load_model", "load_plan",
    "method_row", "next_best_view", "plan_with_model", "planar_grid",
    "precompute_coverage", "ray_triangle", "run_alternating", "run_fixed_lambda",
    "save_cameras", "save_coverage", "save_mesh", "save_model", "save_plan", "score",
    "train", "union_coverage", "view_coverage",
    "write_curve_csv", "write_method_csv",
]
