"""Workloads of the viewplan benchmark: seeded input files and CLI step lists.

Importing this module never imports viewplan, so run.py can describe a
pipeline without touching the program. Run as a script, it imports viewplan
from ``src/`` and writes one workload's input files; run.py times that as the
set-up of a run:

    python3 perfbench/workloads.py --workload scene-precompute --seed 0 --out DIR

Every workload is closed-loop: one process, one client, each CLI step starting
after the previous one returns. The program only ever sees the files written
here and the command lines built in ``steps``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# scene-precompute: five icosphere(2) spheres of radius 0.5 (1,600 triangles)
# seen from a camera ring in normalized mesh units (the OBJ loader rescales the
# mesh to a unit bounding-box diagonal, so the ring is placed in that frame).
SPHERE_CENTRES = ((0.0, 0.0, 0.0), (1.2, 0.0, 0.0), (-1.2, 0.0, 0.0),
                  (0.0, 1.2, 0.0), (0.0, -1.2, 0.0))
SPHERE_RADIUS = 0.5
SPHERE_SUBDIVISIONS = 2
RING_CAMERAS = 6
RING_RADIUS = 1.5
RING_Z = 0.4
RING_FOV_DEG = 50.0

# trap-train: the acceptance trap and the demo "patches-b" instance, pinned by
# their generator seeds; the workload seed drives every training run.
TRAP_SPEC = {"kind": "grid_trap", "rows": 6, "cols": 10, "views": 3}
TRAP_GEN_SEED = 0
PATCHES_SPEC = {"kind": "random_patches", "rows": 6, "cols": 6, "views": 10, "patch_max": 4}
PATCHES_GEN_SEED = 9
ALGORITHMS = ("sarsa", "watkins-q", "td")
TRAIN_EPISODES = 400

# grid-plan: one large uncertified table, pinned by its generator seed, and a
# certified table drawn from the workload seed. Planning work on a large random
# table varies by about a quarter (interquartile range over median) between
# generator seeds, which would swamp the regression bounds, so the seed varies
# only the certified table; that one is kept small enough for the exact
# solver's time, exponential in the number of views, to stay steady.
LARGE_SPEC = {"kind": "random_patches", "rows": 40, "cols": 40, "views": 150,
              "patch_min": 2, "patch_max": 10, "certify": False}
LARGE_GEN_SEED = 0
CERTIFIED_SPEC = {"kind": "random_patches", "rows": 8, "cols": 8, "views": 16,
                  "patch_min": 2, "patch_max": 4}


@dataclass(frozen=True)
class Step:
    """One CLI invocation and what run.py checks after it.

    `kind` is the subcommand. `coverage` names the cache the step reads or
    writes, `output` the file it writes, and `inputs` the plan and model files
    a report aggregates. `rcc` is the coverage target a plan must reach, and
    `episodes` the episode count a model must log. The pinned values of steps
    that are not `seeded` are checked at every seed.
    """

    kind: str
    argv: tuple[str, ...]
    coverage: str | None = None
    output: str | None = None
    rcc: float = 1.0
    episodes: int = 0
    algorithm: str | None = None
    inputs: tuple[str, ...] = field(default_factory=tuple)
    curves: str | None = None
    seeded: bool = True  # False: the outputs are the same for every workload seed


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: object  # (seed, out_dir) -> None; imports viewplan
    steps: object         # (seed, work_dir) -> list[Step]; pure


def _p(work: Path, name: str) -> str:
    return str(work / name)


# ---------------------------------------------------------------- scene-precompute

def _rotation(rng):
    # uniformly random proper rotation: QR of a Gaussian matrix, signs fixed
    import numpy as np
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _scene_inputs(seed: int, out: Path) -> None:
    import numpy as np
    from viewplan.io import save_cameras, save_mesh
    from viewplan.mesh import TriangleMesh
    from viewplan.shapes import icosphere
    from viewplan.visibility import ViewPoint

    rng = np.random.default_rng(seed)
    sphere = icosphere(SPHERE_SUBDIVISIONS)
    verts, tris = [], []
    for k, centre in enumerate(SPHERE_CENTRES):
        # a random orientation per sphere changes which facets face each
        # camera, so the seed varies the rays without changing their count much
        rotated = sphere.vertices @ _rotation(rng).T
        verts.append(SPHERE_RADIUS * rotated + np.asarray(centre))
        tris.append(sphere.triangles + k * sphere.n_vertices)
    save_mesh(out / "scene.obj", TriangleMesh(np.vstack(verts), np.vstack(tris)))

    phase = float(rng.uniform(0.0, 2.0 * math.pi / RING_CAMERAS))
    views = []
    for k in range(RING_CAMERAS):
        a = phase + 2.0 * math.pi * k / RING_CAMERAS
        views.append(ViewPoint.aimed((RING_RADIUS * math.cos(a), RING_RADIUS * math.sin(a), RING_Z),
                                     fov_y=math.radians(RING_FOV_DEG)))
    save_cameras(out / "cameras.json", views)


def _scene_steps(seed: int, work: Path) -> list[Step]:
    cov = _p(work, "scene.cov")
    steps = [Step("precompute", ("precompute", "--mesh", _p(work, "scene.obj"),
                                 "--cameras", _p(work, "cameras.json"), "--out", cov),
                  coverage=cov, output=cov)]
    plans = []
    for name, extra in (("greedy", ("--method", "greedy")),
                        ("lam1", ("--method", "fixed-lambda", "--lambda", "1")),
                        ("alt", ("--method", "alt-lambda"))):
        out = _p(work, f"scene-{name}.json")
        plans.append(out)
        steps.append(Step("baseline", ("baseline", "--coverage", cov, *extra, "--out", out),
                          coverage=cov, output=out))
    csv = _p(work, "methods.csv")
    steps.append(Step("report", ("report", "--inputs", *plans, "--csv", csv),
                      output=csv, inputs=tuple(plans)))
    return steps


# ---------------------------------------------------------------- trap-train

def _trap_inputs(seed: int, out: Path) -> None:
    for name, spec in (("trap.json", TRAP_SPEC), ("patches.json", PATCHES_SPEC)):
        (out / name).write_text(json.dumps(spec) + "\n", encoding="utf-8")


def _trap_steps(seed: int, work: Path) -> list[Step]:
    steps = []
    tables = (("trap", TRAP_GEN_SEED), ("patches", PATCHES_GEN_SEED))
    for name, gen_seed in tables:
        cov = _p(work, f"{name}.cov")
        steps.append(Step("gen", ("gen", "--spec", _p(work, f"{name}.json"),
                                  "--seed", str(gen_seed), "--out", cov),
                          coverage=cov, output=cov, seeded=False))
    models = []
    for name, _ in tables:
        cov = _p(work, f"{name}.cov")
        for algo in ALGORITHMS:
            out = _p(work, f"{name}-{algo}.bin")
            models.append((cov, out))
            steps.append(Step("train", ("train", "--coverage", cov, "--algo", algo,
                                        "--seed", str(seed), "--episodes", str(TRAIN_EPISODES),
                                        "--out", out),
                              coverage=cov, output=out, episodes=TRAIN_EPISODES,
                              algorithm=algo))
    plans = []
    for cov, model in models:
        out = model[: -len(".bin")] + ".json"
        plans.append(out)
        steps.append(Step("plan", ("plan", "--coverage", cov, "--model", model, "--out", out),
                          coverage=cov, output=out))
    csv, curves = _p(work, "methods.csv"), _p(work, "curves.csv")
    inputs = tuple(plans) + tuple(m for _, m in models)
    steps.append(Step("report", ("report", "--inputs", *inputs, "--csv", csv,
                                 "--curves-csv", curves),
                      output=csv, inputs=inputs, curves=curves,
                      episodes=TRAIN_EPISODES))
    return steps


# ---------------------------------------------------------------- grid-plan

def _grid_inputs(seed: int, out: Path) -> None:
    for name, spec in (("large.json", LARGE_SPEC), ("certified.json", CERTIFIED_SPEC)):
        (out / name).write_text(json.dumps(spec) + "\n", encoding="utf-8")


def _grid_steps(seed: int, work: Path) -> list[Step]:
    large, small = _p(work, "large.cov"), _p(work, "certified.cov")
    steps = [
        Step("gen", ("gen", "--spec", _p(work, "large.json"), "--seed", str(LARGE_GEN_SEED),
                     "--out", large), coverage=large, output=large, seeded=False),
        Step("gen", ("gen", "--spec", _p(work, "certified.json"), "--seed", str(seed),
                     "--out", small), coverage=small, output=small),
    ]
    runs = (
        (large, "large-greedy", ("--method", "greedy"), 1.0),
        (large, "large-lam1", ("--method", "fixed-lambda", "--lambda", "1"), 1.0),
        (large, "large-lam1-rcc95", ("--method", "fixed-lambda", "--lambda", "1",
                                     "--rcc", "0.95"), 0.95),
        (large, "large-alt", ("--method", "alt-lambda"), 1.0),
        (small, "certified-greedy", ("--method", "greedy"), 1.0),
    )
    plans = []
    for cov, name, extra, rcc in runs:
        out = _p(work, f"{name}.json")
        plans.append(out)
        steps.append(Step("baseline", ("baseline", "--coverage", cov, *extra, "--out", out),
                          coverage=cov, output=out, rcc=rcc, seeded=cov != large))
    csv = _p(work, "methods.csv")
    steps.append(Step("report", ("report", "--inputs", *plans, "--csv", csv),
                      output=csv, inputs=tuple(plans)))
    return steps


WORKLOADS = {w.name: w for w in (
    Workload("scene-precompute", _scene_inputs, _scene_steps),
    Workload("trap-train", _trap_inputs, _trap_steps),
    Workload("grid-plan", _grid_inputs, _grid_steps),
)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's input files.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    # every CLI invocation pays this import, so set-up includes it
    import viewplan.cli  # noqa: F401
    args.out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].write_inputs(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
