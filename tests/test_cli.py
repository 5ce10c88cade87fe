import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from viewplan import SyntheticSpec, generate_instance, load_coverage, load_model, load_plan
from viewplan.cli import main, _plan_exit
from viewplan.planner import Plan

REPO = Path(__file__).resolve().parent.parent

TRAP_SPEC = '{"kind": "grid_trap", "rows": 6, "cols": 10, "views": 3}'

SQUARE_OBJ = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf 1 3 4\n"

CAMS = {
    "format": "viewplan-cameras",
    "version": 1,
    "cameras": [{
        "position": [0.35, 0.35, 2.0],
        "direction": [0.0, 0.0, -1.0],
        "up": [0.0, 1.0, 0.0],
        "fov_y_deg": 60.0,
    }],
}


@pytest.fixture(scope="module")
def trap_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trap.cov"
    assert main(["gen", "--spec", TRAP_SPEC, "--seed", "0", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, trap_cache):
    path = tmp_path_factory.mktemp("cli-model") / "model.wts"
    code = main(["train", "--coverage", str(trap_cache), "--algo", "sarsa",
                 "--out", str(path), "--seed", "1", "--episodes", "80",
                 "--hidden", "8"])
    assert code == 0
    return path


class TestGen:
    def test_writes_certified_cache(self, trap_cache, capsys):
        table, cert = load_coverage(trap_cache)
        assert table.n_views == 3
        assert cert == (2, 3, 2)

    def test_inline_and_file_specs_agree(self, tmp_path, trap_cache):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(TRAP_SPEC)
        out = tmp_path / "trap2.cov"
        assert main(["gen", "--spec", str(spec_file), "--seed", "0",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == trap_cache.read_bytes()

    def test_seed_flag_overrides_spec_seed(self, tmp_path):
        spec = '{"kind": "random_patches", "rows": 5, "cols": 5, "views": 6, "seed": 5}'
        out = tmp_path / "inst.cov"
        assert main(["gen", "--spec", spec, "--seed", "9", "--out", str(out)]) == 0
        table, _ = load_coverage(out)
        want = generate_instance(
            SyntheticSpec("random_patches", 5, 5, 6, seed=9)).table
        assert table.digest == want.digest

    def test_bad_spec_json_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.cov"
        assert main(["gen", "--spec", "{not json", "--seed", "0", "--out", str(out)]) == 2
        assert "viewplan gen:" in capsys.readouterr().err

    def test_unknown_spec_key_is_data_error(self, tmp_path):
        bad = '{"kind": "grid_trap", "rows": 6, "cols": 10, "views": 3, "color": "red"}'
        assert main(["gen", "--spec", bad, "--seed", "0",
                     "--out", str(tmp_path / "x.cov")]) == 2


class TestBaseline:
    def test_greedy_on_trap(self, trap_cache, tmp_path, capsys):
        out = tmp_path / "greedy.json"
        assert main(["baseline", "--coverage", str(trap_cache), "--method", "greedy",
                     "--out", str(out)]) == 0
        plan, runtime = load_plan(out)
        assert plan.method == "greedy"
        assert len(plan.order) == 3
        assert plan.complete
        assert runtime is not None and runtime >= 0.0
        assert "wrote" in capsys.readouterr().out

    def test_fixed_lambda_requires_lambda(self, trap_cache, tmp_path, capsys):
        args = ["baseline", "--coverage", str(trap_cache), "--method", "fixed-lambda",
                "--out", str(tmp_path / "p.json")]
        assert main(args) == 2
        assert "--lambda" in capsys.readouterr().err
        assert main(args + ["--lambda", "1.0"]) == 0

    def test_alternating(self, trap_cache, tmp_path):
        out = tmp_path / "alt.json"
        assert main(["baseline", "--coverage", str(trap_cache), "--method", "alt-lambda",
                     "--out", str(out)]) == 0
        plan, _ = load_plan(out)
        assert plan.method == "alt-lambda"
        assert plan.lambdas == tuple(0.0 if i % 2 == 0 else 1.0
                                     for i in range(len(plan.lambdas)))

    def test_rcc_flag(self, trap_cache, tmp_path):
        out = tmp_path / "half.json"
        assert main(["baseline", "--coverage", str(trap_cache), "--method", "greedy",
                     "--rcc", "0.5", "--out", str(out)]) == 0
        plan, _ = load_plan(out)
        assert len(plan.order) == 1  # the band alone holds half the grid


class TestTrainAndPlan:
    def test_train_writes_model(self, trained, trap_cache):
        model = load_model(trained)
        assert model.config.algorithm == "sarsa"
        assert model.config.max_episodes == 80
        assert len(model.episode_lengths) == 80
        table, _ = load_coverage(trap_cache)
        assert model.table_digest == table.digest

    def test_plan_with_model(self, trained, trap_cache, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["plan", "--coverage", str(trap_cache), "--model", str(trained),
                     "--out", str(out)]) == 0
        plan, runtime = load_plan(out)
        assert plan.method == "sarsa"
        assert plan.complete
        assert plan.final_coverage_fraction == pytest.approx(1.0)
        assert runtime is not None

    def test_plan_rcc_override(self, trained, trap_cache, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["plan", "--coverage", str(trap_cache), "--model", str(trained),
                     "--rcc", "0.5", "--out", str(out)]) == 0
        plan, _ = load_plan(out)
        assert len(plan.order) <= 2

    def test_digest_mismatch_refused_then_allowed(self, trained, tmp_path, capsys, recwarn):
        # same view count, different mesh and coverage
        other = tmp_path / "other.cov"
        spec = '{"kind": "random_patches", "rows": 5, "cols": 5, "views": 3}'
        assert main(["gen", "--spec", spec, "--seed", "3", "--out", str(other)]) == 0
        out = tmp_path / "plan.json"
        assert main(["plan", "--coverage", str(other), "--model", str(trained),
                     "--out", str(out)]) == 2
        assert "--allow-digest-mismatch" in capsys.readouterr().err
        assert main(["plan", "--coverage", str(other), "--model", str(trained),
                     "--out", str(out), "--allow-digest-mismatch"]) == 0
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_train_bad_lambda_set(self, trap_cache, tmp_path, capsys):
        assert main(["train", "--coverage", str(trap_cache), "--algo", "td",
                     "--out", str(tmp_path / "m.wts"), "--seed", "0",
                     "--episodes", "5", "--lambda-set", "0,banana"]) == 2
        assert "lambda set" in capsys.readouterr().err


    def test_train_non_finite_lambda_set(self, trap_cache, tmp_path, capsys):
        out = tmp_path / "m.wts"
        assert main(["train", "--coverage", str(trap_cache), "--algo", "td", "--out", str(out),
                     "--seed", "0", "--episodes", "5", "--lambda-set", "nan,1"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_baseline_non_finite_lambda(self, trap_cache, tmp_path, capsys, lam):
        out = tmp_path / "plan.json"
        assert main(["baseline", "--coverage", str(trap_cache), "--method", "fixed-lambda",
                     "--lambda", lam, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestPrecompute:
    def write_scene(self, tmp_path):
        mesh = tmp_path / "square.obj"
        mesh.write_text(SQUARE_OBJ)
        cams = tmp_path / "cams.json"
        cams.write_text(json.dumps(CAMS))
        return mesh, cams

    def test_end_to_end(self, tmp_path, capsys):
        mesh, cams = self.write_scene(tmp_path)
        out = tmp_path / "scene.cov"
        assert main(["precompute", "--mesh", str(mesh), "--cameras", str(cams),
                     "--out", str(out)]) == 0
        assert "1 views cover 2/2 triangles" in capsys.readouterr().out
        table, cert = load_coverage(out)
        assert cert is None
        assert table.views is not None
        assert table.achievable.count == 2
        plan_out = tmp_path / "plan.json"
        assert main(["baseline", "--coverage", str(out), "--method", "greedy",
                     "--out", str(plan_out)]) == 0
        plan, _ = load_plan(plan_out)
        assert plan.order == (0,)

    def test_non_finite_vertex_exits_2(self, tmp_path, capsys):
        mesh, cams = self.write_scene(tmp_path)
        mesh.write_text(SQUARE_OBJ.replace("v 1 1 0", "v 1 1 nan"))
        assert main(["precompute", "--mesh", str(mesh), "--cameras", str(cams),
                     "--out", str(tmp_path / "x.cov")]) == 2
        assert "vertex 2 has a non-finite coordinate" in capsys.readouterr().err

    def test_workers_env_equivalence(self, tmp_path, monkeypatch):
        mesh, cams = self.write_scene(tmp_path)
        seq, par = tmp_path / "seq.cov", tmp_path / "par.cov"
        assert main(["precompute", "--mesh", str(mesh), "--cameras", str(cams),
                     "--out", str(seq)]) == 0
        monkeypatch.setenv("VIEWPLAN_WORKERS", "2")
        assert main(["precompute", "--mesh", str(mesh), "--cameras", str(cams),
                     "--out", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_workers_env_validated(self, tmp_path, monkeypatch, capsys):
        mesh, cams = self.write_scene(tmp_path)
        monkeypatch.setenv("VIEWPLAN_WORKERS", "zero")
        assert main(["precompute", "--mesh", str(mesh), "--cameras", str(cams),
                     "--out", str(tmp_path / "x.cov")]) == 2
        assert "VIEWPLAN_WORKERS" in capsys.readouterr().err


class TestReport:
    def test_methods_and_curves(self, trained, trap_cache, tmp_path):
        plan_out = tmp_path / "greedy.json"
        main(["baseline", "--coverage", str(trap_cache), "--method", "greedy",
              "--out", str(plan_out)])
        csv = tmp_path / "methods.csv"
        curves = tmp_path / "curves.csv"
        assert main(["report", "--inputs", str(plan_out), str(trained),
                     "--csv", str(csv), "--curves-csv", str(curves)]) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("greedy,greedy,3,")
        curve_lines = curves.read_text().splitlines()
        assert len(curve_lines) == 81  # header + one per episode
        assert curve_lines[0] == "source,episode,length,return"

    def test_curves_optional(self, trap_cache, tmp_path):
        plan_out = tmp_path / "alt.json"
        main(["baseline", "--coverage", str(trap_cache), "--method", "alt-lambda",
              "--out", str(plan_out)])
        csv = tmp_path / "methods.csv"
        assert main(["report", "--inputs", str(plan_out), "--csv", str(csv)]) == 0
        assert csv.exists()


class TestExitCodes:
    def test_usage_errors_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["baseline", "--coverage", "x.cov", "--method", "sideways",
                     "--out", "p.json"]) == 1
        assert main(["train", "--coverage", "x.cov", "--algo", "sarsa",
                     "--out", "m.wts"]) == 1  # --seed is required
        assert main(["gen", "--spec", "{}", "--seed", "0", "--out", "x",
                     "--bogus-flag"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "precompute" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["baseline", "--coverage", str(tmp_path / "nope.cov"),
                     "--method", "greedy", "--out", str(tmp_path / "p.json")]) == 2
        assert "viewplan baseline:" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cov"
        bad.write_bytes(b"garbage")
        assert main(["baseline", "--coverage", str(bad), "--method", "greedy",
                     "--out", str(tmp_path / "p.json")]) == 2
        capsys.readouterr()

    def test_incomplete_plan_maps_to_3(self, tmp_path, capsys):
        partial = Plan((0,), (), 0.5, "greedy", complete=False)
        assert _plan_exit(partial, tmp_path / "p.json") == 3
        assert "not reached" in capsys.readouterr().err
        full = Plan((0,), (), 1.0, "greedy", complete=True)
        assert _plan_exit(full, tmp_path / "p.json") == 0
        capsys.readouterr()


def test_console_script_installed(tmp_path):
    # Write the wrapper an installer makes for the entry point that this
    # checkout's pyproject.toml declares, and run it against this checkout's
    # src/, so neither an install step nor a stale install on PATH is involved.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["viewplan"]
    module, _, func = target.partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "viewplan"
    script.write_text(f"#!{sys.executable}\n"
                      f"import sys\n"
                      f"from {module} import {func}\n"
                      f"sys.exit({func}())\n")
    script.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)

    exe = shutil.which("viewplan", path=str(bin_dir))
    assert exe, "console script not on PATH"
    res = subprocess.run([exe, "--help"], capture_output=True, text=True,
                         cwd=tmp_path, env=env)
    assert res.returncode == 0
    assert "baseline" in res.stdout
    res = subprocess.run(
        [exe, "gen", "--spec", TRAP_SPEC, "--seed", "0", "--out",
         str(tmp_path / "trap.cov")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0
    assert "greedy 3" in res.stdout


def test_scipy_loaded_with_the_first_network_not_at_start():
    # gen, precompute and baseline build no network, so their start must not
    # pay for scipy; building one loads it, before plan's timer starts
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, viewplan.cli\n"
            "print('scipy' in sys.modules)\n"
            "viewplan.init_network(viewplan.NetworkConfig(input_dim=3, hidden=2))\n"
            "print('scipy.special' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True"]
