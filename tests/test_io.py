import json
import math
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewplan import (
    CoverageTable,
    FormatError,
    Plan,
    Submesh,
    TrainConfig,
    ViewPoint,
    curve_rows,
    exact_min_cover,
    generate_instance,
    SyntheticSpec,
    load_cameras,
    load_coverage,
    load_mesh,
    load_model,
    load_plan,
    method_row,
    plan_with_model,
    planar_grid,
    precompute_coverage,
    run_fixed_lambda,
    save_cameras,
    save_coverage,
    save_mesh,
    save_model,
    save_plan,
    train,
    write_curve_csv,
    write_method_csv,
)
from viewplan.agents import TrainedModel
from viewplan.cli import main

SQUARE_OBJ = """\
# unit square, two triangles
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3
f 1 3 4
"""


def tiny_model(algo="sarsa", episodes=10):
    mesh = planar_grid(1, 3)
    subs = [Submesh.from_triangles(mesh, s) for s in ([0, 1, 2, 3], [2, 3, 4, 5], [0, 1])]
    table = CoverageTable.build(mesh, None, subs)
    cfg = TrainConfig(algorithm=algo, max_episodes=episodes, hidden=4, seed=7)
    return train(table, cfg), table


class TestMeshIO:
    def test_load_square(self, tmp_path):
        p = tmp_path / "square.obj"
        p.write_text(SQUARE_OBJ)
        mesh = load_mesh(p, normalize=False)
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2
        assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
        assert mesh.vertices[2].tolist() == [1.0, 1.0, 0.0]

    def test_load_normalizes_by_default(self, tmp_path):
        p = tmp_path / "square.obj"
        p.write_text(SQUARE_OBJ)
        mesh = load_mesh(p)
        assert mesh.bbox_diagonal == pytest.approx(1.0)

    def test_quad_fan_triangulation(self, tmp_path):
        p = tmp_path / "quad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = load_mesh(p, normalize=False)
        assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_negative_and_slashed_indices(self, tmp_path):
        p = tmp_path / "mix.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
                     "f 1/1/1 2/2/2 3/3/3\nf -4 -2 -1\n")
        mesh = load_mesh(p, normalize=False)
        assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_unknown_records_skipped(self, tmp_path):
        p = tmp_path / "extra.obj"
        p.write_text("o thing\nvn 0 0 1\nvt 0 0\ns off\n" + SQUARE_OBJ)
        assert load_mesh(p, normalize=False).n_triangles == 2

    def test_zero_index_rejected_with_location(self, tmp_path):
        p = tmp_path / "zero.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 0 1 2\n")
        with pytest.raises(FormatError, match=r"zero\.obj:4"):
            load_mesh(p)

    def test_bad_coordinate_rejected(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_text("v 0 zero 0\n")
        with pytest.raises(FormatError, match=r"bad\.obj:1"):
            load_mesh(p)

    def test_short_records_rejected(self, tmp_path):
        p = tmp_path / "short.obj"
        p.write_text("v 0 0\n")
        with pytest.raises(FormatError):
            load_mesh(p)
        p.write_text("v 0 0 0\nv 1 0 0\nf 1 2\n")
        with pytest.raises(FormatError):
            load_mesh(p)

    def test_no_faces_rejected(self, tmp_path):
        p = tmp_path / "points.obj"
        p.write_text("v 0 0 0\nv 1 0 0\n")
        with pytest.raises(ValueError):
            load_mesh(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_vertex_rejected(self, tmp_path, bad):
        p = tmp_path / "bad.obj"
        p.write_text(SQUARE_OBJ.replace("v 1 1 0", f"v 1 1 {bad}"))
        for normalize in (True, False):
            with pytest.raises(ValueError, match="vertex 2 has a non-finite coordinate"):
                load_mesh(p, normalize=normalize)

    def test_round_trip_exact(self, tmp_path, ico1):
        p = tmp_path / "ico.obj"
        save_mesh(p, ico1)
        back = load_mesh(p, normalize=False)
        assert np.array_equal(back.vertices, ico1.vertices)
        assert np.array_equal(back.triangles, ico1.triangles)
        assert back.digest == ico1.digest


class TestCameraIO:
    def make_views(self):
        return [
            ViewPoint.aimed([3.0, 0.5, 0.0], fov_y=math.radians(55.5)),
            ViewPoint.aimed([-1.0, 2.0, 4.0], fov_y=math.radians(70.0),
                            aspect=1.5, near=0.1, far=20.0),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "cams.json"
        views = self.make_views()
        save_cameras(p, views)
        back = load_cameras(p)
        assert len(back) == 2
        for a, b in zip(views, back):
            assert b.position == pytest.approx(a.position, rel=1e-15)
            assert b.direction == pytest.approx(a.direction, rel=1e-12)
            assert b.up == pytest.approx(a.up, rel=1e-12)
            assert b.fov_y == pytest.approx(a.fov_y, rel=1e-12)
            assert (b.aspect, b.near, b.far) == (a.aspect, a.near, a.far)

    def test_angles_stored_in_degrees(self, tmp_path):
        p = tmp_path / "cams.json"
        save_cameras(p, self.make_views())
        doc = json.loads(p.read_text())
        assert doc["format"] == "viewplan-cameras"
        assert doc["cameras"][0]["fov_y_deg"] == pytest.approx(55.5)

    def test_rejects_wrong_format(self, tmp_path):
        p = tmp_path / "cams.json"
        p.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(FormatError):
            load_cameras(p)

    def test_rejects_bad_version(self, tmp_path):
        p = tmp_path / "cams.json"
        save_cameras(p, self.make_views())
        doc = json.loads(p.read_text())
        doc["version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_cameras(p)

    def test_rejects_empty_and_incomplete(self, tmp_path):
        p = tmp_path / "cams.json"
        p.write_text(json.dumps({"format": "viewplan-cameras", "version": 1, "cameras": []}))
        with pytest.raises(FormatError):
            load_cameras(p)
        p.write_text(json.dumps({"format": "viewplan-cameras", "version": 1,
                                 "cameras": [{"position": [0, 0, 0]}]}))
        with pytest.raises(FormatError, match="camera 0"):
            load_cameras(p)

    @pytest.mark.parametrize("field", ["direction", "up"])
    def test_zero_vector_rejected_without_warning(self, tmp_path, field):
        p = tmp_path / "cams.json"
        save_cameras(p, self.make_views())
        doc = json.loads(p.read_text())
        doc["cameras"][1][field] = [0.0, 0.0, 0.0]
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FormatError, match=f"camera 1: {field} must be a nonzero"):
                load_cameras(p)

    @pytest.mark.parametrize("field, value", [
        ("position", [math.inf, 0.0, 2.0]), ("aspect", math.nan), ("aspect", math.inf),
        ("far", math.inf)])
    def test_non_finite_field_rejected(self, tmp_path, field, value):
        p = tmp_path / "cams.json"
        save_cameras(p, self.make_views())
        doc = json.loads(p.read_text())
        doc["cameras"][1][field] = value
        p.write_text(json.dumps(doc))  # NaN and Infinity, which json.load reads back
        with pytest.raises(FormatError, match=f"camera 1: .*{field}"):
            load_cameras(p)


class TestCoverageIO:
    def test_synthetic_round_trip_with_cert(self, tmp_path):
        inst = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0))
        p = tmp_path / "trap.cov"
        save_coverage(p, inst.table, cert=(inst.oracle_count, inst.greedy_count, None))
        table, cert = load_coverage(p)
        assert table.digest == inst.table.digest
        assert table.mesh_digest == inst.table.mesh_digest
        assert [sm.triangle_indices().tolist() for sm in table.coverage] == \
               [sm.triangle_indices().tolist() for sm in inst.table.coverage]
        assert table.views is None
        assert cert == (2, 3, None)

    def test_round_trip_with_cameras(self, tmp_path, ico1):
        views = [ViewPoint.aimed([3.0, 0.0, 0.0]), ViewPoint.aimed([0.0, 3.0, 0.5])]
        table = precompute_coverage(ico1, views)
        p = tmp_path / "ico.cov"
        save_coverage(p, table)
        back, cert = load_coverage(p)
        assert cert is None
        assert back.digest == table.digest
        assert back.views is not None and len(back.views) == 2
        for a, b in zip(views, back.views):
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.direction, b.direction)
            assert a.fov_y == b.fov_y and a.far == b.far

    def test_save_is_deterministic(self, tmp_path):
        inst = generate_instance(SyntheticSpec("random_patches", 5, 5, 6, seed=8))
        p1, p2 = tmp_path / "a.cov", tmp_path / "b.cov"
        save_coverage(p1, inst.table)
        save_coverage(p2, inst.table)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.cov"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="bad magic"):
            load_coverage(p)

    def test_truncation_reports_offset(self, tmp_path):
        inst = generate_instance(SyntheticSpec("random_patches", 4, 4, 3, seed=1))
        p = tmp_path / "t.cov"
        save_coverage(p, inst.table)
        data = p.read_bytes()
        p.write_bytes(data[:-9])
        with pytest.raises(FormatError, match="truncated at byte"):
            load_coverage(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        inst = generate_instance(SyntheticSpec("random_patches", 4, 4, 3, seed=1))
        p = tmp_path / "t.cov"
        save_coverage(p, inst.table)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_coverage(p)

    def test_tampered_geometry_fails_digest(self, tmp_path):
        inst = generate_instance(SyntheticSpec("random_patches", 4, 4, 3, seed=1))
        p = tmp_path / "t.cov"
        save_coverage(p, inst.table)
        data = bytearray(p.read_bytes())
        # first vertex coordinate starts after magic, version, digest, counts
        off = 4 + 4 + 32 + 8
        data[off] ^= 0x01
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="digest mismatch"):
            load_coverage(p)


class TestModelIO:
    def test_round_trip_bit_identical(self, tmp_path):
        for algo in ("sarsa", "watkins-q", "td"):
            model, _table = tiny_model(algo)
            p = tmp_path / f"{algo}.wts"
            save_model(p, model)
            back = load_model(p)
            assert np.array_equal(back.network.params, model.network.params)
            # the derived init seed too, not just the run seed of the config
            assert back.network.config == model.network.config
            assert back.config == model.config
            assert np.array_equal(back.episode_lengths, model.episode_lengths)
            assert back.mesh_digest == model.mesh_digest
            assert back.table_digest == model.table_digest
            assert back.n_views == model.n_views

    def test_serialization_is_stable(self, tmp_path):
        model, _ = tiny_model()
        p1, p2 = tmp_path / "a.wts", tmp_path / "b.wts"
        save_model(p1, model)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.wts"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="bad magic"):
            load_model(p)

    def test_unknown_algorithm_tag(self, tmp_path):
        model, _ = tiny_model()
        p = tmp_path / "m.wts"
        save_model(p, model)
        data = bytearray(p.read_bytes())
        data[8] = 9  # algorithm byte follows magic and version
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="algorithm tag"):
            load_model(p)

    def test_header_config_disagreement(self, tmp_path):
        model, _ = tiny_model("sarsa")
        p = tmp_path / "m.wts"
        save_model(p, model)
        data = bytearray(p.read_bytes())
        data[8] = 1  # relabel as watkins-q; embedded config still says sarsa
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="header says"):
            load_model(p)

    def test_truncation(self, tmp_path):
        model, _ = tiny_model()
        p = tmp_path / "m.wts"
        save_model(p, model)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_model(p)

    def test_parameter_block_is_the_flat_vector(self, tmp_path):
        for algo in ("sarsa", "td"):
            model, _ = tiny_model(algo)
            data, cfg_at = model_file(tmp_path, model)
            params = model.network.params
            assert data[MODEL_PARAMS_AT : cfg_at - 4] == params.astype("<f8").tobytes()

    def test_files_with_unit_gamma_still_load(self, tmp_path):
        # model files written while TrainConfig had a gamma field store "gamma": 1.0
        model, _ = tiny_model()
        data, cfg_at = model_file(tmp_path, model)
        p = tmp_path / "old.wts"
        p.write_bytes(edit_config(data, cfg_at, lambda cfg: cfg.update(gamma=1.0)))
        back = load_model(p)
        assert back.config == model.config
        assert np.array_equal(back.network.params, model.network.params)

    @pytest.mark.parametrize("n_views,hidden,message,at", [
        (0, 4, "no views", 9),
        (3, 0, "no hidden units", 17),
    ])
    def test_file_without_a_network_rejected(self, tmp_path, n_views, hidden, message, at):
        # consistent throughout, so only building the network would fail
        cfg = TrainConfig(algorithm="td", hidden=hidden)
        network = SimpleNamespace(params=np.zeros(hidden * (n_views + 2) + 1))
        p = tmp_path / "empty.wts"
        save_model(p, TrainedModel(network, cfg, np.zeros(0, np.int32), "00" * 32, "00" * 32,
                                   n_views))
        with pytest.raises(FormatError, match=message) as err:
            load_model(p)
        assert str(err.value).endswith(f"(at byte {at})")


MODEL_PARAMS_AT = 4 + 4 + 1 + 12  # magic, version, algorithm tag, three counts


def model_file(tmp_path, model):
    """Bytes of `model`'s weights file and the offset of its config JSON."""
    p = tmp_path / "model.wts"
    save_model(p, model)
    return p.read_bytes(), MODEL_PARAMS_AT + 8 * model.network.config.n_params + 4


def edit_config(data, cfg_at, edit):
    """Weights file bytes with the embedded config JSON changed by `edit`."""
    (n,) = struct.unpack_from("<I", data, cfg_at - 4)
    cfg = json.loads(data[cfg_at : cfg_at + n])
    edit(cfg)
    blob = json.dumps(cfg).encode("utf-8")
    return data[: cfg_at - 4] + struct.pack("<I", len(blob)) + blob + data[cfg_at + n :]


def _put(data, at, raw):
    return data[:at] + raw + data[at + len(raw):]


def coverage_at(data, field):
    """Offset in a coverage cache of the view count ("views"), the first and
    second entries of view 0's index list ("index0", "index1"), or camera 0
    and camera 1's records ("camera0", "camera1")."""
    n_verts, n_tris = struct.unpack_from("<II", data, 40)
    at = {"views": 48 + 24 * n_verts + 12 * n_tris + 8}
    at["index0"], at["index1"] = at["views"] + 8, at["views"] + 12
    (n_views,) = struct.unpack_from("<I", data, at["views"])
    off = at["views"] + 4
    for _ in range(n_views):
        off += 4 + 4 * struct.unpack_from("<I", data, off)[0]
    at["camera0"], at["camera1"] = off + 1, off + 1 + 13 * 8  # after the has-cameras flag
    return at[field]


def _put_at(field, delta, raw):
    return lambda d, c: _put(d, coverage_at(d, field) + delta, raw)


# (file kind, damage(file bytes, config offset), message, offset: a number,
# "config", a field name for `coverage_at`, or a function of the file bytes)
DAMAGED_FILES = {
    "model-magic": ("model", lambda d, c: _put(d, 0, b"XXXX"), "bad magic", 0),
    "model-version": ("model", lambda d, c: _put(d, 4, struct.pack("<I", 2)), "version 2", 4),
    "model-algorithm-tag": ("model", lambda d, c: _put(d, 8, b"\x09"), "algorithm tag 9", 8),
    "model-non-finite-param": (
        "model", lambda d, c: _put(d, MODEL_PARAMS_AT + 24, struct.pack("<d", math.nan)),
        "non-finite", MODEL_PARAMS_AT + 24),
    "model-config-json": ("model", lambda d, c: _put(d, c, b"["), "bad embedded config", "config"),
    "model-config-gamma": (
        "model", lambda d, c: edit_config(d, c, lambda cfg: cfg.update(gamma=0.9)),
        "gamma", "config"),
    "model-config-lambda-nan": (
        "model", lambda d, c: edit_config(d, c, lambda cfg: cfg.update(lambda_set=[math.nan, 1.0])),
        "finite and nonnegative", "config"),
    "model-header-algorithm": (
        "model", lambda d, c: _put(d, 8, b"\x01"), "header says watkins-q", "config"),
    "model-header-shape": (
        "model", lambda d, c: edit_config(d, c, lambda cfg: cfg.update(hidden=5)),
        "disagree on network shape", "config"),
    "model-config-init-scale": (
        "model", lambda d, c: edit_config(d, c, lambda cfg: cfg.update(init_scale=-0.1)),
        "init_scale must be >= 0", "config"),
    "model-config-alpha-nan": (
        "model", lambda d, c: edit_config(d, c, lambda cfg: cfg.update(alpha=math.nan)),
        "alpha must be positive and finite", "config"),
    "model-config-init-scale-nan": (
        "model", lambda d, c: edit_config(d, c, lambda cfg: cfg.update(init_scale=math.nan)),
        "init_scale must be >= 0 and finite", "config"),
    "model-negative-episode-length": (
        "model", lambda d, c: _put(d, len(d) - 4, struct.pack("<i", -3)),
        "negative episode length", lambda d: len(d) - 4),
    "coverage-magic": ("coverage", lambda d, c: _put(d, 0, b"NOPE"), "bad magic", 0),
    "coverage-version": ("coverage", lambda d, c: _put(d, 4, struct.pack("<I", 7)), "version 7", 4),
    # a flipped bit in the first vertex coordinate breaks the stored mesh digest
    "coverage-mesh-digest": (
        "coverage", lambda d, c: _put(d, 48, bytes([d[48] ^ 1])), "digest mismatch", 8),
    "coverage-mesh": (
        "coverage", lambda d, c: _put(d, 48, struct.pack("<d", math.nan)), "bad stored mesh", 40),
    "coverage-no-views": ("coverage", _put_at("views", 0, bytes(4)), "no views", "views"),
    # a huge index used to become a 4-Gbit int before it was rejected
    "coverage-index-range": (
        "coverage", _put_at("index0", 0, struct.pack("<I", 0xFFFFFFF0)), "out of range", "index0"),
    # index 0 in the second entry repeats or undercuts the first
    "coverage-index-order": (
        "coverage", _put_at("index1", 0, bytes(4)), "is not ascending", "index1"),
    "coverage-camera-direction": (
        "coverage", _put_at("camera0", 24, struct.pack("<d", 2.0)),
        "camera 0: direction must be unit length", "camera0"),
    "coverage-camera-aspect": (
        "coverage", _put_at("camera1", 80, struct.pack("<d", math.nan)),
        "camera 1: aspect", "camera1"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_FILES))
def test_loader_errors_name_the_byte_offset(tmp_path, case):
    kind, damage, message, at = DAMAGED_FILES[case]
    if kind == "model":
        data, cfg_at = model_file(tmp_path, tiny_model()[0])
        loader = load_model
    else:
        inst = generate_instance(SyntheticSpec("random_patches", 4, 4, 3, seed=1))
        views = [ViewPoint.aimed([0.5 * k, 1.0, 2.0]) for k in range(inst.table.n_views)]
        p = tmp_path / "t.cov"
        save_coverage(p, CoverageTable.build(inst.table.mesh, views, inst.table.coverage))
        data, cfg_at = p.read_bytes(), None
        loader = load_coverage
        assert inst.table.coverage[0].count >= 2
    if at == "config":
        at = cfg_at
    elif isinstance(at, str):
        at = coverage_at(data, at)
    elif callable(at):
        at = at(data)
    p = tmp_path / "damaged"
    p.write_bytes(damage(data, cfg_at))
    with pytest.raises(FormatError) as err:
        loader(p)
    assert message in str(err.value)
    assert str(err.value).endswith(f"(at byte {at})")


class TestPlanIO:
    def test_round_trip_exact(self, tmp_path):
        plan = Plan((3, 0, 2), (0.0, 1.0), 0.987654321, "fixed-lambda", True)
        p = tmp_path / "plan.json"
        save_plan(p, plan, runtime_seconds=1.25)
        back, runtime = load_plan(p)
        assert back == plan
        assert runtime == 1.25

    def test_fraction_rounded_above_one_loads(self, tmp_path):
        # a full plan's area can sum a few ulps above the achievable area
        plan = Plan((0, 1), (0.0,), 1.0000000000000004, "greedy")
        p = tmp_path / "plan.json"
        save_plan(p, plan)
        assert load_plan(p)[0] == plan

    def test_runtime_optional(self, tmp_path):
        plan = Plan((0,), (), 1.0, "greedy")
        p = tmp_path / "plan.json"
        save_plan(p, plan)
        back, runtime = load_plan(p)
        assert back == plan
        assert runtime is None

    def test_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"format": "other"}))
        with pytest.raises(FormatError):
            load_plan(p)
        p.write_text(json.dumps({"format": "viewplan-plan", "version": 2}))
        with pytest.raises(FormatError):
            load_plan(p)
        p.write_text(json.dumps({"format": "viewplan-plan", "version": 1}))
        with pytest.raises(FormatError):
            load_plan(p)

    @pytest.mark.parametrize("field,entries,message", [
        ("order", "[0, 1.5]", "order entry 1.5"),
        ("order", "[true, 1]", "order entry True"),
        ("order", "[2, -1]", "order entry -1"),
        ("order", '"01"', "must be lists"),
        ("lambdas", "[NaN]", "finite"),
        ("lambdas", "[Infinity]", "finite"),
        ("lambdas", "[-0.5]", "nonnegative"),
        ("lambdas", "[false]", "lambda entry False"),
        ("order", "[1, 1]", "repeats a view"),
        ("coverage_fraction", "NaN", "coverage_fraction nan"),
        ("coverage_fraction", "Infinity", "coverage_fraction inf is not"),
        ("coverage_fraction", "1.5", "coverage_fraction 1.5"),
        ("coverage_fraction", "1.000001", "coverage_fraction 1.000001"),
        ("coverage_fraction", "-0.25", "coverage_fraction -0.25"),
        ("coverage_fraction", '"1.0"', "coverage_fraction '1.0'"),
        ("complete", '"no"', "complete 'no'"),
        ("complete", "1", "complete 1"),
        ("complete", "null", "complete None"),
    ])
    def test_rejects_malformed_entries(self, tmp_path, field, entries, message):
        p = tmp_path / "plan.json"
        save_plan(p, Plan((3, 0, 2), (0.0, 1.0), 1.0, "fixed-lambda"))
        doc = json.loads(p.read_text())
        doc[field] = "@"
        p.write_text(json.dumps(doc).replace('"@"', entries))
        with pytest.raises(FormatError, match=message):
            load_plan(p)


class TestReports:
    def test_method_row_fields(self):
        plan = Plan((1, 0), (1.0,), 1.0, "alt-lambda")
        row = method_row("trap", plan, None)
        assert row.source == "trap"
        assert row.view_count == 2
        assert row.runtime_seconds == 0.0
        assert row.lambda_sequence == (1.0,)

    def test_curve_rows_thin_out(self):
        model, _ = tiny_model()
        lengths = np.ones(10_250, dtype=np.int32)
        fat = TrainedModel(model.network, model.config, lengths,
                           model.mesh_digest, model.table_digest, model.n_views)
        rows = curve_rows("m", fat)
        assert len(rows) == 10_002
        assert rows[0].episode == 1
        assert rows[10_000].episode == 10_100
        assert rows[-1].episode == 10_200
        assert all(r.episode_return == -r.length for r in rows)

    def test_method_csv_text(self, tmp_path):
        p = tmp_path / "methods.csv"
        rows = [method_row("a", Plan((0, 1), (0.0,), 1.0, "greedy"), 0.5)]
        write_method_csv(p, rows)
        text = p.read_text()
        assert text.splitlines()[0] == \
            "source,method,view_count,coverage_fraction,runtime_seconds,lambda_sequence"
        assert text.splitlines()[1] == "a,greedy,2,1.0,0.5,0.0"

    def test_curve_csv_text(self, tmp_path):
        model, _ = tiny_model()
        p = tmp_path / "curve.csv"
        write_curve_csv(p, curve_rows("m", model)[:2])
        lines = p.read_text().splitlines()
        assert lines[0] == "source,episode,length,return"
        assert lines[1].startswith("m,1,")

    def test_csv_floats_reparse(self, tmp_path):
        p = tmp_path / "methods.csv"
        frac = 0.123456789123456789
        write_method_csv(p, [method_row("x", Plan((0,), (0.7,), frac, "greedy"), None)])
        cells = p.read_text().splitlines()[1].split(",")
        assert float(cells[3]) == frac
        assert float(cells[5]) == 0.7

    def test_csv_numbers_from_every_planner_parse(self, tmp_path):
        model, table = tiny_model(episodes=20)
        plans = [run_fixed_lambda(table, 0.0), run_fixed_lambda(table, 1.0, rcc=0.5),
                 exact_min_cover(table), plan_with_model(model, table, 1.0),
                 plan_with_model(model, table, 0.5)]
        assert all(type(plan.final_coverage_fraction) is float for plan in plans)
        p = tmp_path / "methods.csv"
        write_method_csv(p, [method_row(f"s{i}", plan, 0.25) for i, plan in enumerate(plans)])
        lines = p.read_text().splitlines()[1:]
        assert len(lines) == len(plans)
        for line, plan in zip(lines, plans):
            _source, _method, views, fraction, runtime, seq = line.split(",")
            assert int(views) == len(plan.order)
            assert float(fraction) == plan.final_coverage_fraction
            assert float(runtime) == 0.25
            lams = [float(l) for l in seq.split(";")] if seq else []
            assert tuple(lams) == plan.lambdas

    def test_no_stray_tempfiles(self, tmp_path):
        plan = Plan((0,), (), 1.0, "greedy")
        save_plan(tmp_path / "plan.json", plan)
        assert [f.name for f in tmp_path.iterdir()] == ["plan.json"]


def mutations(blob: bytes):
    """Truncations and single-bit flips of `blob`."""
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    flip = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)).map(
        lambda pb: blob[:pb[0]] + bytes([blob[pb[0]] ^ (1 << pb[1])]) + blob[pb[0] + 1:])
    return st.one_of(cut, flip)


@pytest.fixture(scope="module")
def fuzz_targets(tmp_path_factory):
    """Per file kind: its loader, a valid file's bytes, the path a mutated copy
    is written to, and a CLI command that reads that path."""
    d = tmp_path_factory.mktemp("fuzz")
    model, table = tiny_model()
    views = [ViewPoint.aimed([0.5 * k, 1.0, 2.0], fov_y=math.radians(50.0)) for k in range(3)]
    cov = d / "tiny.cov"
    save_coverage(cov, CoverageTable.build(table.mesh, views, table.coverage), cert=(2, 2, 2))
    save_model(d / "tiny.wts", model)
    save_plan(d / "plan.json", Plan((0, 1), (1.0,), 1.0, "fixed-lambda"), runtime_seconds=0.25)
    (d / "square.obj").write_text(SQUARE_OBJ)
    save_cameras(d / "cams.json", [ViewPoint.aimed([0.35, 0.35, 2.0], [0.35, 0.35, 0.0],
                                                   up_hint=[0.0, 1.0, 0.0])])
    out = str(d / "out")
    targets = {
        "coverage": (load_coverage, cov, lambda p: [
            "train", "--coverage", p, "--algo", "sarsa", "--seed", "0", "--episodes", "2",
            "--hidden", "2", "--out", out]),
        "model": (load_model, d / "tiny.wts", lambda p: [
            "plan", "--coverage", str(cov), "--model", p, "--out", out]),
        "plan": (load_plan, d / "plan.json", lambda p: [
            "report", "--inputs", p, "--csv", out]),
        "cameras": (load_cameras, d / "cams.json", lambda p: [
            "precompute", "--mesh", str(d / "square.obj"), "--cameras", p, "--out", out]),
    }
    return {kind: (loader, path.read_bytes(), d / f"mutated-{path.name}", argv)
            for kind, (loader, path, argv) in targets.items()}


class TestLoaderFuzz:
    @pytest.mark.parametrize("kind", ["coverage", "model", "plan", "cameras"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_file_fails_cleanly(self, fuzz_targets, kind, data):
        # a loader either returns or raises FormatError/ValueError (FormatError
        # is a ValueError), and the CLI maps every such rejection to exit 2
        loader, blob, path, argv = fuzz_targets[kind]
        path.write_bytes(data.draw(mutations(blob)))
        try:
            loader(path)
        except ValueError:
            assert main(argv(str(path))) == 2
        else:
            assert main(argv(str(path))) in (0, 2, 3)
