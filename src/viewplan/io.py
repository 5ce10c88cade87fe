"""File formats: OBJ meshes, camera lists, coverage caches, model weights,
plans, and CSV reports.

Binary formats are little-endian, magic-tagged, and versioned. Every writer
goes through an atomic replace so a crashed run never leaves a half-written
file behind.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .agents import ALGORITHMS, TrainConfig, TrainedModel, input_width, network_config
from .mesh import Submesh, TriangleMesh
from .network import ValueNetwork
from .planner import Plan
from .visibility import CoverageTable, ViewPoint

COVERAGE_MAGIC = b"VPCV"
WEIGHTS_MAGIC = b"VPNW"
FORMAT_VERSION = 1

_ALGO_CODE = {name: i for i, name in enumerate(ALGORITHMS)}
_CODE_ALGO = {i: name for name, i in _ALGO_CODE.items()}


class FormatError(ValueError):
    """A file failed structural validation (bad magic, version, or truncation)."""


def _atomic_write(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class _Reader:
    """Sequential binary reader that reports the byte offset of any failure."""

    def __init__(self, data: bytes, label: str):
        self.data = data
        self.off = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(
                f"{self.label}: truncated at byte {self.off} (needed {n} more, "
                f"file has {len(self.data)})")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()

    def fail(self, at: int, message: str) -> FormatError:
        return FormatError(f"{self.label}: {message} (at byte {at})")

    def expect_end(self) -> None:
        if self.off != len(self.data):
            raise FormatError(
                f"{self.label}: {len(self.data) - self.off} trailing bytes at byte {self.off}")


# ---------------------------------------------------------------- OBJ meshes

def load_mesh(path, normalize: bool = True) -> TriangleMesh:
    """Wavefront OBJ: keeps v/f records, fan-triangulates polygons, and (by
    default) rescales so the bounding-box diagonal is 1."""
    verts: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise FormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    verts.append((float(parts[1]), float(parts[2]), float(parts[3])))
                except ValueError as err:
                    raise FormatError(f"{path}:{lineno}: bad vertex coordinate") from err
            elif tag == "f":
                if len(parts) < 4:
                    raise FormatError(f"{path}:{lineno}: face needs at least 3 vertices")
                poly = []
                for token in parts[1:]:
                    try:
                        idx = int(token.split("/")[0])
                    except ValueError as err:
                        raise FormatError(f"{path}:{lineno}: bad face index {token!r}") from err
                    if idx == 0:
                        raise FormatError(f"{path}:{lineno}: OBJ indices are 1-based")
                    poly.append(idx - 1 if idx > 0 else len(verts) + idx)
                for i in range(2, len(poly)):
                    faces.append((poly[0], poly[i - 1], poly[i]))
            # every other record type is ignored
    if not faces:
        raise ValueError(f"{path}: no faces; mesh is empty")
    mesh = TriangleMesh(np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64))
    return mesh.normalized() if normalize else mesh


def save_mesh(path, mesh: TriangleMesh) -> None:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles.tolist()]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------- cameras JSON

def _normalized(name: str, v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"{name} must be a nonzero finite vector, got {v.tolist()}")
    return v / norm


def load_cameras(path) -> list[ViewPoint]:
    """Camera list; angles are degrees in the file and radians in memory."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "viewplan-cameras":
        raise FormatError(f"{path}: not a viewplan camera file")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {doc.get('version')!r}")
    cams = doc.get("cameras")
    if not isinstance(cams, list) or not cams:
        raise FormatError(f"{path}: empty camera list")
    views = []
    for i, cam in enumerate(cams):
        try:
            views.append(ViewPoint(
                position=np.asarray(cam["position"], dtype=np.float64),
                direction=_normalized(
                    "direction", np.asarray(cam["direction"], dtype=np.float64)),
                up=_normalized("up", np.asarray(cam["up"], dtype=np.float64)),
                fov_y=math.radians(float(cam["fov_y_deg"])),
                aspect=float(cam.get("aspect", 1.0)),
                near=float(cam.get("near", 0.01)),
                far=float(cam.get("far", 100.0)),
            ))
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"{path}: camera {i}: {err}") from err
    return views


def save_cameras(path, views) -> None:
    cams = []
    for v in views:
        cams.append({
            "position": v.position.tolist(),
            "direction": v.direction.tolist(),
            "up": v.up.tolist(),
            "fov_y_deg": math.degrees(v.fov_y),
            "aspect": v.aspect,
            "near": v.near,
            "far": v.far,
        })
    doc = {"format": "viewplan-cameras", "version": FORMAT_VERSION, "cameras": cams}
    _atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


# ---------------------------------------------------------------- coverage cache

def save_coverage(path, table: CoverageTable, cert: tuple | None = None) -> None:
    """Coverage cache: mesh digest and geometry, per-view triangle-index lists,
    optional camera parameters, optional certification counts.

    `cert` is (oracle_count, greedy_count, connected_count), None entries allowed.
    """
    out = bytearray()
    out += COVERAGE_MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += bytes.fromhex(table.mesh_digest)
    mesh = table.mesh
    out += struct.pack("<II", mesh.n_vertices, mesh.n_triangles)
    out += mesh.vertices.astype("<f8").tobytes()
    out += mesh.triangles.astype("<u4").tobytes()
    out += struct.pack("<d", mesh.normalization_scale)
    out += struct.pack("<I", table.n_views)
    for sm in table.coverage:
        idx = np.fromiter(sm.triangle_indices(), dtype="<u4", count=sm.count)
        out += struct.pack("<I", len(idx))
        out += idx.tobytes()
    if table.views is None:
        out += b"\x00"
    else:
        out += b"\x01"
        for v in table.views:
            out += np.concatenate([v.position, v.direction, v.up]).astype("<f8").tobytes()
            out += struct.pack("<dddd", v.fov_y, v.aspect, v.near, v.far)
    if cert is None:
        out += b"\x00"
    else:
        out += b"\x01"
        oracle, greedy, connected = cert
        out += struct.pack("<iii",
                           -1 if oracle is None else oracle,
                           -1 if greedy is None else greedy,
                           -1 if connected is None else connected)
    _atomic_write(path, bytes(out))


def load_coverage(path) -> tuple[CoverageTable, tuple | None]:
    r = _Reader(Path(path).read_bytes(), str(path))
    if r.take(4) != COVERAGE_MAGIC:
        raise r.fail(0, "not a coverage cache (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise r.fail(4, f"unsupported coverage version {version}")
    digest_at = r.off
    stored_digest = r.take(32).hex()
    mesh_at = r.off
    n_verts = r.u32()
    n_tris = r.u32()
    vertices = r.array("<f8", 3 * n_verts).reshape(n_verts, 3)
    triangles = r.array("<u4", 3 * n_tris).reshape(n_tris, 3).astype(np.int64)
    scale = r.f64()
    try:
        mesh = TriangleMesh(vertices, triangles, normalization_scale=scale)
    except ValueError as err:
        raise r.fail(mesh_at, f"bad stored mesh: {err}") from err
    if mesh.digest != stored_digest:
        raise r.fail(digest_at, "mesh digest mismatch; cache is stale or corrupt")
    n_views_at = r.off
    n_views = r.u32()
    if n_views == 0:
        raise r.fail(n_views_at, "no views")
    coverage = []
    for i in range(n_views):
        count = r.u32()
        idx_at = r.off
        idx = r.array("<u4", count).astype(np.int64)
        # save_coverage writes each list strictly ascending
        bad = idx >= n_tris
        bad[1:] |= idx[1:] <= idx[:-1]
        if bad.any():
            j = int(np.argmax(bad))
            why = f"out of range (mesh has {n_tris})" if idx[j] >= n_tris else "not ascending"
            raise r.fail(idx_at + 4 * j, f"view {i}: triangle index {idx[j]} is {why}")
        coverage.append(Submesh.from_triangles(mesh, idx.tolist()))
    views = None
    if r.u8():
        views = []
        for i in range(n_views):
            cam_at = r.off
            vals = r.array("<f8", 9)
            fov_y, aspect, near, far = r.f64(), r.f64(), r.f64(), r.f64()
            try:
                views.append(ViewPoint(vals[0:3], vals[3:6], vals[6:9], fov_y, aspect, near, far))
            except ValueError as err:
                raise r.fail(cam_at, f"camera {i}: {err}") from err
    cert = None
    if r.u8():
        vals = [r.i32(), r.i32(), r.i32()]
        cert = tuple(None if v < 0 else v for v in vals)
    r.expect_end()
    return CoverageTable.build(mesh, views, coverage), cert


# ---------------------------------------------------------------- model weights

def save_model(path, model: TrainedModel) -> None:
    """Weights file: header, the network's flat parameter vector (see
    `ValueNetwork`), training config JSON, digests, and episode lengths."""
    cfg = model.config
    out = bytearray()
    out += WEIGHTS_MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<B", _ALGO_CODE[cfg.algorithm])
    out += struct.pack("<III", model.n_views, len(cfg.lambda_set), cfg.hidden)
    out += model.network.params.astype("<f8").tobytes()
    blob = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":")).encode("utf-8")
    out += struct.pack("<I", len(blob))
    out += blob
    out += bytes.fromhex(model.mesh_digest)
    out += bytes.fromhex(model.table_digest)
    out += b"\x01"
    out += struct.pack("<I", len(model.episode_lengths))
    out += model.episode_lengths.astype("<i4").tobytes()
    _atomic_write(path, bytes(out))


def load_model(path) -> TrainedModel:
    r = _Reader(Path(path).read_bytes(), str(path))
    if r.take(4) != WEIGHTS_MAGIC:
        raise r.fail(0, "not a model weights file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise r.fail(4, f"unsupported weights version {version}")
    algo_code = r.u8()
    if algo_code not in _CODE_ALGO:
        raise r.fail(8, f"unknown algorithm tag {algo_code}")
    algorithm = _CODE_ALGO[algo_code]
    n_views = r.u32()
    n_actions = r.u32()
    hidden = r.u32()
    params_at = r.off
    params = r.array("<f8", hidden * (input_width(algorithm, n_views, n_actions) + 2) + 1)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise r.fail(params_at + 8 * int(bad[0]), "non-finite network parameter")
    cfg_len = r.u32()
    cfg_at = r.off
    blob = r.take(cfg_len)
    try:
        raw_cfg = json.loads(blob.decode("utf-8"))
        raw_cfg["lambda_set"] = tuple(raw_cfg["lambda_set"])
        # files from before gamma was dropped from TrainConfig store "gamma": 1.0
        if raw_cfg.pop("gamma", 1.0) != 1.0:
            raise ValueError("gamma must be 1.0: transitions are undiscounted")
        cfg = TrainConfig(**raw_cfg)
    except (ValueError, KeyError, TypeError) as err:
        raise r.fail(cfg_at, f"bad embedded config: {err}") from err
    if cfg.algorithm != algorithm:
        raise r.fail(cfg_at, f"header says {algorithm}, config says {cfg.algorithm}")
    if cfg.hidden != hidden or len(cfg.lambda_set) != n_actions:
        raise r.fail(cfg_at, "header and config disagree on network shape")
    mesh_digest = r.take(32).hex()
    table_digest = r.take(32).hex()
    lengths = np.zeros(0, dtype=np.int32)
    if r.u8():
        count = r.u32()
        lengths = r.array("<i4", count)
    r.expect_end()
    net = ValueNetwork(network_config(cfg, n_views), params)
    return TrainedModel(net, cfg, lengths, mesh_digest, table_digest, n_views)


# ---------------------------------------------------------------- plans

def save_plan(path, plan: Plan, runtime_seconds: float | None = None) -> None:
    doc = {
        "format": "viewplan-plan",
        "version": FORMAT_VERSION,
        "method": plan.method,
        "order": list(plan.order),
        "lambdas": list(plan.lambdas),
        "coverage_fraction": plan.final_coverage_fraction,
        "complete": plan.complete,
    }
    if runtime_seconds is not None:
        doc["runtime_seconds"] = runtime_seconds
    _atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def load_plan(path) -> tuple[Plan, float | None]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "viewplan-plan":
        raise FormatError(f"{path}: not a viewplan plan file")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {doc.get('version')!r}")
    try:
        plan = Plan(
            order=tuple(int(i) for i in doc["order"]),
            lambdas=tuple(float(l) for l in doc["lambdas"]),
            final_coverage_fraction=float(doc["coverage_fraction"]),
            method=str(doc["method"]),
            complete=bool(doc["complete"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: bad plan record: {err}") from err
    runtime = doc.get("runtime_seconds")
    return plan, (None if runtime is None else float(runtime))


# ---------------------------------------------------------------- reports

@dataclass(frozen=True)
class MethodRow:
    source: str
    method: str
    view_count: int
    coverage_fraction: float
    runtime_seconds: float
    lambda_sequence: tuple[float, ...]


@dataclass(frozen=True)
class CurveRow:
    source: str
    episode: int  # 1-based
    length: int
    episode_return: int


CURVE_KEEP_ALL = 10_000
CURVE_STRIDE = 100


def method_row(source: str, plan: Plan, runtime_seconds: float | None) -> MethodRow:
    return MethodRow(source, plan.method, len(plan.order), plan.final_coverage_fraction,
                     0.0 if runtime_seconds is None else runtime_seconds, plan.lambdas)


def curve_rows(source: str, model: TrainedModel) -> list[CurveRow]:
    """Per-episode rows, thinned to every 100th episode beyond the first 10K."""
    rows = []
    for i, length in enumerate(model.episode_lengths.tolist()):
        episode = i + 1
        if episode > CURVE_KEEP_ALL and episode % CURVE_STRIDE != 0:
            continue
        rows.append(CurveRow(source, episode, length, -length))
    return rows


def write_method_csv(path, rows) -> None:
    lines = ["source,method,view_count,coverage_fraction,runtime_seconds,lambda_sequence"]
    for row in rows:
        seq = ";".join(repr(l) for l in row.lambda_sequence)
        lines.append(f"{row.source},{row.method},{row.view_count},"
                     f"{row.coverage_fraction!r},{row.runtime_seconds!r},{seq}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_curve_csv(path, rows) -> None:
    lines = ["source,episode,length,return"]
    for row in rows:
        lines.append(f"{row.source},{row.episode},{row.length},{row.episode_return}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
