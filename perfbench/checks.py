"""Output checks for the benchmark's CLI steps.

The checks read the program's files with their own parsers, written from the
documented formats, so a defect in viewplan's loaders cannot hide a defect in
its writers. Every check returns a list of problems; a step whose list is not
empty counts as failed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALGORITHMS = ("sarsa", "watkins-q", "td")  # the weight files' algorithm tags, in order
CURVE_KEEP_ALL = 10_000
CURVE_STRIDE = 100
METHOD_HEADER = ["source", "method", "view_count", "coverage_fraction", "runtime_seconds",
                 "lambda_sequence"]
AREA_RTOL = 1e-9  # area sums may differ from the program's in the last bits


class _Bytes:
    def __init__(self, data: bytes, label: str):
        self.data, self.off, self.label = data, 0, label

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ValueError(f"{self.label}: truncated at byte {self.off}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype=dtype)

    def end(self) -> None:
        if self.off != len(self.data):
            raise ValueError(f"{self.label}: {len(self.data) - self.off} trailing bytes")


@dataclass
class Cache:
    """A coverage cache as stored: geometry, per-view triangle lists, certificate."""

    vertices: np.ndarray
    triangles: np.ndarray
    views: list[np.ndarray]
    cert: tuple | None
    has_cameras: bool
    digest: str  # the table digest viewplan computes for the same content

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def mask(self, view_indices) -> np.ndarray:
        out = np.zeros(self.n_triangles, dtype=bool)
        for v in view_indices:
            out[self.views[v]] = True
        return out

    def areas(self) -> np.ndarray:
        v = self.vertices[self.triangles]
        return 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)


def read_cache(path) -> Cache:
    r = _Bytes(Path(path).read_bytes(), str(path))
    if r.take(4) != b"VPCV" or r.unpack("I")[0] != 1:
        raise ValueError(f"{path}: not a version-1 coverage cache")
    stored_mesh_digest = r.take(32).hex()
    n_verts, n_tris = r.unpack("II")
    vertices = r.array("<f8", 3 * n_verts).reshape(n_verts, 3)
    triangles = r.array("<u4", 3 * n_tris).reshape(n_tris, 3).astype(np.int64)
    r.unpack("d")  # normalization scale
    (n_views,) = r.unpack("I")
    views = []
    for _ in range(n_views):
        (count,) = r.unpack("I")
        idx = r.array("<u4", count)
        views.append(idx)
    has_cameras = r.take(1) != b"\x00"
    if has_cameras:
        r.take(n_views * (9 + 4) * 8)
    cert = None
    if r.take(1) != b"\x00":
        cert = tuple(None if c < 0 else c for c in r.unpack("iii"))
    r.end()

    h = hashlib.sha256(b"viewplan-mesh-v1")
    h.update(np.uint64(n_verts).tobytes())
    h.update(np.uint64(n_tris).tobytes())
    h.update(vertices.astype("<f8").tobytes())
    h.update(triangles.astype("<i8").tobytes())
    mesh_digest = h.hexdigest()
    if mesh_digest != stored_mesh_digest:
        raise ValueError(f"{path}: stored mesh digest does not match the stored mesh")
    h = hashlib.sha256(b"viewplan-table-v1")
    h.update(bytes.fromhex(mesh_digest))
    for idx in views:
        h.update(np.uint32(len(idx)).tobytes())
        h.update(idx.astype("<u4").tobytes())
    return Cache(vertices, triangles, [v.astype(np.int64) for v in views], cert, has_cameras,
                 h.hexdigest())


@dataclass
class Model:
    algorithm: str
    n_views: int
    table_digest: str
    episode_lengths: np.ndarray


def read_model(path) -> Model:
    r = _Bytes(Path(path).read_bytes(), str(path))
    if r.take(4) != b"VPNW" or r.unpack("I")[0] != 1:
        raise ValueError(f"{path}: not a version-1 weights file")
    (code,) = r.unpack("B")
    if code >= len(ALGORITHMS):
        raise ValueError(f"{path}: unknown algorithm tag {code}")
    algorithm = ALGORITHMS[code]
    n_views, n_actions, hidden = r.unpack("III")
    inputs = n_views if algorithm == "td" else n_views + n_actions
    r.take(8 * (hidden * inputs + 2 * hidden + 1))
    (cfg_len,) = r.unpack("I")
    json.loads(r.take(cfg_len).decode("utf-8"))
    r.take(32)  # mesh digest
    table_digest = r.take(32).hex()
    lengths = np.zeros(0, dtype="<i4")
    if r.take(1) != b"\x00":
        (count,) = r.unpack("I")
        lengths = r.array("<i4", count)
    r.end()
    return Model(algorithm, n_views, table_digest, lengths)


def read_plan(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != "viewplan-plan":
        raise ValueError(f"{path}: not a plan file")
    return doc


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checker:
    """Checks each step's outputs and collects what the metrics need.

    The table digests, plan orders and model hashes of the first pass are kept
    in `first`, keyed by file name. Later passes must reproduce them exactly.
    `pins` holds the values stored for the pinned seed. They apply to every
    step when `pinned_seed` is true, and to the steps that are not `seeded`
    otherwise. Tables and baseline plans must equal them. Weight hashes and
    the plans of trained models that differ are only listed in
    `model_mismatches`, because a justified change of low-order weight bits is
    allowed and may flip a near-tie in a model's plan. `compared` counts the
    values checked against pins.
    """

    def __init__(self, pins: dict | None = None, pinned_seed: bool = False):
        self.pins = pins or {}
        self.pinned_seed = pinned_seed
        self.compared = 0
        self.first: dict | None = None
        self.observed: dict = {}
        self.caches: dict[str, Cache] = {}
        self.model_mismatches: set[str] = set()
        self.plan_views = 0
        self.excess_views = 0

    def start_pass(self) -> None:
        self.caches.clear()
        self.observed = {"tables": {}, "plans": {}, "models": {}}
        self.plan_views = 0
        self.excess_views = 0

    def end_pass(self) -> None:
        if self.first is None:
            self.first = self.observed

    def _record(self, kind: str, step, path, value) -> list[str]:
        name = Path(path).name
        self.observed[kind][name] = value
        problems = []
        if self.first is not None and self.first[kind].get(name, value) != value:
            problems.append(f"{name} differs from the first pass: not deterministic")
        pinned = None
        if self.pinned_seed or not step.seeded:
            pinned = self.pins.get(kind, {}).get(name)
        if pinned is not None and self.first is None:
            self.compared += 1
        if pinned is not None and pinned != value:
            if kind == "models" or step.kind == "plan":
                self.model_mismatches.add(name)
            else:
                problems.append(f"{name} differs from its pinned value")
        return problems

    def cache(self, path) -> Cache:
        if path not in self.caches:
            self.caches[path] = read_cache(path)
        return self.caches[path]

    def check(self, step) -> list[str]:
        try:
            return getattr(self, "_" + step.kind)(step)
        except (OSError, ValueError, KeyError, IndexError, TypeError, struct.error) as err:
            return [f"{type(err).__name__}: {err}"]

    def _table(self, step) -> list[str]:
        cache = self.cache(step.output)
        problems = self._record("tables", step, step.output, cache.digest)
        if not all(len(v) == 0 or (np.all(np.diff(v) > 0) and v[-1] < cache.n_triangles)
                   for v in cache.views):
            problems.append("a view's triangle list is unsorted or out of range")
        return problems

    def _precompute(self, step) -> list[str]:
        problems = self._table(step)
        cache = self.cache(step.output)
        if not cache.has_cameras:
            problems.append("precomputed cache stores no cameras")
        if cache.cert is not None:
            problems.append("precomputed cache claims a certificate")
        return problems

    def _gen(self, step) -> list[str]:
        problems = self._table(step)
        spec = json.loads(Path(step.argv[step.argv.index("--spec") + 1]).read_text())
        cache = self.cache(step.output)
        if cache.n_triangles != 2 * spec["rows"] * spec["cols"]:
            problems.append(f"{cache.n_triangles} triangles for a "
                            f"{spec['rows']}x{spec['cols']} grid")
        if len(cache.views) != spec["views"]:
            problems.append(f"{len(cache.views)} views, spec asks for {spec['views']}")
        certified = spec.get("certify", True)
        if certified and (cache.cert is None or cache.cert[0] is None):
            problems.append("certified instance has no exact minimum")
        if not certified and cache.cert is not None and cache.cert[0] is not None:
            problems.append("uncertified instance claims an exact minimum")
        return problems

    def _train(self, step) -> list[str]:
        model = read_model(step.output)
        problems = self._record("models", step, step.output, file_sha256(step.output))
        cache = self.cache(step.coverage)
        if model.algorithm != step.algorithm:
            problems.append(f"model says {model.algorithm}, trained {step.algorithm}")
        if model.n_views != len(cache.views):
            problems.append(f"model has {model.n_views} views, table {len(cache.views)}")
        if model.table_digest != cache.digest:
            problems.append("model's table digest differs from the coverage table's")
        if len(model.episode_lengths) != step.episodes or (model.episode_lengths < 0).any():
            problems.append(f"episode log has {len(model.episode_lengths)} entries, "
                            f"expected {step.episodes}")
        return problems

    def _plan(self, step) -> list[str]:
        doc = read_plan(step.output)
        cache = self.cache(step.coverage)
        order = [int(i) for i in doc["order"]]
        problems = self._record("plans", step, step.output, order)
        if len(set(order)) != len(order) or not all(0 <= i < len(cache.views) for i in order):
            return problems + [f"plan order {order} repeats or leaves the table"]
        if doc["complete"] is not True:
            problems.append("plan is marked incomplete")
        self.plan_views += len(order)
        achievable = cache.mask(range(len(cache.views)))
        covered = cache.mask(order)
        if step.rcc >= 1.0:
            if (achievable & ~covered).any():
                problems.append(f"plan misses {int((achievable & ~covered).sum())} achievable "
                                "triangles")
        else:
            area = cache.areas()
            target = step.rcc * float(area[achievable].sum())
            if float(area[covered].sum()) < target * (1.0 - AREA_RTOL):
                problems.append(f"plan covers less than rcc={step.rcc} of the achievable area")
        oracle = None if cache.cert is None else cache.cert[0]
        if oracle is not None and step.rcc >= 1.0:
            if len(order) < oracle:
                problems.append(f"{len(order)} views beat the certified minimum {oracle}")
            self.excess_views += len(order) - oracle
        return problems

    _baseline = _plan

    def _report(self, step) -> list[str]:
        problems = []
        with open(step.output, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        plans = [p for p in step.inputs if p.endswith(".json")]
        if not rows or rows[0] != METHOD_HEADER:
            return [f"methods CSV header is {rows[:1]}"]
        if len(rows) - 1 != len(plans):
            problems.append(f"{len(rows) - 1} method rows for {len(plans)} plans")
        for row, plan in zip(rows[1:], plans):
            order = read_plan(plan)["order"]
            if row[0] != Path(plan).stem or int(row[2]) != len(order):
                problems.append(f"method row {row[:3]} disagrees with {Path(plan).name}")
            for field in row[3:5] + (row[5].split(";") if row[5] else []):
                float(field)  # raises ValueError on anything but a plain number
        if step.curves is not None:
            models = [p for p in step.inputs if not p.endswith(".json")]
            kept = sum(1 for e in range(1, step.episodes + 1)
                       if e <= CURVE_KEEP_ALL or e % CURVE_STRIDE == 0)
            with open(step.curves, newline="", encoding="utf-8") as fh:
                curve_rows = list(csv.reader(fh))
            if curve_rows[:1] != [["source", "episode", "length", "return"]]:
                problems.append(f"curves CSV header is {curve_rows[:1]}")
            elif len(curve_rows) - 1 != kept * len(models):
                problems.append(f"{len(curve_rows) - 1} curve rows, expected {kept * len(models)}")
        return problems
