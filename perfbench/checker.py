"""Independent checks of loopstatics outputs.

This module never imports loopstatics.  Every expectation is rebuilt from
the node coordinates and bar ends of the input document: its own
incidence signs (+1 where a bar enters a node, -1 where it leaves), its
own equilibrium matrix and rank count, and its own shoelace areas.  The
checks hold for any valid null basis, so they pass whatever BLAS build or
thread count produced the report, and nothing is compared against a
stored copy of earlier output.

Tolerances scale with the state (the largest bar force, and |r|·|f| for
moments), never with a single bar's own magnitude.  The one place a
bar's own magnitude enters is the verdicts: the program judges each bar
against its tolerance times that bar's own force and |r|·|f|, so for a
bar carrying almost none of the state the verdict is decided by rounding
noise, and the checker calls it on neither side (see OWN_FLOOR).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

RANK_RTOL = 1e-9  # the CLI's default --tol, used for its rank decisions
TOL = 1e-9  # state-scaled tolerance for equalities
# A verdict is decisive when the checker's own state-scaled error is this
# far below (must pass) or above (must fail) the program's tolerance.
PASS_BELOW = 1e-12
FAIL_ABOVE = 1e-6
# The program's verdict on a bar compares its own rounding noise (up to
# ~1e-14 of the state on a 7-per-side lattice) with its tolerance times the
# bar's own force, or |r|·|f| for the moment.  Below this share of the
# state's scales the bar's verdict, and whether an axial export draws it
# as a triangle, rests on that noise: such a bar may come out either way.
OWN_FLOOR = 1e-3

_PLANES = ((1, 2), (2, 0), (0, 1), (0, 3), (1, 3), (2, 3))  # jk ki ij ih jh kh
_PART = re.compile(r"_part\d+$")


class CheckError(Exception):
    """An output of the program disagrees with the checker."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Frame:
    """Geometry, incidence and statics of one structure document."""

    def __init__(self, doc: dict):
        self.node_ids = [n["id"] for n in doc["nodes"]]
        index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.pos = np.array([[n["x"], n["y"], n["z"]] for n in doc["nodes"]], float)
        self.bar_ids = [b["id"] for b in doc["bars"]]
        self.bar_index = {b: i for i, b in enumerate(self.bar_ids)}
        self.tail = np.array([index[b["tail"]] for b in doc["bars"]])
        self.head = np.array([index[b["head"]] for b in doc["bars"]])
        self.v, self.e = len(self.node_ids), len(self.bar_ids)
        d = self.pos[self.head] - self.pos[self.tail]
        self.unit = d / np.linalg.norm(d, axis=1)[:, None]
        self.mid = 0.5 * (self.pos[self.head] + self.pos[self.tail])
        cols = np.arange(self.e)
        self.incidence = np.zeros((self.v, self.e))
        self.incidence[self.head, cols] = 1.0
        self.incidence[self.tail, cols] = -1.0
        self.matrix = np.zeros((3 * self.v, self.e))
        for k in range(3):
            self.matrix[3 * self.head + k, cols] = self.unit[:, k]
            self.matrix[3 * self.tail + k, cols] = -self.unit[:, k]
        self.sigma = np.linalg.svd(self.matrix, compute_uv=False)
        self.rank = int(np.sum(self.sigma > RANK_RTOL * self.sigma[0]))
        self.s = self.e - self.rank
        self.m = 3 * self.v - 6 - self.rank

    def null_space(self) -> np.ndarray:
        """Orthonormal e x s basis of the axial self-stresses."""
        _, _, vt = np.linalg.svd(self.matrix)
        return vt[self.rank:].T

    def bar_rows(self, rows: list, what: str) -> list:
        """Reorder per-bar table rows into bar input order, each bar once."""
        by_bar = {}
        for row in rows:
            require(row["bar"] in self.bar_index, f"{what}: unknown bar {row['bar']!r}")
            require(row["bar"] not in by_bar, f"{what}: bar {row['bar']!r} listed twice")
            by_bar[row["bar"]] = row
        require(len(by_bar) == self.e, f"{what}: {len(by_bar)} bars, expected {self.e}")
        return [by_bar[b] for b in self.bar_ids]


def axial_loops(frame: Frame, gens: list, q: np.ndarray) -> dict:
    """Loop resultants carrying the axial forces q: each loop gets its
    generator's force q·u and moment midpoint x force."""
    loops = {}
    for g in gens:
        i = frame.bar_index[g]
        force = q[i] * frame.unit[i]
        loops[g] = np.concatenate([force, np.cross(frame.mid[i], force)])
    return loops


def _is_spanning_tree(frame: Frame, tree: set) -> bool:
    parent = list(range(frame.v))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for bar in tree:
        i = frame.bar_index[bar]
        a, b = root(frame.tail[i]), root(frame.head[i])
        if a == b:
            return False
        parent[a] = b
    return len(tree) == frame.v - 1


def check_cycles(frame: Frame, report: dict) -> list:
    """Counts, tree and cycle basis; returns the generators in report order."""
    c = report["counts"]
    require((c["v"], c["e"]) == (frame.v, frame.e), "counts v/e differ from the document")
    require(c["cycles"] == frame.e - frame.v + 1, "cycle count != e - v + 1")
    tree = set(report["tree"]["edges"])
    require(tree <= set(frame.bar_ids), "tree names unknown bars")
    require(_is_spanning_tree(frame, tree), "reported tree is not a spanning tree")
    gens = [cyc["generator"] for cyc in report["cycles"]]
    require(len(gens) == c["cycles"], "cycle list length != cycle count")
    require(
        len(set(gens)) == len(gens) and set(gens) == set(frame.bar_ids) - tree,
        "generators are not exactly the bars outside the tree",
    )
    chains = np.zeros((len(gens), frame.e))
    for row, cyc in enumerate(report["cycles"]):
        g = cyc["generator"]
        for bar, coeff in cyc["chain"]:
            require(bar in frame.bar_index, f"loop {g!r} names unknown bar {bar!r}")
            require(coeff in (1, -1), f"loop {g!r} has coefficient {coeff!r}")
            require(bar == g or bar in tree, f"loop {g!r} runs through non-tree bar {bar!r}")
            chains[row, frame.bar_index[bar]] += coeff
        require(chains[row, frame.bar_index[g]] == 1, f"loop {g!r} lacks +1 on its generator")
    bad = np.flatnonzero(np.any(chains @ frame.incidence.T != 0, axis=1))
    if bad.size:
        raise CheckError(f"loop {gens[bad[0]]!r} has a nonzero boundary")
    return gens


def check_statics(frame: Frame, report: dict, s: int, m: int) -> np.ndarray:
    """Counts against the checker's own rank and the by-construction values;
    returns the reported null basis as an e x s array."""
    st = report["statics"]
    require(
        (st["s"], st["m"], st["rank"]) == (frame.s, frame.m, frame.rank),
        f"statics s={st['s']} m={st['m']} rank={st['rank']}, checker finds "
        f"s={frame.s} m={frame.m} rank={frame.rank}",
    )
    require((frame.s, frame.m) == (s, m),
            f"frame has s={frame.s} m={frame.m}, built for s={s} m={m}")
    require(st["s"] - st["m"] == frame.e - 3 * frame.v + 6, "s - m != e - 3v + 6")
    if frame.rank:
        sigma = frame.sigma[frame.rank - 1]
        require(abs(st["sigma_min"] - sigma) <= 1e-6 * sigma,
                "sigma_min differs from the checker's")
    vectors = st["selfstress_basis"]
    require(len(vectors) == frame.s,
            f"null basis has {len(vectors)} vectors, expected {frame.s}")
    q = np.zeros((frame.e, len(vectors)))
    for col, vec in enumerate(vectors):
        require([bar for bar, _ in vec] == frame.bar_ids,
                f"basis vector {col} does not list every bar in order")
        q[:, col] = [value for _, value in vec]
    require(np.allclose(q.T @ q, np.eye(q.shape[1]), rtol=0, atol=TOL),
            "null basis is not orthonormal")
    residual = np.linalg.norm(frame.matrix @ q, axis=0)
    if np.any(residual > TOL):
        raise CheckError(f"|A q| = {residual.max():.3e} for a reported basis vector")
    return q


def _scales(frame: Frame, force, moment) -> tuple[float, float]:
    """The state's force scale (largest bar force) and moment scale."""
    f_norm = np.linalg.norm(force, axis=1)
    scale_f = float(np.max(f_norm))
    lever = np.linalg.norm(frame.mid, axis=1) * f_norm
    scale_m = max(float(np.max(lever)), float(np.max(np.linalg.norm(moment, axis=1))))
    require(scale_f > 0, "every bar force is zero")
    return scale_f, scale_m


def check_bar_values(frame: Frame, gens: list, loops: dict, force, moment) -> tuple[float, float]:
    """Bar resultants given per bar (e x 3 force and moment arrays).

    The checker does not repeat the program's chain summation.  Each
    generator bar must carry its own loop's resultant, and the incidence-
    weighted force and moment sums must vanish at every node; together
    these fix every tree bar.  Returns the state's force and moment scales.
    """
    scale_f, scale_m = _scales(frame, force, moment)
    for g in gens:
        i = frame.bar_index[g]
        want = loops[g]
        require(
            np.linalg.norm(force[i] - want[:3]) <= TOL * scale_f
            and np.linalg.norm(moment[i] - want[3:]) <= TOL * scale_m,
            f"generator bar {g!r} does not carry its loop's resultant",
        )
    f_node = np.linalg.norm(frame.incidence @ force, axis=1)
    m_node = np.linalg.norm(frame.incidence @ moment, axis=1)
    require(np.all(f_node <= TOL * scale_f), f"force sum {f_node.max():.3e} at a node")
    require(np.all(m_node <= TOL * scale_m), f"moment sum {m_node.max():.3e} at a node")
    return scale_f, scale_m


def check_axial_values(frame: Frame, force, moment, q, scale_f: float, scale_m: float) -> None:
    """Bar forces q·u along each bar and total moments midpoint x force."""
    err_f = np.linalg.norm(force - q[:, None] * frame.unit, axis=1)
    err_m = np.linalg.norm(moment - np.cross(frame.mid, force), axis=1)
    require(np.all(err_f <= TOL * scale_f), "bar forces differ from the axial forces")
    require(np.all(err_m <= TOL * scale_m), "bar moments differ from midpoint x force")


def noisy_bars(frame: Frame, force, moment, scale_f: float, scale_m: float) -> np.ndarray:
    """Bars whose own force, or own moment scale, is below OWN_FLOOR of
    the state's: the program's per-bar verdict on them is rounding noise."""
    f_norm = np.linalg.norm(force, axis=1)
    own_m = np.maximum(np.linalg.norm(moment, axis=1),
                       np.linalg.norm(frame.mid, axis=1) * f_norm)
    return (f_norm < OWN_FLOOR * scale_f) | (own_m < OWN_FLOOR * scale_m)


def _agrees(verdict: bool, error: float, noisy: bool) -> bool:
    if error <= PASS_BELOW and not noisy:
        return verdict
    if error >= FAIL_ABOVE:
        return not verdict
    return True


def check_verdicts(frame: Frame, report: dict, force, moment, scale_f, scale_m,
                   all_axial: bool) -> None:
    """Axial verdicts against the checker's own perpendicular-force and
    moment errors, wherever those are decisive."""
    rows = frame.bar_rows(report["axial_check"], "axial_check")
    along = np.sum(force * frame.unit, axis=1)
    perp = np.linalg.norm(force - along[:, None] * frame.unit, axis=1) / scale_f
    merr = np.linalg.norm(moment - np.cross(frame.mid, force), axis=1) / scale_m
    noisy = noisy_bars(frame, force, moment, scale_f, scale_m)
    for i, row in enumerate(rows):
        bar = row["bar"]
        if not _agrees(row["force_parallel"], perp[i], noisy[i]):
            raise CheckError(f"bar {bar!r}: force_parallel disagrees (error {perp[i]:.2e})")
        if not _agrees(row["moment_matches"], merr[i], noisy[i]):
            raise CheckError(f"bar {bar!r}: moment_matches disagrees (error {merr[i]:.2e})")
        require(row["is_axial"] == (row["force_parallel"] and row["moment_matches"]),
                f"bar {bar!r}: is_axial inconsistent")
        require(abs(row["axial_force"] - along[i]) <= TOL * scale_f,
                f"bar {bar!r}: axial_force differs")
        require(row["is_axial"] or not all_axial or noisy[i],
                f"bar {bar!r}: axial state reported as not axial")


def _check_state_tables(frame, report, gens, loops, q) -> None:
    rows = frame.bar_rows(report["bar_resultants"], "bar_resultants")
    force = np.array([r["force"] for r in rows], float)
    moment = np.array([r["total_moment"] for r in rows], float)
    axial = np.array([r["axial_force"] for r in rows], float)
    scale_f, scale_m = check_bar_values(frame, gens, loops, force, moment)
    require(np.all(np.abs(axial - np.sum(force * frame.unit, axis=1)) <= TOL * scale_f),
            "axial_force != force . u")
    residuals = report["node_residuals"]
    require(len(residuals) == frame.v, "node_residuals does not list every node")
    worst_f = max(np.linalg.norm(r["force"]) for r in residuals)
    worst_m = max(np.linalg.norm(r["moment"]) for r in residuals)
    require(worst_f <= TOL * scale_f and worst_m <= TOL * scale_m,
            "reported node residual is not zero")
    if q is not None:
        check_axial_values(frame, force, moment, q, scale_f, scale_m)
        require(np.all(np.abs(axial - q) <= TOL * scale_f),
                "axial forces differ from the self-stress")
    check_verdicts(frame, report, force, moment, scale_f, scale_m, all_axial=q is not None)


def check_axial_report(frame: Frame, report: dict, s: int, m: int, struts=()) -> None:
    """`loopstatics axial`: basis, statics and the state built from the
    report's first null-basis vector."""
    gens = check_cycles(frame, report)
    basis = check_statics(frame, report, s, m)
    if s == 0:
        require(not report["bar_resultants"] and not report["axial_check"],
                "state reported without a self-stress")
        return
    q = basis[:, 0]
    _check_state_tables(frame, report, gens, axial_loops(frame, gens, q), q)
    if struts:
        strut = np.array([b in struts for b in frame.bar_ids])
        strut_signs, cable_signs = set(np.sign(q[strut])), set(np.sign(q[~strut]))
        require(len(strut_signs) == 1 and strut_signs == {-x for x in cable_signs},
                "struts and cables do not carry opposite signs")


def check_state_report(frame: Frame, report: dict, gens: list, loops: dict, q=None) -> None:
    """`loopstatics check --state`: basis and tables for a supplied state
    (q gives the axial forces when the state is axial)."""
    require(check_cycles(frame, report) == gens,
            "basis differs from the one the state was written for")
    require(report["statics"] == {}, "check report carries statics")
    _check_state_tables(frame, report, gens, loops, q)


def check_gen_prism(doc: dict) -> None:
    """`gen prism --critical` output sits at the closed-form twist pi/6."""
    twist = doc["metadata"]["twist"]
    require(abs(twist - math.pi / 6) <= 1e-9, f"critical twist {twist!r} is not pi/6")
    pos = {n["id"]: (n["x"], n["y"]) for n in doc["nodes"]}
    angle = math.atan2(pos["t0"][1], pos["t0"][0]) - math.atan2(pos["b0"][1], pos["b0"][0])
    require(abs(angle - math.pi / 6) <= 1e-9, "top triangle is not turned by pi/6")
    require(len(doc["bars"]) == 12 and len(doc["nodes"]) == 6, "prism is not 6 nodes and 12 bars")


# -- diagram meshes --------------------------------------------------------


def read_mesh(path: Path) -> tuple[int, list]:
    """Vertex count and (object name, [polylines as k x 4 arrays]) pairs."""
    vertices, objects = [], []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        tag, *rest = line.split()
        if tag == "o":
            objects.append((rest[0], []))
        elif tag == "v":
            vertices.append([float(x) for x in rest] + [0.0])
        elif tag == "h":
            vertices[-1][3] = float(rest[0])
        elif tag == "l":
            objects[-1][1].append(np.array([vertices[int(i) - 1] for i in rest]))
        else:
            raise CheckError(f"{path.name}: unknown record {tag!r}")
    return len(vertices), objects


def loop_areas(points: np.ndarray) -> np.ndarray:
    """Six shoelace areas of a closed polyline (first vertex repeated)."""
    p = points[:-1] - points[0]
    n = np.roll(p, -1, axis=0)
    return np.array([0.5 * np.sum(p[:, a] * n[:, b] - p[:, b] * n[:, a]) for a, b in _PLANES])


def check_form(frame: Frame, directory: Path) -> None:
    vertex_count, objects = read_mesh(directory / "form.obj")
    require(vertex_count == frame.v, f"form.obj has {vertex_count} vertices, expected {frame.v}")
    require(len(objects) == 1 and objects[0][0] == "form", "form.obj is not one 'form' object")
    lines = objects[0][1]
    require(len(lines) == frame.e, f"form.obj has {len(lines)} lines, expected {frame.e}")
    require(all(len(line) == 2 for line in lines), "form.obj lines are not two-point lines")
    ends = np.array([line[:, :3] for line in lines])
    require(np.array_equal(ends[:, 0], frame.pos[frame.tail])
            and np.array_equal(ends[:, 1], frame.pos[frame.head]),
            "form.obj lines do not join each bar's tail to its head")


def bar_areas(frame: Frame, objects: list) -> tuple[np.ndarray, list]:
    """Summed six-plane areas per bar (e x 6) and the bars realized as chains."""
    by_name = {f"bar_{b}": frame.bar_index[b] for b in frame.bar_ids}
    areas = np.zeros((frame.e, 6))
    chains = set()
    for name, polylines in objects:
        base = _PART.sub("", name)
        require(base in by_name, f"force.obj object {name!r} names no bar")
        if base != name:
            chains.add(base)
        for points in polylines:
            require(len(points) >= 4 and np.array_equal(points[0], points[-1]),
                    f"{name}: polyline is not closed")
            areas[by_name[base]] += loop_areas(points)
    return areas, sorted(chains)


def check_export(frame: Frame, directory: Path, stdout: str, stderr: str,
                 gens=None, loops=None, q=None) -> None:
    """`loopstatics export`: form diagram, and force-diagram areas equal to
    each bar's resultant.

    With `loops` (a supplied state) the areas are held to the state by
    generators plus node balance; without them (`--axial`) the areas must
    be axial and their axial forces a self-stress of the checker's own
    matrix.  Axial states must come out as one triangle per bar, except on
    noisy bars; every bar realized as a rectangle chain must be named in a
    note on stderr.
    """
    directory = Path(directory)
    require([Path(p).name for p in stdout.split()] == ["form.obj", "force.obj"],
            "export did not list form.obj and force.obj")
    check_form(frame, directory)
    _, objects = read_mesh(directory / "force.obj")
    areas, chains = bar_areas(frame, objects)
    force, moment = areas[:, :3], areas[:, 3:]
    if loops is not None:
        scale_f, scale_m = check_bar_values(frame, gens, loops, force, moment)
    else:
        scale_f, scale_m = _scales(frame, force, moment)
    if loops is None or q is not None:
        along = np.sum(force * frame.unit, axis=1)
        check_axial_values(frame, force, moment, along if q is None else q, scale_f, scale_m)
        residual = np.linalg.norm(frame.matrix @ along)
        require(residual <= TOL * np.linalg.norm(along) * math.sqrt(frame.e),
                f"axial forces of the mesh are not a self-stress (|A q| = {residual:.2e})")
        noisy = noisy_bars(frame, force, moment, scale_f, scale_m)

        def loaded(name):
            return not noisy[frame.bar_index[_PART.sub("", name).removeprefix("bar_")]]

        loaded_chains = [name for name in chains if loaded(name)]
        require(not loaded_chains,
                f"axial bars realized as rectangle chains: {loaded_chains[:3]}")
        require(all(len(p) == 1 and len(p[0]) == 4 for name, p in objects if loaded(name)),
                "axial bar realized by something other than one triangle")
    noted = sorted(line.split()[1] for line in stderr.splitlines() if line.startswith("note: "))
    require(noted == chains, f"{len(noted)} fallback notes for {len(chains)} rectangle chains")


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
