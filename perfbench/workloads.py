"""Workloads of the toricgh benchmark: seeded instance samples and their rows.

A *row* is one check on one instance, as in one row of ``toricgh verify
--json``.  Rows call only the library entry points that the cli's
``_verify_one``, ``cmd_gh``, ``cmd_flags`` and ``load_input`` call, and
they reach every function through its module at call time, so that the
tracer's rebinding sees each call.  A row returns its verdict and the
values it computed; ``Row.failed`` compares those with the reference
table.

Each pass rebuilds every input from its recipe or JSON file, so no
lattice cache survives from one pass into the next.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from math import comb

from toricgh import cli, geometry, localization, rigidity, shelling, toric, verma
from toricgh.polynomial import Polynomial

# The lattice-only suites, in the order of the cli's SUITES.
SUITES = (
    "ds", "reciprocity", "monotonicity", "ubt", "kalai-identity", "cascade",
    "cone-bipyramid", "verma", "truncated",
)

# Population rules.  Catalog entries with more faces are left out: each
# costs a third of a pass on its own, so which of them a seed drew would
# decide the pass time.  The geometric slice also needs d >= 3 (so that
# the rigidity row compares a stress count) and C(n, d) <= 2000, which
# keeps the brute-force facet enumeration of one entry near one second.
MAX_FACES = 400
MAX_SUBSETS = 2000

# Strata: the population sorted by the reference cost of its rows.  The
# TAKE_ALL most costly entries are in every sample: their rows hold the
# p90 row latency and the peak memory, which a draw among them would set.
# The rest is cut into GROUPS groups of equal total cost, groups longer
# than GROUP_SIZE split further; the seed draws one entry per group.
STRATA = {"combinatorial": (8, 4, 12), "geometric": (10, 4, 5)}  # TAKE_ALL, GROUPS, GROUP_SIZE

SHELLING_SEEDS = 3      # line shellings per shelling row, as `verify shelling`
# The localization row classifies the first DIRECTIONS directions of
# sample_directions at grid GRID.  How many directions that call returns
# depends on the seed (4 to 8 at grid 2); at grid 3 it returns at least
# 5 on every entry of the population, so every seed does the same number.
GRID = 3
DIRECTIONS = 5
# Monotonicity rows per scale instance.  With the flags and gh rows a
# pass has 96 rows, 10.5 of them beyond the p90, which therefore lies
# between the 10th and 11th slowest rows: two of the gh rows of the five
# large lattices.  With 16 faces (108 rows) it fell into the gap between
# those and the gh row of cyclic(12,6) and the slowest face rows, and
# moved by a third between seeds.
SCALE_FACES = 14

# (recipe, form): lattice/v1 JSON goes through the validated
# FaceLattice.from_json path; composite recipes skip validation.
SCALE = (
    ("cube7", "json"),
    ("cross7", "json"),
    ("cyclic(12,6)", "json"),
    ("prism(cube6)", "recipe"),
    ("bipyramid(cross6)", "recipe"),
    ("cyclic(14,7)", "recipe"),
)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def passed(result) -> bool:
    """check_reciprocity passes on the zero polynomial; a verdict when truthy."""
    if isinstance(result, Polynomial):
        return result == Polynomial()
    return bool(result)


# -- populations and samples ------------------------------------------


def population(workload, ref):
    """Names a seed may draw, from the reference table's size fields."""
    insts = ref["instances"]
    if workload == "combinatorial":
        return [n for n, r in insts.items() if r["in_catalog"] and r["n_faces"] <= MAX_FACES]
    if workload == "geometric":
        return [
            n for n, r in insts.items()
            if r["in_catalog"] and r.get("n_vertices") and r["dim"] >= 3
            and r["n_faces"] <= MAX_FACES
            and comb(r["n_vertices"], r["dim"]) <= MAX_SUBSETS
        ]
    return [name for name, _ in SCALE]


def strata(workload, ref):
    """Groups of near-equal reference cost, cheapest first."""
    cost = {n: ref["instances"][n]["cost"][workload] for n in population(workload, ref)}
    names = sorted(cost, key=lambda n: (cost[n], n))
    take_all, k, size = STRATA[workload]
    head, top = names[:-take_all], names[-take_all:]
    total = sum(cost[n] for n in head)
    groups, cur, acc = [], [], 0.0
    for n in head:
        cur.append(n)
        acc += cost[n]
        if acc >= total * (len(groups) + 1) / k and len(groups) < k - 1:
            groups.append(cur)
            cur = []
    if cur:
        groups.append(cur)
    return [g[i:i + size] for g in groups for i in range(0, len(g), size)] + [[n] for n in top]


def sample(workload, seed, ref):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scale":
        names = population(workload, ref)
        rng.shuffle(names)
        return names
    return [rng.choice(group) for group in strata(workload, ref)]


class Instance:
    def __init__(self, name, text, ref, faces=()):
        self.name = name
        self.text = text        # recipe or path of the JSON input
        self.ref = ref
        self.faces = faces      # scale: reference faces of the monotonicity rows


def prepare(workload, seed, ref, workdir):
    """Pick the instances and write the JSON inputs; builds no lattice."""
    os.makedirs(workdir, exist_ok=True)
    forms = dict(SCALE)
    out = []
    rng = random.Random(f"faces:{seed}")
    for name in sample(workload, seed, ref):
        r = ref["instances"][name]
        cli.parse_recipe(name)          # a recipe the library cannot read is a setup error
        text, faces = name, ()
        if workload == "geometric":
            text = write_input(workdir, name, {"vertices": r["vertices"]})
        elif workload == "scale":
            if forms[name] == "json":
                text = write_input(workdir, name, r["lattice"])
            faces = pick_faces(r["faces"], rng)
        out.append(Instance(name, text, r, faces))
    return out


def pick_faces(pool, rng):
    """SCALE_FACES faces of the reference pool, drawn round-robin over dimensions."""
    by_dim = {}
    for face in pool:
        by_dim.setdefault(face["dim"], []).append(face)
    queues = [rng.sample(faces, len(faces)) for _, faces in sorted(by_dim.items())]
    picked = []
    while len(picked) < SCALE_FACES and any(queues):
        picked += [q.pop() for q in queues if q][:SCALE_FACES - len(picked)]
    return picked


def write_input(workdir, name, data):
    path = os.path.join(workdir, "".join(c if c.isalnum() else "_" for c in name) + ".json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


# -- rows ---------------------------------------------------------------
#
# A row function returns (verdict, observed values); EXPECT maps a row
# kind to the reference values those observations must equal.


def _suite(suite, inp, seed):
    lat = inp.lattice()
    if suite == "ds":
        ok = lat.d < 0 or toric.check_dehn_sommerville(lat)
        return ok, {"h": toric.toric_h(lat).to_json()}
    if suite == "reciprocity":
        ok = lat.d < 0 or passed(verma.check_reciprocity(lat))
        return ok, {"polar_g": verma.polar_g(lat, lat.top).to_json()}
    if suite == "monotonicity":
        faces = range(1, len(lat.faces) - 1)
        ok = all(toric.check_monotonicity(lat, f) for f in faces)
        return ok, {"g": toric.toric_g(lat).to_json(), "n_faces": len(lat.faces)}
    if suite == "ubt":
        return lat.d < 1 or toric.check_ubt(lat), {"g": toric.toric_g(lat).to_json()}
    if suite == "kalai-identity":
        ok = all(toric.check_kalai_identity(lat, k) for k in range(lat.d // 2 + 1))
        return ok, {"h": toric.toric_h(lat).to_json()}
    if suite == "cascade":
        return toric.check_g_cascade(lat), {"g": toric.toric_g(lat).to_json()}
    if suite == "cone-bipyramid":
        ok = lat.d < 0 or toric.check_cone_bipyramid(lat)
        return ok, {"g": toric.toric_g(lat).to_json()}
    if suite == "verma":
        ok = verma.check_verma_vs_polar(lat)
        table = verma.verma_multiplicities(lat).to_json(lat)
        return ok, {"multiplicities": digest(table)}
    if suite == "truncated":
        values = [
            verma.truncated_inequality(lat, k, s)
            for k in range(lat.d // 2 + 2)
            for s in range(lat.d + 2)
        ]
        return all(v[1] for v in values), {"truncated": digest([v[0] for v in values])}
    raise ValueError(f"unknown suite {suite!r}")


def _realize(state, inst, seed):
    p = cli.load_input(inst.text).polytope()
    state["polytope"] = p
    return True, {"facets": len(p.facets), "f": list(p.lattice.f_vector())}


def _shelling(state, inst, seed):
    p = state["polytope"]
    sums, lengths = [], []
    for s in range(seed, seed + SHELLING_SEEDS):
        sh = shelling.line_shelling(p, seed=s)
        pieces = shelling.shelling_decomposition(sh)
        sums.append(sum(pieces, Polynomial()).to_json())
        lengths.append(len(sh.order))
    return True, {"shelling_h": sums, "shelling_facets": lengths}


def _rigidity(state, inst, seed):
    p = state["polytope"]
    stress = rigidity.g2_via_stresses(p)
    if p.d == 3:
        ok = stress == 0
    else:
        ok = stress == toric.toric_g(p.lattice)[2] == toric.g2_closed(p.lattice)
    return ok, {"stress": stress}


def _localization(state, inst, seed):
    cone = geometry.cone_over(state["polytope"])
    results = [
        localization.check_generalized_monotonicity(cone, v)
        for v in localization.sample_directions(cone, seed=seed, grid=GRID)[:DIRECTIONS]
    ]
    ok = bool(results) and all(r[2] for r in results)
    return ok, {"g_at_1": sorted({r[0] for r in results})}


def _flags(state, inst, seed):
    lat = cli.load_input(inst.text).lattice()
    state["lattice"] = lat
    return True, {"flags": toric.flag_vector(lat).to_json(), "n_faces": len(lat.faces)}


def _gh(state, inst, seed):
    payload = toric.report(state["lattice"])
    ok = all(payload["checks"].values())
    return ok, {k: payload[k] for k in ("h", "g", "flags")} | {"f": payload["f_vector"]}


def _face_monotonicity(state, face):
    lat = state["lattice"]
    f = lat.index_of(face["vertices"])
    ok = toric.check_monotonicity(lat, f)
    return ok, {
        "face_g": toric.face_g(lat, f).to_json(),
        "quotient_g": toric.quotient_g(lat, f).to_json(),
    }


EXPECT = {
    "ds": lambda r: {"h": r["h"]},
    "reciprocity": lambda r: {"polar_g": r["polar_g"]},
    "monotonicity": lambda r: {"g": r["g"], "n_faces": r["n_faces"]},
    "ubt": lambda r: {"g": r["g"]},
    "kalai-identity": lambda r: {"h": r["h"]},
    "cascade": lambda r: {"g": r["g"]},
    "cone-bipyramid": lambda r: {"g": r["g"]},
    "verma": lambda r: {"multiplicities": r["multiplicities"]},
    "truncated": lambda r: {"truncated": r["truncated"]},
    "realize": lambda r: {"facets": r["f"][-1], "f": r["f"]},
    "shelling": lambda r: {
        "shelling_h": [r["h"]] * SHELLING_SEEDS,
        "shelling_facets": [r["f"][-1]] * SHELLING_SEEDS,
    },
    "rigidity": lambda r: {"stress": r["stress"]},
    "localization": lambda r: {"g_at_1": [sum(r["g"])]},
    "flags": lambda r: {"flags": r["flags"], "n_faces": r["n_faces"]},
    "gh": lambda r: {"h": r["h"], "g": r["g"], "flags": r["flags"], "f": r["f"]},
}


class Row:
    __slots__ = ("kind", "instance", "seconds", "verdict", "observed", "error", "expected")

    def __init__(self, kind, instance, expected):
        self.kind = kind
        self.instance = instance
        self.expected = expected
        self.seconds = 0.0
        self.verdict = False
        self.observed = None
        self.error = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.verdict or self.observed != self.expected


def _timed(row, fn, *args):
    t0 = time.perf_counter()
    try:
        verdict, row.observed = fn(*args)
        row.verdict = bool(verdict)
    except Exception as e:      # a raising row is a failed row, not a crashed run
        row.error = f"{type(e).__name__}: {e}"
    row.seconds = time.perf_counter() - t0
    return row


def run_pass(workload, instances, seed, after_row=lambda: None):
    """Every row of the workload once, from freshly loaded inputs.

    ``after_row`` runs between rows, outside every row's time.
    """
    rows = []
    if workload == "combinatorial":
        inputs = [cli.load_input(inst.text) for inst in instances]
        for suite in SUITES:
            for inst, inp in zip(instances, inputs):
                row = Row(suite, inst.name, EXPECT[suite](inst.ref))
                rows.append(_timed(row, _suite, suite, inp, seed))
                after_row()
        return rows
    kinds = (
        ("realize", _realize), ("shelling", _shelling),
        ("rigidity", _rigidity), ("localization", _localization),
    ) if workload == "geometric" else (("flags", _flags), ("gh", _gh))
    for inst in instances:
        state = {}
        for kind, fn in kinds:
            rows.append(_timed(Row(kind, inst.name, EXPECT[kind](inst.ref)), fn, state, inst, seed))
            after_row()
        for face in inst.faces:
            expected = {"face_g": face["face_g"], "quotient_g": face["quotient_g"]}
            rows.append(_timed(Row("monotonicity", inst.name, expected),
                               _face_monotonicity, state, face))
            after_row()
    return rows
