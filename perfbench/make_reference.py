"""Regenerate perfbench/reference.json, the per-instance reference table.

    PYTHONPATH=src python3 perfbench/make_reference.py

Covers every instance any seed can draw: the whole built-in catalog for
the lattice values, the geometric population for coordinates, facet
counts and stress dimensions, and the scale instances with their
lattice/v1 JSON and a pool of faces for the monotonicity rows.

Each value is cross-checked here against an independent derivation, the
ones tests/test_acceptance.py uses: closed-form g1/g2 from flag numbers
against the recursion, stress dimension against g2, line-shelling sums
against h, multiplicities against polar g read off the dual lattice, and
facet counts from coordinates against those of the recipe's lattice.
Generation stops at the first disagreement.

The file also records the cost of each instance's rows, timed once on
the machine that generated it; the seeded samples are stratified by it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time

import numpy as np

import workloads as W
from toricgh import toric, verma
from toricgh.catalog import catalog, parse_recipe
from toricgh.geometry import facet_enumeration
from toricgh.polynomial import Polynomial
from toricgh.rigidity import g2_via_stresses
from toricgh.shelling import line_shelling, shelling_decomposition

HERE = os.path.dirname(os.path.abspath(__file__))
FACES_PER_DIM = 16      # scale: monotonicity pool size per face dimension


def require(cond, what):
    if not cond:
        sys.exit(f"reference cross-check failed: {what}")


def lattice_values(name, lat):
    h, g = toric.toric_h(lat), toric.toric_g(lat)
    f = list(lat.f_vector())
    d = lat.d
    require(h.is_palindromic(d), f"{name}: Dehn-Sommerville")
    require(sum((-1) ** i * x for i, x in enumerate(f)) == 1 - (-1) ** d, f"{name}: Euler")
    if d >= 1:
        require(g[1] == toric.g1_closed(lat), f"{name}: g1 closed form")
    if d >= 4:
        require(g[2] == toric.g2_closed(lat), f"{name}: g2 closed form")
    if d >= 1 and lat.is_simplicial():
        require(h == toric.simplicial_h(tuple(f), d), f"{name}: simplicial h")
    return {
        "dim": d, "n_faces": len(lat.faces), "f": f,
        "h": h.to_json(), "g": g.to_json(),
        "flags": toric.flag_vector(lat).to_json() if d >= 0 else {},
    }


def polar_values(name, lat):
    """Polar g, multiplicity digest and truncated sums, for the combinatorial rows."""
    dual = lat.dual()
    polar = toric.toric_g(dual)
    table = verma.verma_multiplicities(lat)
    facets = lat.faces_of_dim(lat.d - 1)
    for f in range(len(lat.faces)):
        # the polar of face F is the interval [F*, top] of the dual lattice
        star = frozenset(p for p, fc in enumerate(facets) if lat.leq[f, fc])
        g = toric.toric_g(dual.interval(dual.index_of(star), dual.top))
        require(table[f] == (tuple(g.coeffs) or (1,)), f"{name}: multiplicities vs polar g")
    require(table[lat.top] == (tuple(polar.coeffs) or (1,)), f"{name}: m(top) vs polar g")
    values = [
        verma.truncated_inequality(lat, k, s)
        for k in range(lat.d // 2 + 2)
        for s in range(lat.d + 2)
    ]
    require(all(ok for _, ok in values), f"{name}: truncated inequalities")
    return {
        "polar_g": polar.to_json(),
        "multiplicities": W.digest(table.to_json(lat)),
        "truncated": W.digest([v for v, _ in values]),
    }


def geometric_values(name, entry, ref):
    verts = entry.vertices()
    p = facet_enumeration(verts)
    require(list(p.lattice.f_vector()) == ref["f"], f"{name}: f-vector from coordinates")
    stress = g2_via_stresses(p)
    require(stress == (0 if p.d == 3 else Polynomial(ref["g"])[2]), f"{name}: stresses vs g2")
    h = Polynomial(ref["h"])
    for seed in range(5):
        pieces = shelling_decomposition(line_shelling(p, seed=seed))
        require(sum(pieces, Polynomial()) == h, f"{name}: shelling sum vs h")
    return {"vertices": [[str(x) for x in v] for v in verts], "stress": stress}


def scale_values(name, lat, form):
    rng = random.Random(name)
    pool = []
    for k in range(lat.d):
        ids = lat.faces_of_dim(k)
        for f in rng.sample(ids, min(FACES_PER_DIM, len(ids))):
            fg, qg = toric.face_g(lat, f), toric.quotient_g(lat, f)
            # face and quotient of a polytope are polytopes: g of each
            # must match g of the interval rebuilt as its own lattice
            require(fg == toric.toric_g(lat.face(f)), f"{name}: face g")
            require(qg == toric.toric_g(lat.quotient(f)), f"{name}: quotient g")
            pool.append({
                "dim": k, "vertices": sorted(lat.faces[f]),
                "face_g": fg.to_json(), "quotient_g": qg.to_json(),
            })
    out = {"faces": pool}
    if form == "json":
        out["lattice"] = lat.to_json()
    return out


def measure(workload, names, ref, workdir):
    """Seconds of one pass over each instance's rows, which must all pass."""
    for name in names:
        inst = W.Instance(name, name, ref["instances"][name])
        if workload == "geometric":
            inst.text = W.write_input(workdir, name, {"vertices": inst.ref["vertices"]})
        t0 = time.perf_counter()
        rows = W.run_pass(workload, [inst], seed=0)
        inst.ref.setdefault("cost", {})[workload] = round(time.perf_counter() - t0, 4)
        bad = [(r.kind, r.error, r.observed, r.expected) for r in rows if r.failed]
        require(not bad, f"{name}: benchmark rows disagree with the reference: {bad[:2]}")


def main():
    ref = {"toricgh": __import__("toricgh").__version__, "numpy": np.__version__, "instances": {}}
    insts = ref["instances"]
    entries = {e.name: e for e in catalog()}
    for name, entry in entries.items():
        lat = entry.lattice()
        insts[name] = {"in_catalog": True, **lattice_values(name, lat)}
        if entry.vertices() is not None:
            insts[name]["n_vertices"] = len(entry.vertices())
        if lat.d >= 0 and len(lat.faces) <= W.MAX_FACES:
            insts[name].update(polar_values(name, lat))
        print(f"lattice  {name}", file=sys.stderr)
    for name in W.population("geometric", ref):
        insts[name].update(geometric_values(name, entries[name], insts[name]))
        print(f"geometry {name}", file=sys.stderr)
    for name, form in W.SCALE:
        lat = parse_recipe(name).lattice()
        insts[name] = {"in_catalog": False, **lattice_values(name, lat), **scale_values(name, lat, form)}
        print(f"scale    {name}", file=sys.stderr)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as workdir:
        for workload in ("combinatorial", "geometric"):
            measure(workload, W.population(workload, ref), ref, workdir)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
