"""Command-line driver.

Subcommands: gh, flags, verify, shell, rigidity, localize, verma.
Inputs are catalog recipes (``cube4``, ``prism(pyramid(simplex2))``,
``cyclic(7,4)``) or JSON files: polytope/v1 ``{"vertices": [["p/q", ...]]}``
or lattice/v1 ``{"dim": d, "n_vertices": n, "facets": [[...]]}``, each
read into a ``CatalogEntry``.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input (an input
too large for the memory at hand among them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import comb

from toricgh import localization, rigidity, shelling, toric, verma
from toricgh.catalog import CatalogEntry, parse_recipe, realized_entry
from toricgh.catalog import catalog as full_catalog
from toricgh.geometry import cone_over
from toricgh.lattice import FaceLattice, LatticeError
from toricgh.polynomial import Polynomial


class InputError(Exception):
    pass


FORMS = {"polytope/v1": {"vertices"}, "lattice/v1": {"dim", "n_vertices", "facets"}}


def load_input(text: str) -> CatalogEntry:
    """A recipe, or a polytope/v1 or lattice/v1 file read into an entry.

    A file's polytope or lattice is built here, so a bad file exits 2
    before any output.
    """
    if not os.path.exists(text):
        try:
            return parse_recipe(text)
        except ValueError as e:
            raise InputError(str(e))
    try:
        with open(text) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(f"{text}: parse error at line {e.lineno}, column {e.colno}")
    except OSError as e:    # a directory, or a file we may not read
        raise InputError(f"{text}: cannot read: {e.strerror}")
    keys = set(data) if isinstance(data, dict) else set()
    if {"vertices", "facets"} <= keys:
        raise InputError(f"{text}: holds both vertices (polytope/v1) and facets (lattice/v1)")
    form = "polytope/v1" if "vertices" in keys else "lattice/v1" if "facets" in keys else None
    if form is None:
        raise InputError(f"{text}: neither polytope/v1 nor lattice/v1")
    if keys - FORMS[form]:
        raise InputError(f"{text}: unknown {form} keys {sorted(keys - FORMS[form])}")
    if form == "polytope/v1":
        return realized_entry(text, data["vertices"])
    lat = FaceLattice.from_json(data)
    return CatalogEntry(text, lat.d, lambda: lat)


def _emit(args, payload: dict, text_lines):
    """Print the payload as JSON, or else the lines ``text_lines()`` makes."""
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines():
            print(line)


# -- subcommands ----------------------------------------------------------


def cmd_gh(args) -> int:
    inp = load_input(args.input)
    lat = inp.lattice()
    payload = toric.report(lat)
    payload["name"] = inp.name
    _emit(args, payload, lambda: [
        f"{inp.name}: d = {lat.d}",
        f"  f-vector: {payload['f_vector']}",
        f"  h: {payload['h']}   ({toric.toric_h(lat)})",
        f"  g: {payload['g']}   ({toric.toric_g(lat)})",
        f"  Dehn-Sommerville: {'pass' if payload['checks']['dehn_sommerville'] else 'FAIL'}",
    ])
    return 0 if all(payload["checks"].values()) else 1


def cmd_flags(args) -> int:
    inp = load_input(args.input)
    lat = inp.lattice()
    fv = toric.flag_vector(lat)
    payload = {"name": inp.name, "dim": lat.d, "flags": fv.to_json()}
    _emit(args, payload, lambda: [f"{inp.name}: flag vector"] + [
        f"  f_{{{s}}} = {v}" for s, v in sorted(payload["flags"].items())
    ])
    return 0


def _suite_instances(args):
    if args.scope:
        if args.max_dim is not None:
            raise InputError("--max-dim filters the catalog; it does not apply to a scope")
        return [load_input(s) for s in args.scope]
    entries = full_catalog()
    if args.max_dim is not None:
        entries = [e for e in entries if e.dim <= args.max_dim]
    return entries


def _face_selection(selector: str):
    """A ``--faces`` selector parsed: 'all', or the dimension k of 'dim=k'."""
    if selector == "all":
        return selector
    if selector.startswith("dim="):
        try:
            return int(selector[4:])
        except ValueError:
            pass
    raise InputError(f"--faces takes 'all' or 'dim=k', got {selector!r}")


def _verify_one(suite: str, inp: CatalogEntry, seed: int, faces="all"):
    """One suite on one instance; ``faces`` is 'all' or a face dimension.

    The coordinate suites read the realization's lattice only; rigidity
    compares its stresses with the entry's own lattice as well.
    """
    if suite == "shelling":
        p = inp.polytope()
        if p.d < 1:
            return True
        for s in range(seed, seed + 3):
            shelling.shelling_decomposition(shelling.line_shelling(p, seed=s))
        return True
    if suite == "rigidity":
        p = inp.polytope()
        if p.d < 3:
            return True
        stress = rigidity.g2_via_stresses(p)
        if p.d == 3:
            return stress == 0
        lat = inp.lattice()
        return stress == toric.toric_g(lat)[2] == toric.g2_closed(lat)
    if suite == "localization":
        p = inp.polytope()
        if p.d < 1:
            return True
        cone = cone_over(p)
        return all(
            localization.check_generalized_monotonicity(cone, v)[2]
            for v in localization.sample_directions(cone, seed=seed, grid=6)
        )
    lat = inp.lattice()
    if suite == "ds":
        return lat.d < 0 or toric.check_dehn_sommerville(lat)
    if suite == "reciprocity":
        if lat.d < 0:
            return True
        return verma.check_reciprocity(lat) == Polynomial()
    if suite == "monotonicity":
        if faces == "all":
            return toric.check_monotonicity_all(lat)
        return all(toric.check_monotonicity(lat, f) for f in lat.faces_of_dim(faces))
    if suite == "ubt":
        return lat.d < 1 or toric.check_ubt(lat)
    if suite == "kalai-identity":
        return all(
            toric.check_kalai_identity(lat, k) for k in range(lat.d // 2 + 1)
        )
    if suite == "cascade":
        return toric.check_g_cascade(lat)
    if suite == "cone-bipyramid":
        return lat.d < 0 or toric.check_cone_bipyramid(lat)
    if suite == "verma":
        try:
            return verma.check_verma_vs_polar(lat)
        except verma.SolveError:
            return False
    if suite == "truncated":
        return all(
            verma.truncated_inequality(lat, k, s)[1]
            for k in range(lat.d // 2 + 2)
            for s in range(lat.d + 2)
        )
    raise InputError(f"unknown suite {suite!r}")


SUITES = (
    "ds", "reciprocity", "monotonicity", "ubt", "kalai-identity", "cascade",
    "cone-bipyramid", "verma", "truncated", "shelling", "rigidity",
    "localization",
)

GEOMETRIC_SUITES = {"shelling", "rigidity", "localization"}


def cmd_verify(args) -> int:
    if args.suite not in SUITES + ("all",):
        print(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}",
              file=sys.stderr)
        return 2
    suites = SUITES if args.suite == "all" else (args.suite,)
    faces = _face_selection(args.faces)
    if faces != "all" and "monotonicity" not in suites:
        raise InputError(f"--faces applies to monotonicity only, not {args.suite}")
    instances = _suite_instances(args)
    if faces != "all":
        # every instance is checked before any row runs, so a selector that
        # misses one leaves no partial output behind.  Only proper faces
        # count: at the bottom or the top monotonicity reads g(P) >= g(P).
        for inp in instances:
            if not 0 <= faces < inp.dim:
                proper = (f"proper face dimensions run from 0 to {inp.dim - 1}" if inp.dim > 0
                          else "it has no proper face")
                raise InputError(f"{inp.name}: --faces dim={faces} selects no proper face; {proper}")
    # the geometric suites skip instances without coordinates; a run
    # left with no row would pass having checked nothing
    rows = [(suite, inp) for suite in suites for inp in instances
            if suite not in GEOMETRIC_SUITES or inp.has_coordinates()]
    if not rows:
        raise InputError(f"verify {args.suite}: no instance"
                         f"{' with coordinates' if instances else ''} selected")
    results = []
    for suite, inp in rows:
        t0 = time.perf_counter()
        ok = _verify_one(suite, inp, args.seed, faces)
        results.append({"suite": suite, "instance": inp.name, "pass": bool(ok),
                        "seconds": round(time.perf_counter() - t0, 6)})
        if not args.json:
            print(f"{'PASS' if ok else 'FAIL'}  {suite}  {inp.name}")
    if args.json:
        print(json.dumps(results, indent=2))
    return 0 if all(r["pass"] for r in results) else 1


def _parse_vector(text):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in vector {text!r}") from None


def cmd_shell(args) -> int:
    inp = load_input(args.input)
    p = inp.polytope()
    direction = _parse_vector(args.direction) if args.direction else None
    sh = shelling.line_shelling(p, direction=direction, seed=args.seed)
    locals_ = shelling.shelling_decomposition(sh)
    running = Polynomial()
    rows = []
    for facet, loc in zip(sh.order, locals_):
        running = running + loc
        rows.append(
            {"facet": facet, "vertices": sorted(p.facets[facet][2]),
             "local_h": loc.to_json(), "running_sum": running.to_json()}
        )
    payload = {
        "name": inp.name,
        "order": list(sh.order),
        "direction": [str(x) for x in sh.direction],
        "steps": rows,
        "h": toric.toric_h(p.lattice).to_json(),
        "certified": True,
    }

    def text_lines():
        yield f"{inp.name}: line shelling (seed {args.seed})"
        for r in rows:
            yield (
                f"  facet {r['facet']:>3} {str(r['vertices']):<24}"
                f" local h = {r['local_h']}  sum = {r['running_sum']}"
            )
        yield f"  total = h(P) = {payload['h']}, all coefficients >= 0"

    _emit(args, payload, text_lines)
    return 0


def cmd_rigidity(args) -> int:
    inp = load_input(args.input)
    p = inp.polytope()
    if p.d < 3:
        raise InputError("rigidity needs dimension >= 3")
    fw = rigidity.build_framework(p)
    rank = rigidity.rigidity_rank(fw)
    stress = fw.n_edges - rank
    kernel = fw.d * len(fw.points) - rank
    if p.d >= 4:
        g2 = toric.toric_g(p.lattice)[2]
        verdict = stress == g2 == toric.g2_closed(p.lattice)
    else:
        g2 = 0
        verdict = stress == 0
    payload = {
        "name": inp.name, "dim": p.d, "edges": fw.n_edges, "rank": rank,
        "kernel_dim": kernel, "stress_dim": stress, "expected_g2": g2,
        "g2_match": bool(verdict),
        "infinitesimally_rigid": kernel == comb(fw.d + 1, 2),
    }
    _emit(args, payload, lambda: [
        f"{inp.name}: framework with {fw.n_edges} bars on {len(fw.points)} joints (d={p.d})",
        f"  rank {rank}, kernel {kernel}, stresses {stress}",
        f"  g2 cross-check: {'pass' if verdict else 'FAIL'} (expected {g2})",
    ])
    return 0 if verdict else 1


def cmd_localize(args) -> int:
    inp = load_input(args.input)
    p = inp.polytope()
    cone = cone_over(p)
    if args.v:
        v = _parse_vector(args.v)
    else:
        v = localization.sample_directions(cone, seed=args.seed, grid=1)[0]
    dec = localization.classify_faces(cone, v)
    lhs, rhs, ok = localization.check_generalized_monotonicity(cone, v)
    lat = p.lattice

    def names(ids):
        return [sorted(lat.faces[i]) for i in sorted(ids)]

    payload = {
        "name": inp.name, "v": [str(x) for x in v],
        "back": names(dec.back), "front": names(dec.front),
        "fixed": names(dec.fixed), "min_fixed": names(dec.min_fixed),
        "lhs": lhs, "rhs": rhs, "ok": ok,
    }
    _emit(args, payload, lambda: [
        f"{inp.name}: direction v = ({', '.join(map(str, v))})",
        f"  back faces : {payload['back']}",
        f"  front faces: {payload['front']}",
        f"  fixed      : {payload['fixed']}",
        f"  minimal    : {payload['min_fixed']}",
        f"  g(sigma,1) = {lhs} >= {rhs} = sum over minimal fixed: "
        f"{'pass' if ok else 'FAIL'}",
    ])
    return 0 if ok else 1


def cmd_verma(args) -> int:
    inp = load_input(args.input)
    lat = inp.lattice()
    try:
        table = verma.verma_multiplicities(lat)
    except verma.SolveError as e:
        print(f"error: {inp.name}: {e}, vertices {sorted(lat.faces[e.face])}", file=sys.stderr)
        return 1
    match, polar = verma.polar_matches(lat).tolist(), verma.polar_rows(lat)
    faces = [
        {"face": sorted(lat.faces[f]), "m": list(table[f]), "polar_g": list(polar[f]),
         "match": match[f]}
        for f in sorted(table, key=lambda i: (int(lat.dims[i]), i))
    ]
    ok = all(match)
    payload = {
        "name": inp.name,
        "faces": faces,
        "polar_match": ok,
        "top": list(table[lat.top]),
    }

    def text_lines():
        yield f"{inp.name}: multiplicities m_k per cone face (vs polar g)"
        for row in faces:
            label = ",".join(map(str, row["face"])) or "apex"
            yield (
                f"  {label:<20} m = {row['m']!s:<14} polar g = {row['polar_g']!s:<14}"
                f" {'ok' if row['match'] else 'MISMATCH'}"
            )
        yield f"  polar g comparison: {'pass' if ok else 'FAIL'}"

    _emit(args, payload, text_lines)
    return 0 if ok else 1


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricgh",
        description="exact g/h-polynomials and identity checks for polytopes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="catalog recipe or JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("gh", help="h/g-polynomials and flag report"))
    common(sub.add_parser("flags", help="flag vector"))

    pv = sub.add_parser("verify", help="run a check suite over the catalog")
    pv.add_argument("suite", help=f"one of: {', '.join(SUITES)}, all")
    pv.add_argument("scope", nargs="*", help="recipes/files (default: catalog)")
    pv.add_argument("--max-dim", type=int, default=None)
    pv.add_argument("--faces", default="all", help="all | dim=k (monotonicity)")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("shell", help="line shelling and local h decomposition")
    common(ps)
    ps.add_argument("--direction", help="rational vector, e.g. '3/4,-1/2,1'")

    common(sub.add_parser("rigidity", help="rigidity matrix rank and stresses"))

    pl = sub.add_parser("localize", help="face decomposition along a direction")
    common(pl)
    pl.add_argument("--v", help="direction in the cone's ambient space")

    common(sub.add_parser("verma", help="multiplicity table of the cone"))
    return ap


COMMANDS = {
    "gh": cmd_gh,
    "flags": cmd_flags,
    "verify": cmd_verify,
    "shell": cmd_shell,
    "rigidity": cmd_rigidity,
    "localize": cmd_localize,
    "verma": cmd_verma,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (InputError, LatticeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except shelling.ShellingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory on {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
