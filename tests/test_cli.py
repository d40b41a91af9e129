import json
import os
import subprocess
import sys
import time

import pytest

from toricgh.cli import GEOMETRIC_SUITES, SUITES, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gh_cube3(capsys):
    code, out, _ = run(capsys, "gh", "cube3")
    assert code == 0
    assert "h: [1, 5, 5, 1]" in out
    assert "Dehn-Sommerville: pass" in out


def test_gh_prism_json(capsys):
    code, out, _ = run(capsys, "gh", "prism(simplex2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["h"] == [1, 3, 3, 1]
    assert data["checks"]["dehn_sommerville"] is True


def test_gh_empty(capsys):
    code, out, _ = run(capsys, "gh", "empty", "--json")
    assert code == 0
    assert json.loads(out)["h"] == [1]


def test_flags(capsys):
    code, out, _ = run(capsys, "flags", "cube3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["flags"]["0,2"] == 24


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "ds", "cube3", "cross3")
    assert code == 0
    assert out.count("PASS") == 2
    code, _, err = run(capsys, "verify", "nonsense", "cube3")
    assert code == 2


def test_verify_json_rows_carry_seconds(capsys):
    code, out, _ = run(capsys, "verify", "reciprocity", "cube3", "cross3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["instance"] for r in rows] == ["cube3", "cross3"]
    for r in rows:
        assert set(r) == {"suite", "instance", "pass", "seconds"}
        assert isinstance(r["seconds"], float) and r["seconds"] >= 0


def test_verify_verma_cube3(capsys):
    code, out, _ = run(capsys, "verify", "verma", "cube3")
    assert code == 0 and "PASS" in out


def test_verify_monotonicity_cube4(capsys):
    code, out, _ = run(capsys, "verify", "monotonicity", "cube4")
    assert code == 0


@pytest.mark.parametrize("faces", ["dim=x", "dim=", "bogus"])
def test_verify_bad_face_selection(capsys, faces):
    code, out, err = run(capsys, "verify", "monotonicity", "cube3", "--faces", faces)
    assert code == 2 and out == ""
    assert err == f"error: --faces takes 'all' or 'dim=k', got {faces!r}\n"


@pytest.mark.parametrize("argv, reason", [
    (("monotonicity", "cube3", "--faces", "dim=99"),
     "cube3: --faces dim=99 selects no proper face; proper face dimensions run from 0 to 2"),
    (("monotonicity", "cube3", "--faces", "dim=-5"),
     "cube3: --faces dim=-5 selects no proper face; proper face dimensions run from 0 to 2"),
    (("monotonicity", "cube3", "empty", "--faces", "dim=0"),
     "empty: --faces dim=0 selects no proper face; it has no proper face"),
    (("all", "cube3", "--faces", "dim=4"),
     "cube3: --faces dim=4 selects no proper face; proper face dimensions run from 0 to 2"),
    # the bottom and the top: monotonicity would read g(P) >= g(P) and check nothing
    (("monotonicity", "cube3", "--faces", "dim=3"),
     "cube3: --faces dim=3 selects no proper face; proper face dimensions run from 0 to 2"),
    (("monotonicity", "cube3", "--faces", "dim=-1"),
     "cube3: --faces dim=-1 selects no proper face; proper face dimensions run from 0 to 2"),
    (("monotonicity", "point", "--faces", "dim=0"),
     "point: --faces dim=0 selects no proper face; it has no proper face"),
    (("ds", "cube3", "--faces", "dim=x"), "--faces takes 'all' or 'dim=k', got 'dim=x'"),
    (("ds", "cube3", "--faces", "bogus"), "--faces takes 'all' or 'dim=k', got 'bogus'"),
    (("ds", "cube3", "--faces", "dim=1"), "--faces applies to monotonicity only, not ds"),
    (("shelling", "cube3", "--faces", "dim=0"),
     "--faces applies to monotonicity only, not shelling"),
])
def test_verify_face_selection_refused(capsys, argv, reason):
    # checked before any row runs, so nothing reaches stdout
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("suite, rows", [("monotonicity", 1), ("ds", 1), ("all", len(SUITES))])
def test_verify_face_selection_accepted(capsys, suite, rows):
    faces = "dim=1" if suite != "ds" else "all"
    code, out, err = run(capsys, "verify", suite, "cube3", "--faces", faces)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == rows


def test_shell_reproduces_prism_example(capsys):
    code, out, _ = run(
        capsys, "shell", "prism(simplex2)", "--direction", "3/4,-1/2,1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    locals_ = [step["local_h"] for step in data["steps"]]
    assert locals_ == [[0, 0, 0, 1], [0, 0, 2], [0, 1, 1], [0, 1], [1, 1]]
    assert data["h"] == [1, 3, 3, 1]


def test_shell_needs_coordinates(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"dim": 2, "n_vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]}))
    code, _, err = run(capsys, "shell", str(f))
    assert code == 2
    assert "coordinates required" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_all_skips_geometry_without_coordinates(tmp_path, capsys, fmt):
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps({"dim": 2, "n_vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]}))
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    flag = ["--json"] if fmt == "json" else []
    code, out, err = run(capsys, "verify", "all", str(lat), str(square), *flag)
    assert code == 0 and not err
    if fmt == "json":
        rows = [(r["suite"], r["instance"]) for r in json.loads(out)]
    else:
        rows = [tuple(line.split()[1:]) for line in out.splitlines()]
        assert all(line.startswith("PASS") for line in out.splitlines())
    lattice_only = [s for s in SUITES if s not in GEOMETRIC_SUITES]
    assert [s for s, i in rows if i == str(lat)] == lattice_only
    assert [s for s, i in rows if i == str(square)] == list(SUITES)


TRIANGLE = {"dim": 2, "n_vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]}


@pytest.mark.parametrize("command", ["localize", "rigidity"])
def test_lattice_file_has_no_coordinates(tmp_path, capsys, command):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps(TRIANGLE))
    code, out, err = run(capsys, command, str(f))
    assert (code, out, err) == (2, "", f"error: {f}: coordinates required\n")


@pytest.mark.parametrize("argv, reason", [
    (("ds", "--max-dim", "-2"), "verify ds: no instance selected"),
    (("shelling", "LAT"), "verify shelling: no instance with coordinates selected"),
    (("shelling", "empty"), "verify shelling: no instance with coordinates selected"),
    (("ds", "cube3", "cube4", "--max-dim", "2"),
     "--max-dim filters the catalog; it does not apply to a scope"),
])
def test_verify_selecting_no_row_is_bad_input(tmp_path, capsys, argv, reason):
    # a run that would check nothing exits 2 before any row runs
    f = tmp_path / "lat.json"
    f.write_text(json.dumps(TRIANGLE))
    argv = [str(f) if a == "LAT" else a for a in argv]
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("suite, lattices", [
    ("shelling", 1), ("localization", 1),
    # the realization's, and the recipe's for the g_2 comparison: the point and four prisms
    ("rigidity", 1 + 5),
])
def test_geometric_suites_build_one_lattice_per_need(monkeypatch, capsys, suite, lattices):
    built = _count_lattices(monkeypatch)
    code, _, _ = run(capsys, "verify", suite, "cube4")
    assert code == 0 and len(built) == lattices


def _count_lattices(monkeypatch):
    """A list that gets one entry per lattice made.

    Every lattice is made by ``lattice._frozen``: the facet lists, the
    operations (pyramid, bipyramid, prism, dual, intervals) and the
    empty and point literals.
    """
    from toricgh import lattice

    built = []
    monkeypatch.setattr(lattice, "_frozen",
                        lambda *a, _make=lattice._frozen: built.append(1) or _make(*a))
    return built


@pytest.mark.parametrize("suite", ["shelling", "localization"])
def test_max_dim_filter_builds_no_recipe_lattice(monkeypatch, capsys, suite):
    # the filter reads the recipes' dimensions: the only lattices made are
    # the realizations', one per row (the realized point's is the literal)
    built = _count_lattices(monkeypatch)
    code, out, _ = run(capsys, "verify", suite, "--max-dim", "3")
    assert code == 0 and len(built) == len(out.splitlines()) == 26


def test_entries_past_the_old_subset_rule_are_geometric(capsys):
    # cube5 has C(32, 5) = 201,376 vertex 5-subsets; double description does not care
    code, out, _ = run(capsys, "shell", "cube5", "--json")
    steps = json.loads(out)["steps"]
    assert code == 0 and len(steps) == 10
    assert steps[-1]["running_sum"] == json.loads(run(capsys, "gh", "cube5", "--json")[1])["h"]
    code, out, _ = run(capsys, "verify", "rigidity", "cube5", "prism(cube5)")
    assert code == 0 and out.count("PASS") == 2


def test_localize_point_is_bad_input(tmp_path, capsys):
    f = tmp_path / "point.json"
    f.write_text(json.dumps({"vertices": [[3]]}))
    code, _, err = run(capsys, "localize", str(f))
    assert code == 2
    assert "dimension >= 1" in err


@pytest.mark.parametrize("argv", [
    ("shell", "cube3", "--direction", "1/0,1,1"),
    ("localize", "cube3", "--v=1/0,1,1,1"),
])
def test_zero_denominator_in_a_vector_is_bad_input(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: zero denominator") and err.count("\n") == 1


def test_rigidity_cube4(capsys):
    code, out, _ = run(capsys, "rigidity", "cube4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["stress_dim"] == 2 and data["g2_match"] is True
    assert data["kernel_dim"] == 10 and data["infinitesimally_rigid"] is True


def test_rigidity_cube3(capsys):
    # the kernel is C(4, 2) = 6, the trivial motions alone
    code, out, _ = run(capsys, "rigidity", "cube3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kernel_dim"] == 6 and data["infinitesimally_rigid"] is True
    assert data["stress_dim"] == 0 and data["g2_match"] is True


def test_localize_square_cone(capsys):
    code, out, _ = run(capsys, "localize", "cube2", "--v=-1,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lhs"] == 2 and data["rhs"] == 2 and data["ok"] is True
    assert sorted(map(tuple, data["min_fixed"])) == [(0, 1), (2, 3)]


def test_verma_command(capsys):
    code, out, _ = run(capsys, "verma", "cube3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["top"] == [1, 2] and data["polar_match"] is True


def _fail_the_first_solve(monkeypatch):
    # the first weighted count gives the first vertex's chain from the bottom
    # the weight -1 in place of 1: its stalk sum is -1, so m_0 = -1 there
    import toricgh.verma as verma_module

    count, runs = verma_module._count_chains, []

    def corrupted(*args):
        runs.append(1)
        for e, W in enumerate(count(*args), -1):
            if e == 0 and len(runs) == 1:
                W[0, 1, 0] = -1
            yield W

    monkeypatch.setattr(verma_module, "_count_chains", corrupted)


def test_a_failing_solve_exits_1_with_one_line_naming_the_face(monkeypatch, capsys):
    _fail_the_first_solve(monkeypatch)
    code, out, err = run(capsys, "verma", "cube3", "--json")
    assert (code, out) == (1, "")
    assert err == "error: cube3: negative multiplicity at face 1: (-1,), vertices [0]\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_failing_solve_is_a_fail_row_of_verify(monkeypatch, capsys, json_flag):
    _fail_the_first_solve(monkeypatch)
    code, out, err = run(capsys, "verify", "verma", "cube3", "cube4", *json_flag)
    assert code == 1 and err == ""
    if json_flag:
        assert [(r["instance"], r["pass"]) for r in json.loads(out)] == [("cube3", False), ("cube4", True)]
    else:
        assert out == "FAIL  verma  cube3\nPASS  verma  cube4\n"


def test_polytope_file_input(tmp_path, capsys):
    f = tmp_path / "square.json"
    f.write_text(json.dumps({"vertices": [["0", "0"], ["1", "0"], ["1/1", "1"], ["0", "1"]]}))
    code, out, _ = run(capsys, "gh", str(f), "--json")
    assert code == 0
    assert json.loads(out)["h"] == [1, 2, 1]


def test_malformed_file(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{ not json")
    code, _, err = run(capsys, "gh", str(f))
    assert code == 2
    assert "parse error" in err


def test_unknown_recipe(capsys):
    code, _, err = run(capsys, "gh", "hypercube")
    assert code == 2


@pytest.mark.parametrize("recipe", ["bipyramid(point)", "bipyramid(empty)"])
def test_bipyramid_below_dimension_one_is_bad_input(capsys, recipe):
    assert run(capsys, "gh", recipe)[:2] == run(capsys, "verify", "all", recipe)[:2] == (2, "")


@pytest.mark.parametrize("argv, reason", [
    (("gh", "cyclic(3,5)"), "cyclic polytopes need 2 <= d < n"),
    (("shell", "cyclic(3,5)"), "cyclic polytopes need 2 <= d < n"),
    (("rigidity", "cyclic(4,5)"), "cyclic polytopes need 2 <= d < n"),
    (("localize", "cyclic(4,4)"), "cyclic polytopes need 2 <= d < n"),
    (("verify", "shelling", "cyclic(3,5)"), "cyclic polytopes need 2 <= d < n"),
    (("verify", "localization", "cyclic(3,5)"), "cyclic polytopes need 2 <= d < n"),
    (("verify", "ds", "cube3", "prism(empty)"), "prism needs a polytope of dimension >= 0"),
    (("flags", "prism(empty)"), "prism needs a polytope of dimension >= 0"),
    (("verify", "all", "cube3", "bipyramid(point)"), "bipyramid needs a polytope of dimension >= 1"),
])
def test_bad_recipes_exit_2_before_any_output(capsys, argv, reason):
    # refused when parsed: no command runs on a triangle for cyclic(3,5), and
    # no verify row is printed before a later scope entry is refused
    assert run(capsys, *argv) == (2, "", f"error: {reason}\n")


def test_verify_scope_max_dim(capsys):
    code, out, _ = run(capsys, "verify", "cascade", "--max-dim", "2")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("vertices, reason", [
    ("[[0,0],[1,0],[0,1],[1,1,5]]", "vertex row 3 has 3 coordinates, row 0 has 2"),
    ("[[0,0,7],[1,0],[0,1]]", "vertex row 1 has 2 coordinates, row 0 has 3"),
    ("[[0,0],[1e400,0],[0,1]]", "vertex row 1: cannot convert Infinity"),
])
def test_bad_vertex_rows(tmp_path, capsys, vertices, reason):
    f = tmp_path / "bad.json"
    f.write_text('{"vertices": %s}' % vertices)
    code, out, err = run(capsys, "gh", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("data, reason", [
    ({"dim": 2, "n_vertices": 3.5, "facets": [[0, 1], [1, 2], [0, 2]]},
     "n_vertices must be an integer, got 3.5"),
    ({"dim": True, "n_vertices": 2, "facets": [[0], [1]]}, "dim must be an integer, got True"),
    ({"dim": 1.0, "n_vertices": 2, "facets": [[0], [1]]}, "dim must be an integer, got 1.0"),
    ({"dim": "1", "n_vertices": 2, "facets": [[0], [1]]}, "dim must be an integer, got '1'"),
    ({"dim": 2, "n_vertices": 3, "facets": [[0, 1], [1, 2], [0, 5]]},
     "vertex index 5 out of range"),
    ({"dim": 2, "n_vertices": 3, "facets": [[0, 1], [1, "2"], [0, 2]]},
     "facets must be lists of vertex indices"),
    (5, "neither polytope/v1 nor lattice/v1"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "facets": [[0, 1], [1, 2], [0, 2]]},
     "holds both vertices (polytope/v1) and facets (lattice/v1)"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "name": "triangle"}, "unknown polytope/v1 keys ['name']"),
    ({**TRIANGLE, "dims": 2}, "unknown lattice/v1 keys ['dims']"),
])
def test_bad_lattice_files(tmp_path, capsys, data, reason):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "gh", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1


def test_huge_vertex_count_is_bad_input_fast(tmp_path, capsys):
    # nothing sized by n_vertices is allocated before the facets cover the vertices
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(
        {"dim": 2, "n_vertices": 1_000_000_000, "facets": [[0, 1], [1, 2], [2, 0], [999_999_999, 0]]}
    ))
    start = time.perf_counter()
    code, out, err = run(capsys, "gh", str(f))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.strip() == "error: some vertex lies on no facet"


@pytest.mark.parametrize("recipe", ["cyclic(5,", "cyclic(", "cyclic(5,x)"])
def test_truncated_recipe(capsys, recipe):
    code, out, err = run(capsys, "gh", recipe)
    assert code == 2 and out == ""
    assert err.startswith("error: expected a number")
    assert len(err.strip().splitlines()) == 1


def test_verify_has_no_all_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ds", "cube3", "--all"])
    assert exc.value.code == 2


def test_running_out_of_memory_is_bad_input():
    # a child capped at 400 MB of address space: the closure of cyclic(30,12)
    # outgrows it, and the CLI answers exit 2 with one line, not a traceback
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-m", "toricgh.cli", "gh", "cyclic(30,12)"],
                           capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == "error: out of memory on gh\n"


@pytest.mark.parametrize("argv", [
    ("verma", "cube5", "--json"), ("verify", "verma", "cube4"), ("verify", "all", "cube4"),
])
def test_commands_leave_numpy_ma_unimported(argv):
    # numpy.ma takes 15-18 ms to import into a fresh process, and
    # np.unique and np.union1d import it; no command needs it.  numpy 1.x
    # imports it with numpy itself, so the probe asserts that the command
    # adds nothing to what the imports left
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    probe = ("import sys; from toricgh.cli import main; before = 'numpy.ma' in sys.modules; "
             "code = main(sys.argv[1:]); print(before, 'numpy.ma' in sys.modules, code)")
    child = subprocess.run([sys.executable, "-c", probe, *argv],
                           capture_output=True, text=True, env=env, timeout=120)
    before, after, code = child.stdout.splitlines()[-1].split()
    assert (after, code) == (before, "0"), child.stderr
