import dataclasses
import json
import logging
import warnings

import numpy as np
import pytest

from conicfem import assembly as asm
from conicfem import cli
from conicfem import mesh as msh
from conicfem import solver as sol
from conicfem.problems import builtin_domain, disk_domain, problem_g


def run(argv):
    return cli.main(argv)


def test_solve_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["solve", "--problem", "disk", "--levels", "2"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "level,L2,L2_rate,H1,H1_rate,H2,H2_rate,R,R_rate,m"
    assert lines[1].startswith("init,")
    # rate cells reproduce log2 ratios of the stored error cells
    row1 = lines[2].split(",")
    row2 = lines[3].split(",")
    l2_1, l2_2 = float(row1[1]), float(row2[1])
    assert abs(float(row2[2]) - np.log2(l2_1 / l2_2)) < 5e-3


def test_solve_artifacts(tmp_path):
    csv = tmp_path / "t.csv"
    sol_file = tmp_path / "sol.json"
    mat = tmp_path / "mat.mtx"
    rc = run(["solve", "--problem", "disk", "--levels", "1",
              "--output", str(csv), "--save-solution", str(sol_file),
              "--dump-matrix", str(mat)])
    assert rc == 0
    assert csv.exists() and sol_file.exists() and mat.exists()


def test_export_plot_roundtrip(tmp_path):
    sol_file = tmp_path / "sol.json"
    run(["solve", "--problem", "disk", "--levels", "1",
         "--save-solution", str(sol_file)])
    out = tmp_path / "plot.csv"
    assert run(["export", "plot", "--solution", str(sol_file),
                "--grid", "15", "--output", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,y,value"
    assert len(rows) > 100
    # lattice samples stay inside the disk and are negative (convex, zero bc)
    for row in rows[1:10]:
        x, y, v = map(float, row.split(","))
        assert x * x + y * y <= 1.0 + 1e-9
        assert v < 1e-9


@pytest.mark.parametrize("flag", ["--plot-data", "--plot-grid"])
def test_solve_has_no_plot_flags(flag, tmp_path, capsys):
    # a saved solution and export plot are the one way to sample a solution
    out = tmp_path / "plot.csv"
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "disk", "--levels", "1", flag,
             str(out) if flag == "--plot-data" else "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_mesh_validate_and_refine(tmp_path, disk_mesh):
    path = tmp_path / "mesh.json"
    msh.save_mesh(disk_mesh, path)
    assert run(["mesh", "validate", str(path)]) == 0
    out = tmp_path / "fine.json"
    assert run(["mesh", "refine", str(path), "--levels", "1",
                "--output", str(out)]) == 0
    fine = msh.load_mesh(out)
    assert fine.n_triangles == 4 * disk_mesh.n_triangles


@pytest.mark.parametrize("argv", [
    ["mesh", "validate", "mesh.json"],
    ["mesh", "refine", "mesh.json", "--output", "fine.json"],
    ["space", "info", "mesh.json"],
], ids=["mesh-validate", "mesh-refine", "space-info"])
def test_no_command_takes_a_domain_flag(argv, capsys):
    # a mesh file embeds its domain: there is no other way to give one
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--domain", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --domain x" in capsys.readouterr().err


def test_mesh_validate_without_embedded_domain(tmp_path, disk_mesh, capsys):
    data = msh.mesh_to_dict(disk_mesh)
    del data["domain"]
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(data))
    assert run(["mesh", "validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: condition (mesh): mesh file has no embedded domain\n"


def test_os_errors_exit_1(tmp_path, capsys):
    # a directory where a file is expected is an error, not a traceback
    assert run(["mesh", "validate", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and str(tmp_path) in err and "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda s: [s], 'spline file: expected a JSON object with "mesh" and "dofs", got list'),
    (lambda s: dict(s, mesh=[s["mesh"]]), "condition (mesh): mesh file: expected a JSON "
                                           "object, got list"),
    (lambda s: dict(s, mesh=dict(s["mesh"], domain=[])),
     'domain: expected a JSON object with an "arcs" list'),
    (lambda s: dict(s, mesh=dict(s["mesh"], domain={"arcs": [[0.0] * 6]})),
     "arc 0: expected a JSON object, got list"),
], ids=["spline", "mesh", "domain", "arc"])
def test_export_plot_rejects_json_that_is_not_an_object(tmp_path, edit, message, capsys):
    sol_file = tmp_path / "sol.json"
    data = {"mesh": msh.mesh_to_dict(builtin_domain("disk")[1]), "dofs": [0.0] * 134}
    sol_file.write_text(json.dumps(edit(data)))
    assert run(["export", "plot", "--solution", str(sol_file), "--output",
                str(tmp_path / "plot.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _set(d, key, value):
    """d with d[key] set to value, or without key when value is ...; d unchanged."""
    d = dict(d)
    if value is ...:
        del d[key]
    else:
        d[key] = value
    return d


@pytest.mark.parametrize("key, value, message", [
    ("from", 5, 'arc 1: "from" is 5, expected a list of 2 numbers'),
    ("coeffs", None, 'arc 1: "coeffs" is null, expected a list of 6 numbers'),
    ("coeffs", ..., 'arc 1 has no "coeffs": expected a list of 6 numbers'),
], ids=["from-number", "coeffs-null", "coeffs-missing"])
def test_mesh_validate_names_a_mistyped_or_missing_arc_field(tmp_path, capsys, key, value,
                                                            message):
    data = msh.mesh_to_dict(builtin_domain("disk")[1])
    arcs = data["domain"]["arcs"]
    arcs[1] = _set(arcs[1], key, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["mesh", "validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key, width", [("vertices", 2), ("triangles", 3), ("boundary", 3)])
def test_mesh_validate_names_a_missing_mesh_field(tmp_path, capsys, key, width):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_set(msh.mesh_to_dict(builtin_domain("disk")[1]), key, ...)))
    assert run(["mesh", "validate", str(path)]) == 1
    assert capsys.readouterr().err == (f'error: condition (mesh): mesh file has no "{key}": '
                                       f"expected a list of rows of {width} numbers\n")


@pytest.mark.parametrize("key, value, message", [
    ("dofs", ..., 'spline file has no "dofs": expected a list of numbers'),
    ("mesh", ..., 'spline file has no "mesh": expected a mesh object'),
    ("dofs", None, 'spline file: "dofs" is not a list of numbers'),
    ("dofs", ["0"] * 134, 'spline file: "dofs" is not a list of numbers'),
], ids=["dofs-missing", "mesh-missing", "dofs-null", "dofs-strings"])
def test_export_plot_names_a_mistyped_or_missing_spline_field(tmp_path, capsys, key, value,
                                                             message):
    data = {"mesh": msh.mesh_to_dict(builtin_domain("disk")[1]), "dofs": [0.0] * 134}
    sol_file = tmp_path / "sol.json"
    sol_file.write_text(json.dumps(_set(data, key, value)))
    assert run(["export", "plot", "--solution", str(sol_file), "--output",
                str(tmp_path / "plot.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_export_plot_rejects_a_non_finite_dof(tmp_path, capsys, value):
    # json reads NaN and Infinity; the spline file names the first such dof
    dofs = [0.0] * 134
    dofs[17] = dofs[90] = value
    sol_file = tmp_path / "sol.json"
    sol_file.write_text(json.dumps({"mesh": msh.mesh_to_dict(builtin_domain("disk")[1]),
                                    "dofs": dofs}))
    out = tmp_path / "plot.csv"
    assert run(["export", "plot", "--solution", str(sol_file), "--output", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: spline file: dof 17 is {value}, "
                                       "not a finite number\n")
    assert not out.exists()


def test_mesh_validate_reports_condition(tmp_path, capsys):
    # all-pie fan: violates condition (c)
    from conicfem.geometry import domain_to_dict
    data = {
        "domain": domain_to_dict(disk_domain()),
        "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                     [0.1, 0.05]],
        "triangles": [[k, (k + 1) % 4, 4] for k in range(4)],
        "boundary": [[k, (k + 1) % 4, k] for k in range(4)],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = run(["mesh", "validate", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "condition (c)" in captured.err


@pytest.mark.parametrize("hub, message", [
    # across the ring: the triangles at edge (8, 15) fold over it
    ([0.6, 0.0], "triangles [1, 2] lie on the same side of their edge (8, 15)"),
    # far out: each triangle is degenerate relative to its own size, so the
    # sliver named is one at the hub, not a small triangle of the rim
    ([1e8, 0.0], "degenerate triangle (16, 9, 10)"),
    # on the chord (9, 10): twice the area 1.5e-14, degenerate by the rule
    # of bernstein.degenerate that the space build also applies
    ([4.163336342343995e-17, 0.469454364826262], "degenerate triangle (16, 9, 10)"),
], ids=["fold", "far-hub", "flat-hub"])
def test_mesh_validate_rejects_a_moved_hub(tmp_path, capsys, hub, message):
    # the built-in disk mesh with its hub, vertex 16, moved
    data = msh.mesh_to_dict(builtin_domain("disk")[1])
    data["vertices"][16] = hub
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["mesh", "validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: condition (mesh): {message}\n"


@pytest.mark.parametrize("where, value, message", [
    ("centre", 17, "triangle 2 (17, 15, 8) has a vertex index outside 0..16"),
    ("centre", -1, "triangle 2 (-1, 15, 8) has a vertex index outside 0..16"),
    ((1, 1), 17, "boundary edge 1 (0, 17, 3) has a vertex index outside 0..16"),
    ((2, 2), 9, "boundary edge 2 (1, 2, 9) has an arc index outside 0..3"),
    ("centre", 1e20, "triangle 2 (100000000000000000000, 15, 8) has a vertex index "
                     "outside 0..16"),
    ("centre", 2**63, "triangle 2 (9223372036854775808, 15, 8) has a vertex index "
                      "outside 0..16"),
    ((1, 1), 1e20, "boundary edge 1 (0, 100000000000000000000, 3) has a vertex index "
                   "outside 0..16"),
    ("centre", float("inf"), "triangle 2 (inf, 15.0, 8.0) has a non-integral index"),
])
def test_mesh_validate_reports_out_of_range_indices(tmp_path, capsys, where, value, message):
    # the built-in disk mesh (17 vertices, centre 16, 4 arcs) with one bad
    # index: the centre in every triangle, or one entry of a boundary edge.
    # An index beyond int64 is named by its exact value, with no numpy
    # warning: the range is checked before the cast that would wrap it
    data = msh.mesh_to_dict(builtin_domain("disk")[1])
    if where == "centre":
        data["triangles"] = [[value if v == 16 else v for v in t] for t in data["triangles"]]
    else:
        data["boundary"][where[0]][where[1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["mesh", "validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: condition (mesh): {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda d: dict(d, domain=dict(d["domain"], arcs=[])), "domain needs at least one arc"),
    (lambda d: dict(d, domain=dict(d["domain"], arcs=[dict(d["domain"]["arcs"][0],
                                                           coeffs=[0.0] * 6)]
                                   + d["domain"]["arcs"][1:])), "zero conic"),
], ids=["no-arcs", "zero-conic"])
def test_mesh_refine_rejects_a_domain_the_file_cannot_hold(tmp_path, capsys, edit, message):
    path, out = tmp_path / "bad.json", tmp_path / "out.json"
    path.write_text(json.dumps(edit(msh.mesh_to_dict(builtin_domain("disk")[1]))))
    assert run(["mesh", "refine", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_export_plot_rejects_dofs_of_the_wrong_count(tmp_path, capsys):
    # the disk mesh's space has 134 dofs
    sol_file, out = tmp_path / "sol.json", tmp_path / "plot.csv"
    sol_file.write_text(json.dumps({"mesh": msh.mesh_to_dict(builtin_domain("disk")[1]),
                                    "dofs": [0.0] * 5}))
    assert run(["export", "plot", "--solution", str(sol_file), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: dof vector has shape (5,), expected (134,)\n"
    assert not out.exists()


def test_mesh_validate_rejects_fractional_indices(tmp_path, capsys):
    # a cast to int would truncate 1.7 to 1 and pass the built-in mesh
    data = msh.mesh_to_dict(builtin_domain("disk")[1])
    data["triangles"] = [[t[0] + 0.7] + t[1:] for t in data["triangles"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["mesh", "validate", str(path)]) == 1
    t0 = tuple(float(v) for v in data["triangles"][0])
    assert capsys.readouterr().err == (f"error: condition (mesh): triangle 0 {t0} "
                                       "has a non-integral index\n")


def _strings(data):
    """data with every vertex coordinate and arc index a JSON string."""
    return dict(data, vertices=[[str(x) for x in v] for v in data["vertices"]],
                boundary=[[a, b, str(arc)] for a, b, arc in data["boundary"]])


def _arc_strings(data):
    return dict(data, boundary=[[a, b, str(arc)] for a, b, arc in data["boundary"]])


def _booleans(data):
    """data with vertex 0 [true, false] and one triangle index true."""
    tris = [list(t) for t in data["triangles"]]
    tris[2][1] = True
    return dict(data, vertices=[[True, False]] + data["vertices"][1:], triangles=tris)


def _triangle_boolean(data):
    return dict(_booleans(data), vertices=data["vertices"])


# the built-in disk mesh: vertex 0 (1.0, 0.0), triangle 2 (16, 15, 8),
# boundary edge 0 (0, 1) on arc 0
_NOT_NUMBERS = [
    (_strings, 'vertices[0] is ["1.0", "0.0"], expected 2 numbers'),
    (_arc_strings, 'boundary[0] is [0, 1, "0"], expected 3 numbers'),
    (_booleans, "vertices[0] is [true, false], expected 2 numbers"),
    (_triangle_boolean, "triangles[2] is [16, true, 8], expected 3 numbers"),
]
_NOT_NUMBERS_IDS = ["strings", "arc-strings", "booleans", "triangle-boolean"]


@pytest.mark.parametrize("edit, message", _NOT_NUMBERS, ids=_NOT_NUMBERS_IDS)
def test_mesh_validate_rejects_entries_that_are_not_numbers(tmp_path, capsys, edit, message):
    # numeric strings and booleans convert to floats, but a mesh file holds
    # numbers only, as its domain and a spline file's dofs do
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(msh.mesh_to_dict(builtin_domain("disk")[1]))))
    assert run(["mesh", "validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: condition (mesh): {message}\n"


@pytest.mark.parametrize("edit, message", _NOT_NUMBERS, ids=_NOT_NUMBERS_IDS)
def test_export_plot_rejects_a_mesh_entry_that_is_not_a_number(tmp_path, capsys, edit,
                                                               message):
    sol_file = tmp_path / "sol.json"
    sol_file.write_text(json.dumps({"mesh": edit(msh.mesh_to_dict(builtin_domain("disk")[1])),
                                    "dofs": [0.0] * 134}))
    out = tmp_path / "plot.csv"
    assert run(["export", "plot", "--solution", str(sol_file), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: condition (mesh): {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_solve_rejects_tol_that_is_not_finite_and_positive(tol, capsys):
    # the Newton stop rule has no settings: any --tol is a usage error
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "disk", "--levels", "1", "--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-iter"])
def test_solve_has_no_stop_flags(flag, capsys):
    # the Newton stop rule has no settings
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "disk", "--levels", "1", flag, "1e-10"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tol", "max_iter"])
def test_config_has_no_stop_keys(key, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"problem": "disk", key: 10}))
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--config", str(conf), "--levels", "1"])
    assert exc.value.code == 2
    assert f"unknown --config key(s): {key}" in capsys.readouterr().err


def test_solve_exits_2_when_a_level_diverges(monkeypatch, capsys):
    # c2-domain L1 takes m = 4, so a cap of one real step leaves it unconverged
    monkeypatch.setattr(sol, "MAX_STEPS", 1)
    assert run(["solve", "--problem", "c2-domain", "--levels", "1"]) == 2
    assert capsys.readouterr().err == ("warning: Newton iteration diverged on some "
                                       "level (step cap hit or four growing corrections)\n")


def test_space_info(capsys):
    assert run(["space", "info", "--problem", "disk"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 134" in out


def test_space_info_refines_to_levels(capsys):
    assert run(["space", "info", "--problem", "disk", "--levels", "2"]) == 0
    assert "dimension: 478" in capsys.readouterr().out


def test_solve_verbose_logs_one_line_per_level(caplog):
    logger = logging.getLogger("conicfem")
    level = logger.level
    try:
        assert run(["solve", "--problem", "disk", "--levels", "2", "--verbose"]) == 0
    finally:
        logger.setLevel(level)
    lines = [r.getMessage() for r in caplog.records if r.name == "conicfem.solver"]
    assert [line.split(" m=")[0] for line in lines] == ["level 1: dim=134", "level 2: dim=478"]


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_space_info_rejects_levels_below_one(levels, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["space", "info", "--problem", "disk", "--levels", levels])
    assert exc.value.code == 2
    assert "levels must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["export"])
@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_lattice_below_two_points_is_rejected(tmp_path, how, grid, capsys):
    out = tmp_path / "plot.csv"
    with pytest.raises(SystemExit) as exc:
        run(["export", "plot", "--solution", str(tmp_path / "u.json"),
             "--grid", grid, "--output", str(out)])
    assert exc.value.code == 2
    assert "--grid must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("levels", ["-1", "-2"])
def test_mesh_refine_rejects_negative_levels(tmp_path, disk_mesh, levels, capsys):
    path = tmp_path / "mesh.json"
    msh.save_mesh(disk_mesh, path)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(["mesh", "refine", str(path), "--levels", levels, "--output", str(out)])
    assert exc.value.code == 2
    assert "levels must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_solve_report_json(tmp_path, monkeypatch):
    returned = {}
    real_run = sol.multilevel_run

    def keep(*args, **kwargs):
        returned["reports"], u = real_run(*args, **kwargs)
        return returned["reports"], u

    monkeypatch.setattr(sol, "multilevel_run", keep)
    path = tmp_path / "report.json"
    assert run(["solve", "--problem", "disk", "--levels", "2",
                "--report-json", str(path)]) == 0
    levels = json.loads(path.read_text())
    reports = returned["reports"]
    assert len(levels) == len(reports) == 2

    def same(want, got):
        if isinstance(want, dict):
            return set(want) == set(got) and all(same(v, got[k]) for k, v in want.items())
        if isinstance(want, (list, tuple)):
            return len(want) == len(got) and all(map(same, want, got))
        return want == got

    names = {f.name for f in dataclasses.fields(sol.LevelReport)}
    for rep, got in zip(reports, levels):
        assert set(got) == names
        for name in names:
            assert same(getattr(rep, name), got[name]), name
    assert {"space", "quad", "newton"} <= set(levels[1]["timings"])
    assert {"nnz", "lu_fill", "fill_defect", "quad_mb", "plan_mb", "factorizations",
            "refactorizations", "krylov_iters"} <= set(levels[1]["solver"])
    assert levels[0]["solver"]["krylov_iters"] == reports[0].solver["krylov_iters"] == [3, 3]


def test_config_file_defaults(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"problem": "disk", "levels": 1}))
    assert run(["solve", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "init" in out
    # an explicit flag wins over the config, also when abbreviated
    conf.write_text(json.dumps({"problem": "disk", "levels": 2}))
    for flag in (["--levels", "1"], ["--lev", "1"], ["--lev=1"]):
        assert run(["solve", *flag, "--config", str(conf)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows if r and r[0].isdigit()] == ["1"]


def test_unknown_config_key_fails(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"problem": "disk", "levles": 2}))
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--config", str(conf), "--levels", "1"])
    assert exc.value.code != 0
    assert "levles" in capsys.readouterr().err
    # the lattice keys went with solve's lattice flags: export plot samples
    for key, value in (("plot_data", "plot.csv"), ("plot_grid", 41)):
        conf.write_text(json.dumps({"problem": "disk", key: value}))
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--config", str(conf), "--levels", "1"])
        assert exc.value.code == 2
        assert f"unknown --config key(s): {key}" in capsys.readouterr().err
    # a config that is not a JSON object, or not JSON, is a usage error too
    for text in ("[1, 2]", "null", '"disk"', "{"):
        conf.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--config", str(conf), "--levels", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--config" in err and "Traceback" not in err


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"problem": "disk", "levels": "2"}))
    try:
        rc = run(["solve", "--config", str(conf)])
    except SystemExit as exc:      # a clean usage error is also acceptable
        rc = exc.code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if rc == 0:
        rows = [line.split() for line in captured.out.splitlines()]
        assert [r[0] for r in rows if r and r[0].isdigit()] == ["1", "2"]
    else:
        assert rc == 2
    # a value its flag cannot parse fails as a usage error naming the flag,
    # also when the command line gives that flag
    conf.write_text(json.dumps({"problem": "disk", "levels": "two"}))
    for flags in ([], ["--levels", "1"], ["--lev=1"]):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--config", str(conf), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--levels" in err and "'two'" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--problem", "disk", "--mesh", "none.json"], "--problem custom"),
    (["solve", "--problem", "disk", "--g-expr", "1+"], "--problem custom"),
    (["solve", "--g-expr", "exp(x1)"], "--problem custom"),
    (["solve", "--config", "conf.json"], "--problem custom"),
    (["space", "info", "none.json", "--problem", "disk"], "not both"),
    # missing inputs are usage errors too
    (["solve", "--problem", "custom", "--mesh", "none.json"], "requires --mesh and --g-expr"),
    (["space", "info"], "needs a mesh file or --problem"),
], ids=["mesh", "g-expr", "g-expr-default-problem", "config-mesh", "space-path",
        "custom-no-g-expr", "space-none"])
def test_flags_that_would_be_ignored_are_rejected(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps({"mesh": "none.json"}))
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_dump_matrix_reuses_final_space(tmp_path, monkeypatch):
    from scipy.io import mmread

    builds = []
    real_build = sol.build_space
    monkeypatch.setattr(sol, "build_space",
                        lambda mesh: builds.append(mesh) or real_build(mesh))
    final = {}
    real_run = sol.multilevel_run

    def keep_final(*args, **kwargs):
        reports, u = real_run(*args, **kwargs)
        final["u"] = u
        return reports, u

    monkeypatch.setattr(sol, "multilevel_run", keep_final)
    mat = tmp_path / "m.mtx"
    assert run(["solve", "--problem", "disk", "--levels", "3",
                "--dump-matrix", str(mat)]) == 0
    assert len(builds) == 3
    u = final["u"]
    quad = asm.TriangleQuadrature(u.space)
    A, _, _ = sol.linearize_ma(u, problem_g("disk"), quad)
    want = asm.assemble(A, quad)
    got = mmread(str(mat)).tocsr()
    assert got.shape == want.shape
    assert abs(got - want).max() <= 1e-14 * abs(want).max()


def test_unknown_problem_fails():
    with pytest.raises(SystemExit):
        run(["solve", "--problem", "lemniscate"])


def test_custom_problem(tmp_path, disk_mesh, capsys):
    path = tmp_path / "mesh.json"
    msh.save_mesh(disk_mesh, path)
    rc = run(["solve", "--problem", "custom", "--mesh", str(path),
              "--g-expr", "exp(x1)", "--levels", "1"])
    assert rc == 0
    assert "init" in capsys.readouterr().out
    # missing pieces are a usage error, unsafe names a run-time one
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "custom", "--levels", "1"])
    assert exc.value.code == 2
    assert run(["solve", "--problem", "custom", "--mesh", str(path),
                "--g-expr", "__import__('os')", "--levels", "1"]) == 1


@pytest.mark.parametrize("expr, message", [
    ("x1 +", "is not an expression"),
    ("sqrt", "does not evaluate to numbers"),
    ("x1 + 'a'", "does not evaluate to numbers"),
    ("sqrt(x1)", "must be finite and positive"),      # NaN where x1 < 0
    ("1/(x1-x1)", "must be finite and positive"),     # inf everywhere
])
def test_bad_g_expr_is_an_error_not_a_traceback(tmp_path, disk_mesh, capsys, expr, message):
    path = tmp_path / "mesh.json"
    msh.save_mesh(disk_mesh, path)
    assert run(["solve", "--problem", "custom", "--mesh", str(path),
                "--g-expr", expr, "--levels", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def _dump_reports_tool():
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "dump_reports.py"
    spec = importlib.util.spec_from_file_location("dump_reports", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_dump_reports_compare(tmp_path, capsys):
    # the same dump compares equal; a moved error is reported as its
    # relative change, and a changed m or dimension exits 1
    tool = _dump_reports_tool()
    a = tmp_path / "a.json"
    assert tool.main(["--problem", "disk", "--levels", "2", "-o", str(a)]) == 0
    assert tool.main(["--compare", str(a), str(a)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "disk against disk"
    levels = json.loads(a.read_text())["levels"]
    frozen = levels[0]["solver"]["frozen_iters"]
    assert len(frozen) == 4     # the factorization's solve and 3 frozen solves
    assert out[1].startswith("level 1: dimension 134 134, m 3 3, krylov_iters [3, 3] [3, 3], "
                             f"frozen_iters {frozen} {frozen}; "
                             "largest relative change: errors 0.00e+00, eps_errors 0.00e+00, "
                             "R 0.00e+00")
    assert "eps_errors -" in out[2] and "DIFFERS" not in "".join(out)
    for line, level in zip(out[1:], levels):
        ratio = f"{level['solver']['stop_ratio']:.3g}"
        lu_mb = f"{level['solver']['lu_mb']:.4g}"
        defect = f"{level['solver']['fill_defect']:.3e}"
        eigmin = level["hessian_eigmin"]
        assert line.endswith(f"; hessian_eigmin {eigmin} {eigmin}; "
                             f"lu_mb {lu_mb} {lu_mb}, fill_defect {defect} {defect}; "
                             f"stop_ratio {ratio} {ratio}, factorizations 1 1")

    # the CG counts, the factor size, the fill defect, the stop test and
    # the factorizations are shown, not judged
    moved = json.loads(a.read_text())
    moved["levels"][0]["solver"]["frozen_iters"] = [7, 7]
    moved["levels"][0]["solver"]["krylov_iters"] = [9]
    moved["levels"][0]["solver"]["lu_mb"] = 2.5
    moved["levels"][0]["solver"]["fill_defect"] = 3e-9
    moved["levels"][0]["solver"]["stop_ratio"] = 0.5
    moved["levels"][0]["solver"]["factorizations"] = 2
    moved["levels"][0]["hessian_eigmin"] = -0.25
    b = tmp_path / "b.json"
    b.write_text(json.dumps(moved))
    assert tool.main(["--compare", str(a), str(b)]) == 0
    ratio = f"{levels[0]['solver']['stop_ratio']:.3g}"
    lu_mb = f"{levels[0]['solver']['lu_mb']:.4g}"
    defect = f"{levels[0]['solver']['fill_defect']:.3e}"
    line = capsys.readouterr().out.splitlines()[1]
    assert f"krylov_iters [3, 3] [9], frozen_iters {frozen} [7, 7]; " in line
    assert line.endswith(f"; hessian_eigmin {levels[0]['hessian_eigmin']} -0.25; "
                         f"lu_mb {lu_mb} 2.5, fill_defect {defect} 3.000e-09; "
                         f"stop_ratio {ratio} 0.5, factorizations 1 2")

    moved = json.loads(a.read_text())
    moved["levels"][0]["errors"][0] *= 1 + 1e-6
    b = tmp_path / "b.json"
    b.write_text(json.dumps(moved))
    assert tool.main(["--compare", str(a), str(b)]) == 0
    assert "errors 1.00e-06, eps_errors 0.00e+00" in capsys.readouterr().out
    for field in ("iterations", "dimension"):
        changed = json.loads(a.read_text())
        changed["levels"][1][field] += 1
        b.write_text(json.dumps(changed))
        assert tool.main(["--compare", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines()[2].endswith("DIFFERS")
    with pytest.raises(SystemExit):
        tool.main(["--problem", "disk"])


def test_dump_reports_rejects_levels_below_one(tmp_path, capsys):
    tool = _dump_reports_tool()
    with pytest.raises(SystemExit) as exc:
        tool.main(["--problem", "disk", "--levels", "0", "-o", str(tmp_path / "a.json")])
    assert exc.value.code == 2
    assert "--levels must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()
