"""Regenerate the shipped initial meshes in src/conicfem/data/.

Run from the repository root:  python tools/generate_builtin_data.py

The package is imported from the checkout's src/, so no install is needed.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from conicfem import problems as pr  # noqa: E402
from conicfem.mesh import mesh_to_dict, refine_uniform  # noqa: E402

OUT = ROOT / "src" / "conicfem" / "data"


def builtin_meshes():
    """The initial mesh of each built-in domain, by data file name."""
    jobs = {
        "disk_mesh.json": (pr.disk_domain(), pr.disk_wheel_points(), 0.55),
        "ellipse_mesh.json": (pr.ellipse_domain(), pr.ellipse_wheel_points(), 0.55),
        "c2_mesh.json": (pr.c2_domain(), pr.c2_wheel_points(), 0.5),
    }
    meshes = {}
    for name, (domain, (pts, arcs), shrink) in jobs.items():
        mesh = pr.wheel_mesh(domain, pts, arcs, shrink=shrink)
        refine_uniform(mesh)  # refinability sanity check before shipping
        meshes[name] = mesh
    return meshes


def mesh_text(mesh):
    """The JSON text of a shipped mesh file."""
    return json.dumps(mesh_to_dict(mesh), indent=1)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, mesh in builtin_meshes().items():
        path = OUT / name
        path.write_text(mesh_text(mesh))
        print(f"wrote {path} ({mesh.n_triangles} triangles)")


if __name__ == "__main__":
    main()
