"""Every function and method of the package is entered by some subcommand.

A fresh interpreter imports `cli` and runs small configs through its
`main`: the four curve-taking subcommands on seven curves, extremal-profile
on five weights, reproduce-example 1, 2 and 3, and verify-identities.  A
profile hook records each code object entered during the runs, by file and
first line; for a decorated function that is its first decorator's line, as
`ast` reports it too.  Code that no subcommand reaches belongs in the tests,
or nowhere.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import holocurve

PACKAGE = Path(holocurve.__file__).resolve().parent

# Defined but never entered by a subcommand, each for its reason.
ALLOWED = {
    # Lazy package access: `import holocurve` resolves names on first use.
    # No subcommand does, nor does importing the modules (see
    # test_exports.test_the_cli_imports_without_the_lazy_hook).
    "holocurve.__getattr__",
    "holocurve.__dir__",
    # First-use scipy shims and the O(N^2) pair-search reference, which the
    # benchmark's tracer binds by name (ROADMAP items 1 and 2).
    "holocurve.criterion.dijkstra",
    "holocurve.criterion.minimize",
    "holocurve.oracle.cKDTree",
    "holocurve.oracle._admissible_min_brute",
    # The third closed-kind factory, beside the two the examples call.
    "holocurve.nehari.NehariFunction.half_strip",
    # The map itself; the library takes a DiskMobius through its jet.
    "holocurve.jets.DiskMobius.__call__",
}

_COMMON = {
    "grid.n_r": "6", "grid.n_theta": "8", "profile.samples": "17",
    "covering.radii": "0.3", "covering.resolution": "8",
    "injectivity.samples": "200", "boundary.rays": "2",
    "boundary.s_points": "3", "boundary.ring_samples": "64",
}

_TABLE = {"nehari.kind": "tabulated", "nehari.table_x": "0,0.3,0.6,0.9",
          "nehari.table_p": "1,1.09,1.36,1.81"}

CURVES = [
    {"curve.kind": "identity", "nehari.kind": "constant"},
    {"curve.kind": "polynomial", "curve.coeffs": "0,1,0.1i;0,0,0.2",
     **_TABLE},
    {"curve.kind": "example1", "nehari.kind": "constant"},
    {"curve.kind": "example2", "nehari.kind": "inverse_square"},
    {"curve.kind": "radial_pair", "curve.mobius_rho": "0.2",
     "curve.mobius_theta": "0.5", "curve.scale": "2",
     "curve.normalize": "true", "grid.refine": "2",
     "nehari.kind": "half_strip", "nehari.factor": "0.5"},
    {"curve.kind": "tan_truncation", "curve.stretch": "0.5",
     "curve.degree": "9", "nehari.kind": "constant"},
    {"curve.kind": "z_squared", "injectivity.symmetrize": "true",
     "injectivity.r_min": "0.3", "nehari.kind": "constant"},
]

WEIGHTS = [
    {"nehari.kind": "constant"},
    {"nehari.kind": "inverse_square", "nehari.factor": "0.5"},
    {"nehari.kind": "half_strip"},
    {"nehari.kind": "half_strip", "nehari.factor": "0.5"},
    _TABLE,
]

RUNS = (
    [(command, curve) for command in ("check-criterion", "covering",
                                       "injectivity", "boundary")
     for curve in CURVES]
    + [("extremal-profile", weight) for weight in WEIGHTS]
    + [("reproduce-example", {"example.which": str(k),
                              "example.c_values": "0.05"})
       for k in (1, 2, 3)]
    + [("verify-identities", {})]
)

_RUNNER = """
import json, os, sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


from holocurve.cli import main

sys.setprofile(hook)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
with open(sys.argv[2], "w") as out:
    json.dump({"codes": codes, "entered": [
        [os.path.realpath(f), line] for f, line in entered]}, out)
"""


def _defined():
    """{(file, first line): qualified name} of every def in the package."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found[(path, line)] = f"{prefix}.{child.name}"
                walk(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)
            else:
                walk(child, prefix, path)

    for file in sorted(PACKAGE.glob("*.py")):
        module = ("holocurve" if file.stem == "__init__"
                  else f"holocurve.{file.stem}")
        walk(ast.parse(file.read_text()), module, os.path.realpath(file))
    return found


def test_every_function_is_entered_by_a_subcommand(tmp_path):
    argvs = []
    for i, (command, config) in enumerate(RUNS):
        path = tmp_path / f"{i}.cfg"
        path.write_text("".join(f"{k} = {v}\n"
                                for k, v in {**_COMMON, **config}.items()))
        argvs.append([command, str(path), "--output", str(tmp_path / "out")])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep \
        + env.get("PYTHONPATH", "")
    result = tmp_path / "entered.json"
    subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs),
                    str(result)], env=env, check=True, capture_output=True)
    report = json.loads(result.read_text())

    # Each run reached its verdict; example 3 is a config error, and the
    # z^2 curve's tangent vanishes at 0 (5) but its annulus collides (4).
    assert len(report["codes"]) == 37
    assert report["codes"][-2] == 2
    assert all(code in (0, 1, 4, 5) for code in report["codes"][:-2])
    entered = {tuple(e) for e in report["entered"]}
    never = {name for key, name in _defined().items() if key not in entered}
    assert never == ALLOWED
