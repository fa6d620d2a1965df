"""A census of the public names: each one feeds a verdict or has a role.

Every public top-level function or class of the modules below must be
loaded (as a name or an attribute) somewhere in ``src/hamlab`` outside
``__init__.py``, or be listed in ``ROLES`` with the reason it stays.  A
listed name that gains a caller fails too, so the list cannot go stale,
and README's table of these names must name each one.
"""

import ast
import re
from pathlib import Path

import hamlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hamlab"
MODULES = ("canonical", "string", "line", "kdv", "csvio", "cli", "errors")

# public names that no verdict calls -> why they stay
ROLES = {
    "poisson_bracket": "oracle: FD side of the bracket pair (poisson_bracket_analytic)",
    "poisson_bracket_analytic": "oracle: analytic side of the bracket pair",
    "check_gradients": "oracle: analytic gradients against the FD stencil",
    "schrodinger_a": "oracle: DOP853 Jost solver against the Magnus sweep",
    "analytic_soliton_a": "oracle: closed-form a(k) for both Jost solvers",
    "riccati_residual": "oracle: truncation residual of the riccati_densities recursion",
    "line_energy": "test reference for dalembert_evolve's energy conservation",
    "recover_momenta": "ROADMAP item 9",
    "hj_action": "ROADMAP item 11: the dS/dE check against hj_constants' beta in string-hj",
    "symplectic_step": "the one backward (negative dt) step; reversibility tests",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_names(trees):
    names = {}
    for module in MODULES:
        for node in trees[f"{module}.py"].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[node.name] = module
    return names


def _loaded_names(trees):
    loaded = set()
    for filename, tree in trees.items():
        if filename == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_is_called_or_has_a_role():
    trees = _trees()
    loaded = _loaded_names(trees)
    idle = sorted(
        f"{module}.{name}"
        for name, module in _public_names(trees).items()
        if name not in loaded and name not in ROLES
    )
    assert not idle, f"public names with no caller in src/ and no role: {idle}"


def test_roles_name_public_names_without_callers():
    trees = _trees()
    public, loaded = _public_names(trees), _loaded_names(trees)
    assert not set(ROLES) - set(public), "ROLES names that are not public names"
    stale = sorted(set(ROLES) & loaded)
    assert not stale, f"ROLES names that now have a caller in src/: {stale}"


def test_readme_names_every_role():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(name for name in ROLES if not re.search(rf"`(\w+\.)?{name}`", readme))
    assert not missing, f"README does not name: {missing}"


def test_every_export_resolves():
    # a deleted public name left in __all__ would fail only `from hamlab import *`
    missing = sorted(name for name in hamlab.__all__ if not hasattr(hamlab, name))
    assert not missing, f"hamlab.__all__ names that do not resolve: {missing}"
    assert len(set(hamlab.__all__)) == len(hamlab.__all__), "hamlab.__all__ repeats a name"
