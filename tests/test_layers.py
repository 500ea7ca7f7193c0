"""The package's modules form one import order, read from their source, and
its public names are pinned."""

import ast
from functools import cache
from pathlib import Path

import fucik

#: every module of the package but ``__init__``, each allowed to import
#: only those before it
LAYERS = ("errors", "spectrum", "eigenfunction", "closedform", "quadrature",
          "paleywiener", "nearness", "grammatrix", "cli")

PACKAGE = Path(fucik.__file__).parent


@cache
def _imported_modules(name: str) -> frozenset[str]:
    """The package modules that ``name`` imports, by relative or absolute import."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("fucik"):
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            # "from . import a, b" names modules; "from .a import f" names a
            found.update(parts[:1] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fucik."))
    # "from . import __version__" names the package itself
    return frozenset(found - {"__version__"})


def test_every_module_is_in_the_order():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)


def test_no_module_imports_a_later_one():
    for rank, name in enumerate(LAYERS):
        imported = _imported_modules(name)
        assert imported <= set(LAYERS), (name, imported - set(LAYERS))
        later = {m for m in imported if LAYERS.index(m) >= rank}
        assert not later, f"{name} imports {sorted(later)}"


def test_the_reader_sees_real_imports():
    # the order is not vacuous: every layer past the first imports some
    # earlier one, and the kernels depend on no assembly
    assert all(_imported_modules(name) for name in LAYERS[1:])
    assert _imported_modules("closedform") == {"eigenfunction", "errors", "spectrum"}
    assert {"closedform", "grammatrix", "nearness", "paleywiener"} <= _imported_modules("cli")


def test_the_public_names_are_pinned():
    # the public API grows only on purpose; the quadrature oracle offers
    # its batched engine and one inner product, and no one-integrand front
    assert fucik.__all__ == [
        "__version__",
        "FucikPoint", "complete_point", "curve_residual",
        "diagonal_point", "gamma_line_point",
        "FucikEigenfunction", "SineMode", "breakpoints", "build", "evaluate",
        "inner_numeric", "integrate_many",
        "ClosedFormValue", "dist_sq_to_sine",
        "inner_cross_index", "inner_same_index", "norm_sq",
        "BranchRule", "FinitePerturbation", "GammaLine", "NearnessReport",
        "PowerFamily", "bound_Cn", "corollary_cn_cap", "kato_weakened_term",
        "region_boundary", "theorem1_check", "theorem2_check", "zeta",
        "PaleyWienerBudget", "E_gamma", "E_gamma_extended", "Tk_norm",
        "budget", "ck_bound", "fourier_Ak", "gamma_admissible_max",
        "GramTruncation", "build_gram", "extreme_eigenvalues", "riesz_scan",
    ]
