"""Guards read from the package source rather than from its behaviour."""

import ast
from pathlib import Path

import bregmanprox

SOURCES = sorted(Path(bregmanprox.__file__).parent.glob("*.py"))


def _integral_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and float(node.value).is_integer())


def test_no_np_power_with_an_integral_exponent():
    """np.power with an integral exponent costs about 70 multiplies per
    element on negative bases (numpy 2.4, x86-64); write such powers as
    products of np.square and *. Fractional exponents are left to np.power."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "power" and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")
             and len(node.args) == 2 and _integral_literal(node.args[1])]
    assert not found, f"np.power with an integral exponent at {found}"


def test_no_float_branch_in_the_evaluation_path():
    """Kernels and catalog functions evaluate floats and arrays alike through
    numpy: no ``isinstance(..., float)`` or ``isinstance(..., (float, int))``
    branch keeps a second, scalar route."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name in ("kernels.py", "catalog.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and {"float", "int"} & {n.id for n in ast.walk(node.args[1])
                                     if isinstance(n, ast.Name)}]
    assert not found, f"float branch at {found}"


def _is_np_isnan(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "isnan" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy"))


def test_one_real_type_and_one_home_for_the_nan_rule():
    """Values are plain floats: no class subclasses ``float``. NaN from f or
    kappa is read in ``kernels._coerce`` alone (+inf at a NaN point, an error
    anywhere else), so no other module maps NaN to +inf with
    ``np.where(np.isnan(...), ...)`` or ``a[np.isnan(...)] = ...``."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "float" for b in node.bases):
                found.append(f"{path.name}:{node.lineno} subclasses float")
            if path.name == "kernels.py":
                continue
            where = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "where" and node.args and _is_np_isnan(node.args[0]))
            masked = (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Subscript) and _is_np_isnan(t.slice) for t in node.targets))
            if where or masked:
                found.append(f"{path.name}:{node.lineno} maps NaN")
    assert not found, found


def test_no_float_coercion_of_a_point_in_kernels():
    """The kernel helpers take a float or an array through one array body:
    no function in ``kernels.py`` converts one of its arguments with
    ``float()``, which would keep a scalar twin. ``grad_conj_by_inversion``,
    whose bisection is scalar by design, is exempt."""
    path = next(p for p in SOURCES if p.name == "kernels.py")
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)) \
                or getattr(fn, "name", None) == "grad_conj_by_inversion":
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        found += [f"{getattr(fn, 'name', 'lambda')}:{node.lineno}" for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float" and len(node.args) == 1
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in params]
    assert not found, f"float() of a point argument at {found}"
