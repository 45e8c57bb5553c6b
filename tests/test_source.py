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


def test_no_float_literal_in_the_command_line():
    """``cli.py`` parses, dispatches and prints: every number a claim or a
    check reads lives in the harness or the engine, where the golden files
    and the harness tests reach it."""
    path = next(p for p in SOURCES if p.name == "cli.py")
    found = [f"cli.py:{node.lineno} {node.value!r}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float]
    assert not found, f"float literals at {found}"


def _declared_fields(cls: ast.ClassDef) -> set[str]:
    """Names a class body assigns, with or without an annotation, and the
    attributes its methods assign on ``self``."""
    names = {t.id for node in cls.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(t, ast.Name)}
    return names | {t.attr for node in ast.walk(cls) if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"}


def test_one_interval_type():
    """``extreal.Interval`` is the one interval type, empty included: no
    other class declares both ``lo_closed`` and ``hi_closed``."""
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and {"lo_closed", "hi_closed"} <= _declared_fields(node)
             and (path.name, node.name) != ("extreal.py", "Interval")]
    assert not found, f"a second interval type at {found}"


def test_the_definitional_hull_reads_nothing_of_the_geometric_route():
    """``prox_hull`` and the ``concave_sup`` it calls (with its helpers)
    compute the hull as a sup of envelope values, the route that
    ``hull_fn_value`` is checked against: none of them names the lower
    convex envelope of lam f + kappa or its slopes (seeding the sup at the
    geometric hull's slope at x would make the two routes check
    themselves)."""
    geometric = {"hull_curve", "hull_fn_value", "lower_convex_envelope", "slopes_at",
                 "HullCurve"}
    sup_route = {"prox_hull", "concave_sup", "_parabola_bracket", "_sup_bound"}
    seen, found = set(), []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name in sup_route:
                seen.add(fn.name)
                names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
                found += [f"{path.name}:{fn.name} names {name}"
                          for name in sorted(geometric & names)]
    assert seen == sup_route and not found, found


def _calls_by_function(tree: ast.Module):
    """(name of the innermost enclosing function or None, call node) for
    every call in a module."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                yield fn, child
            yield from visit(child, inner)
    return visit(tree, None)


def _names(node) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {n.name for n in ast.walk(node) if isinstance(n, ast.FunctionDef)})


def test_engines_are_built_only_by_the_registry():
    """Per-instance work happens once, on the registered engine: no module
    builds an ``InstanceEngine`` outside ``proxenv.engine`` (the threshold
    scan evaluates its objective on a grid of its own)."""
    found = [f"{path.name}:{call.lineno} in {fn}"
             for path in SOURCES for fn, call in _calls_by_function(ast.parse(path.read_text()))
             if "InstanceEngine" in _names(call.func)
             and (path.name, fn) != ("proxenv.py", "engine")]
    assert not found, f"InstanceEngine built at {found}"


def test_the_set_valued_slopes_are_one_engine_fact():
    """``HullCurve.segment_slopes`` is read only where the set-valued slopes
    are decided, ``InstanceEngine.critical_etas``: no check derives them
    again."""
    found = [path.name for path in SOURCES if "segment_slopes" in _names(ast.parse(path.read_text()))
             and path.name not in ("numerics.py", "proxenv.py")]
    assert not found, f"segment_slopes named in {found}"


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _engine_names(tree: ast.Module) -> set[str]:
    """Names a module binds to an engine: assigned from a call of
    ``engine`` (or ``proxenv.engine``), or parameters annotated
    ``InstanceEngine``."""
    names = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and _callee(node.value) == "engine"
             for t in node.targets if isinstance(t, ast.Name)}
    return names | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)
                    and node.annotation is not None
                    and "InstanceEngine" in _names(node.annotation)}


def test_only_the_engine_module_reads_engine_internals():
    """An engine keeps its rows, windows and caches to itself: no module but
    ``proxenv`` reads a ``_``-prefixed attribute of an engine (a name bound
    to one, or ``engine(...)`` itself). The certificates read their least
    slacks through ``InstanceEngine.left_slack`` and ``right_slack``."""
    found = []
    for path in SOURCES:
        if path.name == "proxenv.py":
            continue
        tree = ast.parse(path.read_text())
        engines = _engine_names(tree)
        found += [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and (isinstance(node.value, ast.Name) and node.value.id in engines
                       or isinstance(node.value, ast.Call) and _callee(node.value) == "engine")]
    assert not found, f"engine internals read at {found}"


def _names_numpy_random(node) -> bool:
    """``node`` is ``np.random`` (or ``numpy.random``) or an attribute of it."""
    while isinstance(node, ast.Attribute):
        if node.attr == "random" and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            return True
        node = node.value
    return False


def test_only_the_harness_draws_random_numbers():
    """Engine facts and the commands outside ``verify`` depend on no seed,
    and importing ``numpy.random`` costs a fresh process about 5 MB: no
    module but ``verify.py`` calls into ``np.random`` or imports it."""
    found = []
    for path in SOURCES:
        if path.name == "verify.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            call = isinstance(node, ast.Call) and _names_numpy_random(node.func)
            imported = (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random")
                        or isinstance(node, ast.Import)
                        and any(a.name.startswith("numpy.random") for a in node.names))
            if call or imported:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"numpy.random used at {found}"
