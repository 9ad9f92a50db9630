"""The program carries no test-only code: every module-level function and
class is used by the program, every name in ``gln_modp.__all__`` that is
not a module is used by another module of the program, or is imported by the
acceptance suite, and every public method or property of a class is read as
an attribute by the program or by the acceptance suite."""

import ast
import pathlib
import types

import gln_modp

SRC = pathlib.Path(gln_modp.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).parent / "test_acceptance.py"


def names_read(paths):
    """(names read as a Name, names read as an Attribute) in these files,
    each outside the definition of that same name."""
    names, attrs = set(), set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and node.id not in own:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names, attrs


def program_files():
    """Every module of the program but ``__init__.py``."""
    return [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def used_by_program():
    """Names read as a Name or an Attribute by the program, outside the
    definition of that same name."""
    names, attrs = names_read(program_files())
    return names | attrs


def imported_by_acceptance():
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_is_used_by_the_program_or_an_acceptance_criterion():
    public = [name for name in gln_modp.__all__
              if not isinstance(getattr(gln_modp, name), types.ModuleType)]
    allowed = used_by_program() | imported_by_acceptance()
    assert [name for name in public if name not in allowed] == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_module_level_definitions():
    """``module.name`` for every module-level def or class that no program
    code uses.  A use is a bare name in its own module outside its own
    definition, a ``from .module import name`` in any module, or
    ``alias.name`` where ``from . import module as alias`` binds ``alias``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for module, tree in trees.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        used.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            used.update((module, node.id) for node in ast.walk(stmt)
                        if isinstance(node, ast.Name) and node.id != own)
    return [f"{module}.{stmt.name}" for module, tree in trees.items()
            for stmt in tree.body
            if isinstance(stmt, DEFINITIONS) and (module, stmt.name) not in used]


def test_every_module_level_definition_is_used_by_the_program():
    assert unused_module_level_definitions() == []


def unread_public_methods():
    """``Class.name`` for every public method or property of a module-level
    class that neither the program nor the acceptance suite reads as an
    attribute outside the definition of that name."""
    read = names_read(program_files())[1] | names_read([ACCEPTANCE])[1]
    return [f"{cls.name}.{stmt.name}" for path in sorted(SRC.glob("*.py"))
            for cls in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_") and stmt.name not in read]


def test_every_public_method_is_read_by_the_program_or_an_acceptance_criterion():
    assert unread_public_methods() == []
