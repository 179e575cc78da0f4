"""Every module-level import in src/stingray is used by its module.

A name counts as used when it appears as a Name node anywhere in the
module (an attribute chain such as np.zeros starts with one), or, in a
package __init__, when __all__ lists it as a re-export.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stingray"


def _bound_names(node):
    # "import a.b" binds a; "from m import x as y" binds y
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted("%s.%s" % (path.stem, bound)
                  for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for bound in _bound_names(node)
                  if bound not in used)


def test_no_unused_module_level_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [name for path in modules for name in unused_imports(path)] == []


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nimport sys\nfrom a import b, c as d\n"
                   "__all__ = ['d']\nprint(sys.argv)\n")
    assert unused_imports(mod) == ["mod.b", "mod.os"]
