import ast
import sys
from pathlib import Path

import schreierkit.oracles


def test_package_oracles_import_only_the_standard_library():
    # an oracle that imported the library could route through the fast path it checks
    tree = ast.parse(Path(schreierkit.oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            imported.add(node.module.split(".")[0])
    assert imported
    assert imported <= set(sys.stdlib_module_names), imported - set(sys.stdlib_module_names)
