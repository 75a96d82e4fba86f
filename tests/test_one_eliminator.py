"""Column bitmasks are the one matrix format of the library and
ringalg.Echelon its one eliminator: the row-packed F2Mat and its rank
routines stay in ringalg for the benchmark's tracer and the tests, and no
other module names them."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "khbn")
ROW_PACKED = {"F2Mat", "f2_rank", "RankResult", "nilpotent_block_multiplicities"}


def names(path):
    """Every identifier, attribute and imported name in a module."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname


def test_only_ringalg_names_the_row_packed_format():
    modules = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "homology.py" in modules and "ringalg.py" in modules
    for module in modules:
        if module == "ringalg.py":
            continue
        used = ROW_PACKED & set(names(os.path.join(SRC, module)))
        assert not used, f"khbn/{module} names {sorted(used)}"
