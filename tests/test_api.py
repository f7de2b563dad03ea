"""Every public function and class of the package has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "egfrac").glob("*.py"))
# the benchmark harness is a caller; its own tests are not
HARNESS = (ROOT / "perfbench").glob("*.py")
CALLERS = PACKAGE + sorted(p for p in HARNESS if not p.name.startswith("test_"))

# public names kept without a caller, each for a stated reason
EXEMPT = {
    "lp1_case_survivors": "a sub-fact of the lp1 proof, kept until its certificate replaces it",
    "lp11_case_survivors": "a sub-fact of the lp11 proof, kept until its certificate replaces it",
    "lp50_congruence_solvable_ks": "a sub-fact of the lp50 proof, kept until its certificate replaces it",
}


def _public_definitions() -> set[str]:
    names = set()
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def _references() -> set[str]:
    """Names, attributes, imported names and string constants in the callers."""
    found = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def test_every_public_definition_has_a_caller_outside_the_tests():
    unreferenced = _public_definitions() - _references()
    assert unreferenced - EXEMPT.keys() == set()
    # an exemption that gained a caller, or whose name is gone, is dropped
    assert EXEMPT.keys() <= unreferenced
