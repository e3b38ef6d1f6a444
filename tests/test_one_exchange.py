"""Structural check: ``stages/keyed.keyed_fold`` is the engine's only
keyed exchange. No module outside ``stages/keyed.py`` may call
``repartition(..., keys=...)`` itself, so how keys are exchanged stays a
decision one file makes. No Ray needed: this only parses the source."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
KEYED = ROOT / "apache_datasketches_go_ray" / "stages" / "keyed.py"


def _keyed_repartitions(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "repartition"
                and any(k.arg == "keys" for k in node.keywords)):
            yield node.lineno


def test_no_keyed_repartition_outside_keyed_fold():
    files = sorted((ROOT / "apache_datasketches_go_ray").rglob("*.py"))
    files.append(ROOT / "__ray_entry__.py")
    assert KEYED in files
    offenders = [f"{f.relative_to(ROOT)}:{line}"
                 for f in files if f != KEYED
                 for line in _keyed_repartitions(f)]
    assert not offenders, (
        "keyed repartition outside stages/keyed.py (use keyed_fold): "
        + ", ".join(offenders))


def test_keyed_fold_owns_the_exchange():
    assert list(_keyed_repartitions(KEYED)), \
        "stages/keyed.py no longer holds the keyed exchange"
