"""The output layer: each file the package writes is opened by the writer
that owns its format (errors.write_json for JSON, dataset.write_table for
CSV), which turns an output fault into a ConfigError naming the file, so
no caller wraps a write."""
import ast
import pathlib
import re

import pytest

import depaft
from depaft.booster import TreeEnsemble, save
from depaft.dataset import write_table
from depaft.errors import ConfigError, write_json

SRC = pathlib.Path(depaft.__file__).parent


def _nodes():
    """(where, node) for every node of the package: where is the module
    and its innermost enclosing def or class ("errors.write_json")."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            yield inner, child
            yield from visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def _opens_for_writing(node) -> bool:
    """A call of open() whose mode is not a constant of read modes only."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def _calls(node, names) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr in names)


def test_only_the_json_and_csv_writers_open_a_file_for_writing():
    assert sorted(where for where, node in _nodes() if _opens_for_writing(node)) == [
        "dataset.write_table", "errors.write_json"]
    assert [where for where, node in _nodes() if _calls(node, {"write_text", "write_bytes"})] == []


def test_only_the_file_layer_wraps_a_write():
    # errors.py holds writing itself; outside it, the CSV writer and the
    # task file's rename are the only writes it wraps
    wrapping = {where for where, node in _nodes()
                if isinstance(node, ast.Name) and node.id == "writing"}
    assert {w for w in wrapping if not w.startswith("errors.")} == {
        "dataset.write_table", "studies._write_task"}


def test_only_make_dirs_creates_a_directory():
    assert [where for where, node in _nodes() if _calls(node, {"makedirs", "mkdir"})] == [
        "errors.make_dirs"]


def _model():
    # save writes the loss config as it is; load would check it
    return TreeEnsemble(base_score=0.0, learning_rate=0.1, n_features=1,
                        loss_config={"loss": "independent"}, trees=[])


@pytest.mark.parametrize("write", [
    lambda path: write_table(path, ("a", "b"), [[1, 2], [0.5, 0.25]]),
    lambda path: save(_model(), path),
    lambda path: write_json(path, {"a": 1}),
], ids=["write_table", "save", "write_json"])
def test_a_write_under_a_missing_directory_is_a_config_error_naming_the_file(tmp_path, write):
    path = tmp_path / "absent" / "out"
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(path))}: "):
        write(path)
    assert not (tmp_path / "absent").exists()
