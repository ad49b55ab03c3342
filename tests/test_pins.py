"""Every test that compares with a pin carries the `pinned` marker, which
the CI's run with the AVX-512 loops off selects (-m pinned)."""
import ast
import pathlib


def _calls_pin(node) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "pin"
               for n in ast.walk(node))


def _marked_pinned(node) -> bool:
    return any(ast.unparse(d) == "pytest.mark.pinned" for d in node.decorator_list)


def test_every_test_that_reads_a_pin_is_marked_pinned():
    reading = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and _calls_pin(node):
                reading[f"{path.name}::{node.name}"] = _marked_pinned(node)
    assert len(reading) >= 7
    assert [name for name, marked in reading.items() if not marked] == []
