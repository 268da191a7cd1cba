"""Source-level checks that hold for every supported interpreter."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_parses_as_python_3_10():
    # requires-python is >=3.10, so no syntax of a later version may slip in
    with pytest.raises(SyntaxError):  # the guard can fail: 3.11's except*
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass", feature_version=(3, 10))
    sources = [
        p for d in ("src/dimlab", "tests", "dimbench") for p in (ROOT / d).rglob("*.py")
    ]
    assert {p.parent.name for p in sources} >= {"dimlab", "tests", "dimbench"}
    for path in sources:
        text = path.read_text(encoding="utf-8")
        ast.parse(text, filename=str(path), feature_version=(3, 10))


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # a rename in dimlab would otherwise only print "not traced (absent)"
    # in the benchmark's smoke run, and its layer would read 0
    monkeypatch.syspath_prepend(str(ROOT / "dimbench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []


def test_every_name_in_a_modules_all_exists():
    # a name deleted from a module but left in its __all__ breaks `import *`
    import dimlab

    modules = [
        importlib.import_module(f"dimlab.{info.name}")
        for info in pkgutil.iter_modules(dimlab.__path__)
    ]
    assert len([m for m in modules if hasattr(m, "__all__")]) >= 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
