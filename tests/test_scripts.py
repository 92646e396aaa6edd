"""Smoke test for the driver script under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_application_tables_are_reproducible(tmp_path, capsys):
    script = _load("run_application_tables")
    first, second = tmp_path / "first", tmp_path / "second"
    assert script.main(["--out-dir", str(first)]) == 0
    assert script.main(["--out-dir", str(second)]) == 0
    capsys.readouterr()
    names = sorted(script.TABLES)
    assert sorted(p.name for p in first.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()

