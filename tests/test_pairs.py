import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_export_creates_its_work_dir(pairs, tmp_path):
    into = tmp_path / "not" / "yet"
    tree = pairs.export("HEAD", into)
    assert tree.parent == into
    assert (tree / "src" / "irasim" / "harness.py").is_file()
