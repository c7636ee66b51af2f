import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ridgesnr

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    modules = [ridgesnr] + [importlib.import_module(f"ridgesnr.{info.name}")
                            for info in pkgutil.iter_modules(ridgesnr.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
