"""The package namespace: what `from tailcast import *` brings in."""
import os
import subprocess
import sys
from pathlib import Path

import tailcast

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_names_resolve_once():
    missing = [name for name in tailcast.__all__ if not hasattr(tailcast, name)]
    assert missing == []
    assert len(set(tailcast.__all__)) == len(tailcast.__all__)


def test_import_loads_no_heavy_scipy_subpackage():
    # `import tailcast` costs about 55 MB of resident memory; scipy.optimize
    # would add about 23 MB and scipy.stats about 45 MB (2-CPU Linux host).
    # scipy.special is the only part of scipy the package may import.
    code = (
        "import sys\n"
        "import tailcast, tailcast.cli, tailcast.synth\n"
        "heavy = ('scipy.optimize', 'scipy.stats', 'scipy.integrate')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"
