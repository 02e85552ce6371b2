"""A cold `import heckekit.cli` loads none of the slow standard modules.

Each CLI call is one fresh process, so what the import loads is paid by
every call.  dataclasses pulls in inspect, ast, dis and tokenize and
compiles its generated methods with exec; json is needed only for --json.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SLOW = ["dataclasses", "inspect", "ast", "dis", "tokenize", "json"]
CHILD = "import sys; before = set(sys.modules); import heckekit.cli; print(*sorted(set(sys.modules) - before))"


def test_importing_the_cli_loads_no_slow_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "heckekit.cli" in loaded
    assert [name for name in SLOW if name in loaded] == []
