import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_scipy_stats_nor_optimize():
    # both weigh about a second of start-up, which every CLI call pays
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import priorscan; "
        "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
