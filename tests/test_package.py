import os
import subprocess
import sys

import msvol

SRC = os.path.dirname(os.path.dirname(os.path.abspath(msvol.__file__)))


def test_every_exported_name_resolves():
    missing = [name for name in msvol.__all__ if not hasattr(msvol, name)]
    assert missing == []
    assert msvol.NUMBA_ENABLED is False


def loaded_scipy_modules(args):
    """scipy modules loaded by `msvol ARGS` in a fresh interpreter."""
    script = (
        "import sys\n"
        "import msvol.cli\n"
        f"status = msvol.cli.main({args!r})\n"
        "assert status == 0, status\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1]


def test_analysis_path_loads_no_scipy(tmp_path):
    # `msvol --input` runs on numpy alone
    csv = tmp_path / "r.csv"
    csv.write_text("a,b\n" + "".join(f"{0.01 * ((7 * t) % 11 - 5)},{0.02 * ((3 * t) % 7 - 3)}\n"
                                     for t in range(60)))
    assert loaded_scipy_modules(["--input", str(csv), "--out", str(tmp_path / "run")]) == "[]"


def test_simulator_loads_no_scipy(tmp_path):
    # `msvol --simulate` runs on numpy alone too: scipy is a test dependency
    out = tmp_path / "sim"
    assert loaded_scipy_modules(["--simulate", "3,200,0.9", "--out", str(out)]) == "[]"
    assert (out / "simulated_returns.csv").is_file()
