import ctypes
import os
import subprocess
import sys

import pytest

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


def large_array_mapped_after_free(import_msvol):
    """In a fresh interpreter, whether a 2 MiB array gets its own mapping
    after a 10 MiB one has been freed, with or without importing msvol."""
    script = (
        "import ctypes\n"
        "import numpy as np\n"
        + ("import msvol\n" if import_msvol else "")
        + "class MallInfo2(ctypes.Structure):\n"
        "    _fields_ = [(n, ctypes.c_size_t) for n in 'arena ordblks smblks hblks "
        "hblkhd usmblks fsmblks uordblks fordblks keepcost'.split()]\n"
        "libc = ctypes.CDLL(None)\n"
        "libc.mallinfo2.restype = MallInfo2\n"
        "big = np.ones(10 << 17)\n"
        "del big\n"
        "before = libc.mallinfo2().hblkhd\n"
        "small = np.ones(2 << 17)\n"
        "print(libc.mallinfo2().hblkhd - before >= small.nbytes)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.split()[-1] == "True"


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or "MALLOC_MMAP_THRESHOLD_" in os.environ
                    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="needs glibc 2.33 or later, with its mmap threshold as msvol leaves it")
def test_freed_large_arrays_keep_their_own_mapping():
    # glibc raises its mmap threshold to 10 MiB when the big array is freed
    # and puts the next 2 MiB one on the heap; importing msvol fixes it
    if large_array_mapped_after_free(import_msvol=False):
        pytest.skip("this malloc does not raise its mmap threshold")
    assert large_array_mapped_after_free(import_msvol=True)
