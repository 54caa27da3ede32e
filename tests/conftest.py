import ctypes
from pathlib import Path

import numpy as np
import pytest


def openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked at load time, as its
    scipy_openblas_get_corename64_ names it (OPENBLAS_CORETYPE forces one),
    or "unknown" for a numpy without that library. Byte digests hold only
    under the kernel they were captured under, so their failures name both,
    and every run ends with it."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


@pytest.fixture(scope="session")
def blas_kernel() -> str:
    return openblas_kernel()


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"OpenBLAS kernel: {openblas_kernel()}")
