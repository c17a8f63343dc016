import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import BLAS_THREADS  # noqa: E402

os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
