import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import blockdpp as bd
from blockdpp import matrix_core as mc

kern, _ = bd.generate_synthetic_kernel(bd.SyntheticKernelSpec(N=60, seed=1))
assert bd.greedy_map(kern.L).size
sel, _ = bd.blockwise_map(kern.L, bd.gamma_partition(kern.L, 2))
assert sel.size
mc.log_det(kern.L[:5, :5])
X, _ = bd.generate_piecewise_gaussian(0, [(200, 0.0, 1.0), (200, 3.0, 1.0)])
bd.detect_change_points(X, bd.DetectionConfig())
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_inference_and_detection_load_no_scipy():
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=SRC,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
