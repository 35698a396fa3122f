"""The package namespace is the library API the README shows."""

from __future__ import annotations

import os
import subprocess
import sys

import quadrant_atlas

LIBRARY_API = [
    "PreimageQuery",
    "PreimageResult",
    "SolverConfig",
    "SolverFailure",
    "__version__",
    "build_theorem_map",
    "evaluate_exact",
    "evaluate_float",
    "preimage",
]


def test_package_exports_the_library_api_and_imports_no_more():
    assert sorted(quadrant_atlas.__all__) == LIBRARY_API
    for name in LIBRARY_API:
        assert getattr(quadrant_atlas, name) is not None
    # the certificates and the sweeps load only when their modules are
    # imported
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = "import sys, quadrant_atlas; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "quadrant_atlas" in loaded
    assert "quadrant_atlas.topology" not in loaded
    assert "quadrant_atlas.sampler" not in loaded
