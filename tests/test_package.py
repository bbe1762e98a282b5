"""Package layout: every submodule is reachable under its own name, and what importing it loads."""

import os
import subprocess
import sys
import types


def test_submodules_import_as_modules():
    # a re-exported function named like its module would shadow it here
    import deepkern.cli as cli
    import deepkern.deep_model as deep_model
    import deepkern.experiments as experiments
    import deepkern.gram as gram
    import deepkern.kernels as kernels
    import deepkern.optimize as optimize
    import deepkern.single_layer as single_layer

    for module in (cli, deep_model, experiments, gram, kernels, optimize, single_layer):
        assert isinstance(module, types.ModuleType), module


def test_import_leaves_scipy_optimize_out():
    """The line search is hand-written because scipy.optimize costs about 20 MB of peak RSS."""
    import deepkern

    src = os.path.dirname(os.path.dirname(os.path.abspath(deepkern.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, deepkern, deepkern.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"
