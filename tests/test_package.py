"""Package layout: every submodule is reachable under its own name, and what importing it loads."""

import types

import numpy as np

from fresh_python import fresh_python


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
    code = "import sys, deepkern, deepkern.cli; print('scipy.optimize' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_scipy_loads_on_the_first_solve(tmp_path):
    """predict solves nothing, so it leaves scipy out; a fit loads scipy but not scipy.linalg.

    The first solve loads the top-level scipy package (0.9 MB of peak RSS)
    and its _flapack extension (2.5 MB); importing the scipy.linalg package
    it skips would add 26 MB more.
    """
    from deepkern.deep_model import TwoLayerModel, save_model
    from deepkern.kernels import DiagScaledKernel, GaussKernel, PolyKernel

    inner = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0))
    model = TwoLayerModel(X=np.zeros((1, 2)), inner=inner, outer=GaussKernel(1.0, 2),
                          c=np.zeros((1, 2)), alpha=np.ones(1), lam=0.0, mu=0.0, gamma=0.0,
                          objective_value=1.0)
    model_path, points = str(tmp_path / "model.json"), tmp_path / "pts.csv"
    save_model(model, model_path)
    points.write_text("x1,x2\n0.1,0.2\n")
    code = f"""
import contextlib, io, sys
import numpy as np
import deepkern.cli
from deepkern.deep_model import fit_two_layer
from deepkern.kernels import DiagScaledKernel, GaussKernel, PolyKernel
from deepkern.optimize import BfgsConfig
with contextlib.redirect_stdout(io.StringIO()):
    assert deepkern.cli.main(["predict", "--model", {model_path!r}, "--points", {str(points)!r}]) == 0
print("scipy" in sys.modules)
X = np.array([[0.0, 0.0], [0.5, -0.5], [-0.25, 0.75]])
inner = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0))
fit_two_layer(X, np.ones(3), inner, GaussKernel(1.0, 2), config=BfgsConfig(restarts=1, max_iters=2))
print("scipy" in sys.modules)
print("scipy.linalg" in sys.modules)
"""
    assert fresh_python(code).split() == ["False", "True", "False"]
