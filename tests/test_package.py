"""Package layout: every submodule is reachable under its own name."""

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
