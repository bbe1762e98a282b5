"""Run code in a new interpreter, for tests of what a fresh process loads."""

import os
import subprocess
import sys


def fresh_python(code):
    """stdout of code run in a new interpreter that imports this checkout's deepkern."""
    import deepkern

    src = os.path.dirname(os.path.dirname(os.path.abspath(deepkern.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout
