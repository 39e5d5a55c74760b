import os
import subprocess
import sys

import irskey
from irskey import baseline, channel, errors, experiments, neural, probing, skr

SUBMODULES = (baseline, channel, errors, experiments, neural, probing, skr)


def test_package_all_concatenates_the_submodule_lists_without_repeats():
    names = [name for module in SUBMODULES for name in module.__all__]
    assert irskey.__all__ == names
    assert len(set(names)) == len(names), "a name is listed by two submodules"


def test_every_public_name_resolves_to_its_submodule_object():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(irskey, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_package_import_leaves_the_cli_unloaded():
    src_dir = os.path.dirname(os.path.dirname(irskey.__file__))
    code = "import sys, irskey; print('irskey.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
