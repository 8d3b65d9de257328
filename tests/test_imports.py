"""Each module imports on its own, in a fresh interpreter.

The package root imports nothing, so no fixed import order can hide a
circular import between the modules.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import cardsched

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cardsched.__file__)))
_MODULES = sorted(info.name for info in pkgutil.iter_modules(cardsched.__path__))


def _python(*args):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_the_package_lists_its_modules():
    assert {"cli", "engine", "oracle"} <= set(_MODULES)


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_alone(module):
    done = _python("-c", f"import cardsched.{module}")
    assert done.returncode == 0, done.stderr


def test_cli_help_runs_as_a_module():
    done = _python("-m", "cardsched.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cardsched")


def test_the_cli_builds_its_parser_on_the_first_main_call_not_at_import():
    code = (
        "from cardsched import cli\n"
        "built = [cli.make_parser.cache_info().currsize]\n"
        "cli.main(['oracle', '--m', '1', '--k', '1', '--gen', 'uniform', '--n', '1'])\n"
        "built.append(cli.make_parser.cache_info().currsize)\n"
        "print(built)\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 1]"
