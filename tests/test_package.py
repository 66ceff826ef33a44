"""The package namespace: every public name is read, on access, from the
submodule that defines it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import privsel
from privsel import cli, pld, profiles


def test_public_names_are_their_defining_modules_objects():
    for name in privsel.__all__:
        value = getattr(privsel, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("privsel."), name
        assert getattr(home, name) is value, name


def test_dir_covers_all():
    assert set(privsel.__all__) <= set(dir(privsel))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from privsel import *", namespace)
    assert set(privsel.__all__) <= namespace.keys()


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        privsel.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    # the CLI module resolves public names only, so it is no package
    assert not hasattr(cli, "__path__")


def test_names_are_read_at_access_not_cached(monkeypatch):
    # a wrapper installed on the defining module is seen through the
    # package, and is gone from it once the module is restored
    original = profiles.gaussian_profile
    monkeypatch.setattr(profiles, "gaussian_profile", len)
    assert privsel.gaussian_profile is len
    monkeypatch.undo()
    assert privsel.gaussian_profile is original
    assert "gaussian_profile" not in vars(privsel)


def test_cli_reads_the_package_names():
    assert cli.subsampled_gaussian_profile is pld.subsampled_gaussian_profile


def test_submodules_resolve_after_a_plain_import():
    # in a fresh interpreter, where nothing else has imported them yet
    code = ("import sys, privsel\n"
            "assert 'privsel.profiles' not in sys.modules\n"
            "print(privsel.profiles.gaussian_profile(4.0, 1.0)(1.0) > 0)\n"
            "for name in privsel._EXPORTS:\n"
            "    assert getattr(privsel, name) is sys.modules['privsel.' + name]\n"
            "assert set(privsel._EXPORTS) <= set(dir(privsel))")
    env = {**os.environ, "PYTHONPATH": str(Path(privsel.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "True\n"
