"""scipy's compiled extensions privsel computes with, loaded without the
scipy subpackages that hold them.

`load_extension` loads one extension module of a scipy subpackage
straight from its file, under its own dotted name, so a later import of
the subpackage finds it in `sys.modules` and uses these very objects.
It serves three extensions:
- `scipy.special._special_ufuncs`, whose `gammainc`, `gammaincc`,
  `gammaln`, `log_ndtr`, `ndtr`, `xlog1py` and `xlogy` this module
  reads.  `import scipy.special` spends about 0.2 s setting up its
  array-API dispatch layer, which clones numpy and so loads
  `numpy.f2py`, `numpy.testing`, `numpy.ma` and `numpy.random`; the
  compiled ufuncs take about 1 ms of that.  The Poisson count's cdf and
  tail bound read the regularized incomplete gammas in place of
  `pdtr`, `pdtrc` and `pdtrik`, which live in `scipy.special._ufuncs`,
  an extension that imports `scipy.special` on init.
- `scipy.integrate._quadpack` and `scipy.optimize._zeros`, whose
  quadpack and Brent routines `oracles` calls without the ~0.15 s of
  `scipy.integrate` and `scipy.optimize` set-up (linalg, sparse, ...).

Where an extension or one of its names is missing, as in older scipy
releases, callers fall back to the public subpackage.
"""

import importlib.machinery
import importlib.util
import os
import sys

NAMES = ("gammainc", "gammaincc", "gammaln", "log_ndtr", "ndtr", "xlog1py", "xlogy")


def load_extension(subpackage, name):
    """The extension module scipy.<subpackage>.<name>, or None where it
    cannot be found."""
    dotted = f"scipy.{subpackage}.{name}"
    if dotted in sys.modules:
        return sys.modules[dotted]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], subpackage),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(dotted)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[dotted] = module
    spec.loader.exec_module(module)
    return module


def _ufuncs():
    module = load_extension("special", "_special_ufuncs")
    if module is None or not all(hasattr(module, name) for name in NAMES):
        import scipy.special as module
    return [getattr(module, name) for name in NAMES]


gammainc, gammaincc, gammaln, log_ndtr, ndtr, xlog1py, xlogy = _ufuncs()
