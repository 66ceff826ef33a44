"""The four scipy special functions privsel computes with, without the
`scipy.special` package.

`import scipy.special` spends about 0.2 s setting up its array-API
dispatch layer, which clones numpy and so loads `numpy.f2py`,
`numpy.testing`, `numpy.ma` and `numpy.random`; its compiled ufuncs
take about 1 ms of that.  This module loads the extension
`scipy.special._special_ufuncs` straight from its file, under its own
dotted name, so a later `import scipy.special` finds it in `sys.modules`
and re-exports these very ufunc objects.  Where the extension or one of
the names is missing, as in older scipy releases, they come from
`scipy.special`.
"""

import importlib.machinery
import importlib.util
import os
import sys

NAMES = ("gammaln", "log_ndtr", "ndtr", "xlog1py")
_EXTENSION = "scipy.special._special_ufuncs"


def _load_extension():
    """The extension module, or None where it cannot be found."""
    if _EXTENSION in sys.modules:
        return sys.modules[_EXTENSION]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "special"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_EXTENSION)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[_EXTENSION] = module
    spec.loader.exec_module(module)
    return module


def _ufuncs():
    module = _load_extension()
    if module is None or not all(hasattr(module, name) for name in NAMES):
        import scipy.special as module
    return [getattr(module, name) for name in NAMES]


gammaln, log_ndtr, ndtr, xlog1py = _ufuncs()
