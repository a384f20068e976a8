"""numpy, imported on first use.

``from ._numpy import np`` binds a stand-in.  Its first attribute access
imports numpy, rebinds ``np`` to the numpy module in every loaded ``nhlgi``
module that still holds the stand-in (this one included) and returns the
attribute; from then on each module holds numpy itself.  So importing the
package, building a Hamiltonian or an engine and the closed forms load no
numpy, and the first array pays for the import once.
"""

from __future__ import annotations

import sys

__all__ = ["np"]


class _Numpy:
    __slots__ = ()

    def __getattr__(self, name):
        import numpy

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "nhlgi" and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Numpy()
