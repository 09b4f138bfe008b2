import math
from collections import Counter

import numpy as np
import pytest

from rhdlab.fields import SpectralGrid


@pytest.fixture
def transforms(monkeypatch):
    """Running count, in ``transforms[0]``, of the fields transformed by
    ``SpectralGrid.fft`` (point values in) and ``SpectralGrid.ifft``
    (half-spectrum coefficients in); ``transforms[1]`` counts the calls
    by method name."""
    count = [0, Counter()]
    for name, shape in (("fft", "shape"), ("ifft", "spectral_shape")):
        def counted(self, f, _name=name, _shape=shape,
                    _transform=getattr(SpectralGrid, name)):
            count[0] += np.asarray(f).size // math.prod(getattr(self, _shape))
            count[1][_name] += 1
            return _transform(self, f)
        monkeypatch.setattr(SpectralGrid, name, counted)
    return count
