import numpy as np
import pytest

from rhdlab.fields import SpectralGrid


@pytest.fixture
def transforms(monkeypatch):
    """Running count, in ``transforms[0]``, of the fields transformed by
    ``SpectralGrid.fft`` and ``SpectralGrid.ifft``."""
    count = [0]
    for name in ("fft", "ifft"):
        def counted(self, f, _transform=getattr(SpectralGrid, name)):
            count[0] += np.asarray(f).size // self.n ** self.dim
            return _transform(self, f)
        monkeypatch.setattr(SpectralGrid, name, counted)
    return count
