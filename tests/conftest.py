import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def resolutions(monkeypatch):
    """The rendered presentation of every truncation `minimal_resolution` is
    called on, one entry per call, through every dgskew module that has
    bound the function by name."""
    from dgskew import resolution

    original, calls = resolution.minimal_resolution, []

    def counting(t, hom_bound):
        calls.append(t.presentation.render())
        return original(t, hom_bound)

    for name, module in list(sys.modules.items()):
        if (name == "dgskew" or name.startswith("dgskew.")) and \
                getattr(module, "minimal_resolution", None) is original:
            monkeypatch.setattr(module, "minimal_resolution", counting)
    return calls
