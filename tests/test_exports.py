"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
from pathlib import Path

import pytest

import vlasov_carleman

_MODULES = (
    "analysis", "carleman", "cli", "grid", "integrator", "physics", "pipeline", "qode", "reference",
)


@pytest.mark.parametrize("name", ("",) + _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("vlasov_carleman" + (f".{name}" if name else ""))
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing


def test_every_module_is_checked():
    package = Path(vlasov_carleman.__file__).parent
    assert {path.stem for path in package.glob("[!_]*.py")} == set(_MODULES)
