"""An index map and a constructor that only the tests use."""

from vlasov_carleman import GridSpec, PlasmaParams
from vlasov_carleman.physics import BOLTZMANN, ELECTRON_MASS


def flatten_index(g: GridSpec, i: int, j: int) -> int:
    """Row-major flattening n = (i-1)*n_v + j on grid g, all indices 1-based."""
    if not (1 <= i <= g.n_x and 1 <= j <= g.n_v):
        raise ValueError(f"(i, j) = ({i}, {j}) out of range 1..{g.n_x} x 1..{g.n_v}")
    return (i - 1) * g.n_v + j


def params_from_temperature(temperature: float, **kwargs) -> PlasmaParams:
    """PlasmaParams with b derived from a temperature in kelvin."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    m_e = kwargs.get("m_e", ELECTRON_MASS)
    k_b = kwargs.get("k_b", BOLTZMANN)
    return PlasmaParams(b=m_e / (2.0 * k_b * temperature), **kwargs)
