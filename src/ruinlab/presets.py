"""Built-in parameter scenarios with their published landmark values."""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams

__all__ = ["Scenario", "PRESETS"]


@dataclass(frozen=True)
class Scenario:
    """A named, ready-to-solve parameter set.

    ``landmark`` records the reference value the scenario is known for
    (phi(0), phi'(0+), or the capital-stock normalization constant).
    """

    name: str
    params: ModelParams
    landmark: str = ""


def _scn(name, a, b, c, landmark):
    return Scenario(name=name, params=ModelParams(a=a, b=b, c=c, lam=0.09, m=1.0), landmark=landmark)


PRESETS: dict[str, Scenario] = {
    s.name: s
    for s in (
        _scn("fig1-I", 0.0, 0.0, 0.1, "C0 = 0.1, D1 = 0.09 (exact exponential)"),
        _scn("fig1-II", 0.02, 0.1, 0.1, "C0 = 0.295, D1 = 0.265"),
        _scn("fig2-I", 0.02, 0.1, 0.02, "C0 = 0.00527, D1 = 0.0237 (inflection)"),
        _scn("fig2-II", 0.1, 0.1, 0.02, "C0 = 0.194, D1 = 0.872 (concave)"),
        _scn("fig3-I", 0.02, 0.0, 0.02, "C0 = 0.00704, D1 = 0.0317"),
        _scn("fig3-II", 0.1, 0.0, 0.02, "C0 = 0.2046, D1 = 0.9207"),
        _scn("fig4-I", 0.02, 0.0, 0.0, "phi(0) = phi'(0) = 0"),
        _scn("fig4-II", 0.1, 0.0, 0.0, "phi(0) = 0, phi'(+0) = inf"),
        _scn("fig5-I", 0.02, 0.1, 0.0, "P1 = 0.059587"),
        _scn("fig5-II", 0.1, 0.1, 0.0, "P1 = 0.861816"),
    )
}
