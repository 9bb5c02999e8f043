"""Rate models and Monte Carlo simulation of repeater link protocols.

Three ways of distributing entanglement over one fiber link are modeled:
both nodes sending photons to an analyzer at the midpoint, a sender
streaming photons into a receiving node that latches them, and both nodes
latching photons from an entangled-pair source at the midpoint. The
package provides their closed-form rates, per-transmission round
steppers, a deterministic Monte Carlo engine for single links and
purification chains, and a sweep CLI that writes plot-ready tables.

Import what you need from the submodules (``replink.params``,
``analytic``, ``protocol``, ``engine`` and ``cli``); the package itself
exports only ``__version__``.
"""

__version__ = "0.1.0"
