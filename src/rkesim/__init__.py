"""Deterministic simulator and analysis toolkit for rolling-code RKE systems.

The package root re-exports nothing: import the module that holds a name,
for example ``from rkesim import analyzer`` or
``from rkesim.receiver import ReceiverPolicy``.
"""

__version__ = "0.1.0"
