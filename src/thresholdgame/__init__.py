"""Threshold public-goods games under risk and ambiguity.

Three layers: the game core (scenarios, success curves, equilibrium solving),
a calibrated synthetic-experiment generator, and an analysis engine (robust
OLS, balance tests, power/MDE).
"""
__version__ = "0.1.0"
