"""Eccentricity toolkit: exact oracles, fast approximations, a
decomposition-based exact solver, and hardness gadget constructions for
radius, diameter, and eccentricities under five distance semantics.

The package top holds only the names README's library example imports;
everything else is imported from its module."""

from .approx import approx_source_radius
from .graph import Graph
from .oracle import exact_eccentricities, sweep_eccentricities
from .seeds import substream
from .treewidth import generate_partial_ktree, tw_eccentricities

__version__ = "0.1.0"
