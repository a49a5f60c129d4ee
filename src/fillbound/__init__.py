"""fillbound: certified homological fillings of integer 1-cycles.

Library layout:

- ``chains``   simplicial complexes, integer chains, boundaries, mass
- ``intlin``   exact integer linear algebra and small-solution certificates
- ``filling``  combinatorial fillings, minimum-mass fills, HF1 profiling
- ``geom``     metric complexes, covers, nerve/geodesic-graph pipeline
- ``shapes``   deterministic generator spaces (the ``gen`` subcommand's shapes)
- ``fileio``   space and chain documents, canonical JSON, atomic writes
- ``cli``      command line entry points
"""

from .errors import CapacityError, DomainError, FillboundError, InvariantError, StructuralError

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DomainError",
    "FillboundError",
    "InvariantError",
    "StructuralError",
    "__version__",
]
