"""coarseact: bornologies, coarse structures, and proper group actions,
verified exactly over finite sets and integer lattices.

The package exports no names and imports none of its modules: callers import
from the submodules, so each program loads only the modules it uses."""

__version__ = "0.1.0"
