"""Static analyses over the IR (CFG, dominators, def-use, availability)."""

from repro.ir.analysis.cfg import Availability, Cfg, DefUse

__all__ = ["Availability", "Cfg", "DefUse"]
