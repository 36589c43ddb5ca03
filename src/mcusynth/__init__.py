"""Synthesis of n-controlled single-qubit unitaries from cnot and controlled-V.

The package has three layers: an exact integer engine for the parity-sum
identity the construction rests on (:mod:`.z2identity`), the synthesizer and
its circuit IR (:mod:`.synthesize`, :mod:`.circuit`, :mod:`.unitary2`), and the
verification oracles (:mod:`.simulator`): an exact linear trace for circuits
of the synthesizer's shape and a dense brute-force simulator for the rest.
``mcusynth`` on the command line ties them together.
"""

from .simulator import circuit_unitary, linear_trace, operator_distance, reference_mcu
from .synthesize import peephole_cancel, synth_mcu
from .unitary2 import NAMED_GATES, unitary_root

__version__ = "0.1.0"

__all__ = [
    "NAMED_GATES",
    "circuit_unitary",
    "linear_trace",
    "operator_distance",
    "peephole_cancel",
    "reference_mcu",
    "synth_mcu",
    "unitary_root",
]
