"""Synthesis of n-controlled single-qubit unitaries from cnot and controlled-V.

The package has three layers: an exact integer engine for the parity-sum
identity the construction rests on (:mod:`.z2identity`), the synthesizer and
its circuit IR (:mod:`.synthesize`, :mod:`.circuit`, :mod:`.unitary2`), and a
dense brute-force simulator that serves as the verification oracle
(:mod:`.simulator`).  ``mcusynth`` on the command line ties them together.
"""

from .simulator import circuit_unitary, operator_distance, reference_mcu
from .synthesize import net_v_exponent, peephole_cancel, synth_mcu
from .unitary2 import NAMED_GATES, unitary_root
from .z2identity import parity_sum_direct

__version__ = "0.1.0"

__all__ = [
    "NAMED_GATES",
    "circuit_unitary",
    "net_v_exponent",
    "operator_distance",
    "parity_sum_direct",
    "peephole_cancel",
    "reference_mcu",
    "synth_mcu",
    "unitary_root",
]
