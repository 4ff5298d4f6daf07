"""Sparse codes as Python records, for tests.

A code's activations are one core.ACTIVATION array. Tests build codes from
Activation tuples, which SparseCode converts, and read them back with
records, so comparisons run on plain Python ints and floats.
"""

from collections import namedtuple

from convmp.core import SparseCode

Activation = namedtuple("Activation", "filter_index row col coefficient")


def records(code):
    """A code's activations, or an ACTIVATION array as greedy_steps returns
    it, as Activation tuples in selection order."""
    acts = code.activations if isinstance(code, SparseCode) else code
    return [Activation(*record) for record in acts.tolist()]
