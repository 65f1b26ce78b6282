"""Tests for ``compiled.report``, which turns the IEEE exception bits a
compiled loop returns into numpy's behaviour: each bit raises, warns or
is ignored as ``np.errstate`` says for its own kind, in numpy's words,
naming the operation.
"""

import contextlib

import numpy as np
import pytest

from poselift import compiled

KINDS = [("divide", 1, "divide by zero"), ("over", 2, "overflow"), ("under", 4, "underflow"),
         ("invalid", 8, "invalid value")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["raise", "warn", "ignore"])
@pytest.mark.parametrize("kind, bit, words", KINDS, ids=[kind for kind, _, _ in KINDS])
def test_one_bit_obeys_its_own_errstate_key(kind, bit, words, mode):
    """Every other kind is set to raise, so a bit read under another
    kind's key fails."""
    message = f"^{words} encountered in a_loop$"
    expect = {"raise": pytest.raises(FloatingPointError, match=message),
              "warn": pytest.warns(RuntimeWarning, match=message),
              "ignore": contextlib.nullcontext()}[mode]
    with np.errstate(**{other: "raise" for other, _, _ in KINDS}), np.errstate(**{kind: mode}), expect:
        compiled.report(bit, "a_loop")


def test_no_bits_is_silent():
    with np.errstate(all="raise"):
        compiled.report(0, "a_loop")
