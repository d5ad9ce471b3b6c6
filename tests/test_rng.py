import numpy as np
import pytest
from oracles import ref_derive_seed_sequence

from slicepower.rng import derive_seed_sequence

LABELS = [
    ("drop", 3), (1,), (np.int64(1),), (True,), (1.0,), (np.float64(1.0),),
    (0.0,), (-0.0,), (-np.inf,), ("table-cell", 9.0, -np.inf), ("alloc", "noma", "bcd", 100.0, 2),
]


class TestDeriveSeedSequence:
    @pytest.mark.parametrize("labels", LABELS, ids=repr)
    def test_matches_reference(self, labels):
        for _ in range(2):  # the second call reads any cached label key
            new, ref = derive_seed_sequence(7, *labels), ref_derive_seed_sequence(7, *labels)
            assert new.entropy == ref.entropy
            assert np.array_equal(new.generate_state(4), ref.generate_state(4))

    def test_label_types_stay_apart(self):
        # 1, 1.0 and True hash alike but 1.0 keys by its IEEE bits, and the
        # two zeros differ in the sign bit
        key = {repr(x): derive_seed_sequence(7, x).entropy for x in (1, 1.0, True, 0.0, -0.0)}
        assert key["1"] == key["True"] != key["1.0"]
        assert key["0.0"] != key["-0.0"]

    @pytest.mark.parametrize("label,exc", [(-1, ValueError), (None, TypeError), ((1,), TypeError)])
    def test_rejects_bad_labels(self, label, exc):
        with pytest.raises(exc):
            derive_seed_sequence(7, label)
