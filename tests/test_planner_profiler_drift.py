"""DLR workload popularity permutations."""

import numpy as np
import pytest

from repro.dlr.workload import DlrWorkload


class TestWorkloadPermutationsParam:
    def test_explicit_permutations_used(self):
        perm = (np.array([2, 0, 1]),)
        wl = DlrWorkload(table_sizes=(3,), alpha=1.0, batch_size=4,
                         num_gpus=1, permutations=perm)
        hot = wl.hotness()
        # Rank-0 (most popular) maps to entry perm[0] = 2.
        assert hot.argmax() == 2

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            DlrWorkload(table_sizes=(3,), alpha=1.0,
                        permutations=(np.array([0, 0, 1]),))
        with pytest.raises(ValueError):
            DlrWorkload(table_sizes=(3, 4), alpha=1.0,
                        permutations=(np.array([0, 1, 2]),))
