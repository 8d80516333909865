"""Tests for the multi-unit store."""

import ctypes
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import MatrixConfig, PipelineConfig, ReadRequest
from repro.core.ranking import proportional_share_ranking
from repro.core.store import DnaStore

CONFIG = PipelineConfig(
    matrix=MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8),
    layout="gini",
)


def _sequence_units(image, error_rate, coverage, rng):
    simulator = SequencingSimulator(
        ErrorModel.uniform(error_rate), FixedCoverage(coverage)
    )
    return [simulator.sequence(unit.strands, rng) for unit in image.units]


class TestUnitsNeeded:
    def test_single_unit(self):
        store = DnaStore(CONFIG)
        assert store.units_needed(store.unit_capacity_bits) == 1

    def test_boundary(self):
        store = DnaStore(CONFIG)
        assert store.units_needed(store.unit_capacity_bits + 1) == 2

    def test_empty_payload_needs_one_unit(self):
        assert DnaStore(CONFIG).units_needed(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DnaStore(CONFIG).units_needed(-1)


class TestRoundtrip:
    def test_single_unit_roundtrip(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, store.unit_capacity_bits // 2).astype(np.uint8)
        image = store.encode(bits)
        assert image.n_units == 1
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.0, 1, rng), bits.size
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_multi_unit_roundtrip(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, int(2.5 * store.unit_capacity_bits)).astype(np.uint8)
        image = store.encode(bits)
        assert image.n_units == 3
        assert image.total_strands == 3 * 40
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.0, 1, rng), bits.size
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_noisy_multi_unit_roundtrip(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, int(1.7 * store.unit_capacity_bits)).astype(np.uint8)
        image = store.encode(bits)
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.05, 9, rng), bits.size
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_global_ranking_roundtrip(self, rng):
        config = PipelineConfig(matrix=CONFIG.matrix, layout="dnamapper")
        store = DnaStore(config)
        n_bits = int(1.5 * store.unit_capacity_bits)
        # Two "files" of different sizes sharing the store.
        sizes = [n_bits // 3, n_bits - n_bits // 3]
        ranking = proportional_share_ranking(sizes)
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        image = store.encode(bits, ranking=ranking)
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.0, 1, rng), bits.size, ranking=ranking,
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_priority_striped_evenly(self, rng):
        """Each unit receives an even share of every priority band."""
        store = DnaStore(CONFIG)
        n_bits = 2 * store.unit_capacity_bits
        bits = np.zeros(n_bits, dtype=np.uint8)
        bits[: n_bits // 2] = 1  # the "important half" is all ones
        # Stripe u gets bits u, u+2, u+4, ... so each stripe holds exactly
        # half ones — an even share of the important half.
        for u in range(2):
            assert abs(bits[u::2].mean() - 0.5) < 0.01


class TestValidation:
    def test_wrong_unit_count_rejected(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, 2 * store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        clusters = _sequence_units(image, 0.0, 1, rng)
        with pytest.raises(ValueError):
            store.read(ReadRequest(clusters[:1], bits.size))

    def test_bad_ranking_rejected(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        with pytest.raises(ValueError):
            store.encode(bits, ranking=np.arange(50))

    def test_report_aggregation(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, 2 * store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        clusters = _sequence_units(image, 0.0, 1, rng)
        clusters[0][3] = type(clusters[0][3])(source_index=3, reads=[])
        decoded, report = store.read(ReadRequest(clusters, bits.size))
        assert report.clean  # one erasure is well within nsym=8
        assert report.total_erased_columns == 1
        assert all(not r.failed_codewords for r in report.unit_reports)
        np.testing.assert_array_equal(decoded, bits)


def _glibc_mallinfo2() -> bool:
    try:
        libc = ctypes.CDLL(None)
        return bool(libc.gnu_get_libc_version and libc.mallinfo2)
    except (AttributeError, OSError, TypeError):
        return False


@pytest.mark.skipif(not _glibc_mallinfo2(), reason="needs glibc >= 2.33")
class TestPinnedHeap:
    """A store pins glibc's malloc thresholds (``pin_heap``): an array
    below 32 MiB comes from the heap, not a fresh mmap, and freeing it
    does not trim the heap, so the next read does not fault its pages
    back in. Each probe runs in a fresh interpreter, where glibc's
    adaptive thresholds start at their 128 KiB defaults."""

    PROBE = textwrap.dedent("""
        import ctypes, json
        import numpy as np
        from repro.core.store import DnaStore, pin_heap

        class MallInfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]

        libc = ctypes.CDLL(None)
        libc.mallinfo2.restype = MallInfo2
        DnaStore()
        before = libc.mallinfo2()
        block = np.ones(2 << 20)  # 16 MiB
        during = libc.mallinfo2()
        del block
        after = libc.mallinfo2()
        print(json.dumps({
            "pinned": pin_heap(),
            "mmapped": during.hblkhd - before.hblkhd,
            "heap_grew": during.arena > before.arena,
            "trimmed": after.arena < during.arena,
        }))
    """)

    def _probe(self, **extra_env):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("MALLOC_")
               and name != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env.update(extra_env)
        done = subprocess.run([sys.executable, "-c", self.PROBE], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_store_keeps_freed_heap(self):
        probe = self._probe()
        assert probe["pinned"]
        assert probe["mmapped"] == 0
        assert probe["heap_grew"]
        assert not probe["trimmed"]

    def test_process_malloc_settings_win(self):
        probe = self._probe(MALLOC_TRIM_THRESHOLD_=str(1 << 20))
        assert not probe["pinned"]
