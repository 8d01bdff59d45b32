#!/usr/bin/env python3
"""Walk the FGD dirty bits from a store to the PRA mask (Fig. 8 / Fig. 6).

Uses the two-level cache hierarchy directly (no timing simulation) to
show how word-granularity dirty bits are produced by stores, OR-merged
on L1 eviction, and finally delivered to DRAM as a PRA mask.

Usage::

    python examples/fgd_cache_walkthrough.py
"""

from repro.cache import CacheHierarchy, SetAssociativeCache, word_mask_for_store
from repro.core import PRAMask
from repro.dram import AddressMapper, mats_activated
from repro.power import DDR3_1600_POWER


def main() -> None:
    # Tiny caches so evictions happen on demand.
    l1 = SetAssociativeCache(capacity_bytes=2 * 64, ways=2, name="L1")
    l2 = SetAssociativeCache(capacity_bytes=8 * 64, ways=8, name="L2")
    hierarchy = CacheHierarchy(l2, l1s=[l1])
    mapper = AddressMapper()

    line = 0x1234
    print(f"cache line {line:#x} maps to {mapper.decode_line(line)}")
    print()

    # A store writes bytes 4..11: words 0 and 1 become dirty.
    mask = word_mask_for_store(offset_bytes=4, size_bytes=8)
    print(f"store of 8 bytes at offset 4 -> word mask {PRAMask(mask)}")
    hierarchy.access(0, line, write_mask=mask)

    # A later store touches word 7.
    mask2 = word_mask_for_store(offset_bytes=56, size_bytes=8)
    print(f"store of 8 bytes at offset 56 -> word mask {PRAMask(mask2)}")
    hierarchy.access(0, line, write_mask=mask2)

    # Evict from L1 (two conflicting lines): dirty bits merge into L2.
    hierarchy.access(0, line + 2 * l1.num_sets)
    hierarchy.access(0, line + 4 * l1.num_sets)
    print(f"after L1 eviction, L2 line dirty mask = {PRAMask(l2.resident()[line])}")

    # Force the L2 eviction: the writeback carries the merged mask.
    writebacks = []
    step = l2.num_sets
    probe = line + step
    while not writebacks:
        traffic = hierarchy.access(0, probe)
        writebacks = [wb for wb in traffic.writebacks if wb[0] == line]
        probe += step
    addr, final_mask = writebacks[0]
    pra = PRAMask(final_mask)
    print()
    print(f"L2 evicted line {addr:#x} with PRA mask {pra}")
    print(f"  -> activates {pra.granularity}/8 of the row "
          f"({mats_activated(final_mask)} of 16 MATs per chip)")
    act = DDR3_1600_POWER.act_power(pra.granularity)
    full = DDR3_1600_POWER.act_power(8)
    print(f"  -> activation power {act:.1f} mW vs {full:.1f} mW full "
          f"({1 - act / full:.0%} saved, Table 3)")
    print(f"  -> write burst drives {pra.granularity}/8 of the bytes "
          f"(write I/O scaled accordingly)")


if __name__ == "__main__":
    main()
