type step = L1_hw | L1_manual | L2 | Llc | Tlb | Bp | Dram_close
