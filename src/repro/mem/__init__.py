"""Physical memory model: tiers, page frames, topology, access costs,
migration, and the Optane Memory-Mode hardware DRAM cache. Import each from
its own module."""
