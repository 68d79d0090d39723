"""Filesystem substrate: an ext4-like stack built from the kernel objects
in Table 1 — inodes, dentries, page cache, extents, a jbd2-style journal,
bio/blk-mq block layer, NVMe device, adaptive readahead, and writeback.
Import each from its own module."""
