"""Network substrate: sockets, skbuffs, the NIC driver rx ring (NAPI), and
a simplified TCP demux layer. Sockets get inodes — "everything is a file"
— so the KLOC machinery covers them exactly like filesystem objects. Import
each from its own module."""
