"""Measurement helpers: footprint, reference, and lifetime attribution
(the quantities behind Figures 2a-2d) plus table rendering. Import each
from its own module."""
