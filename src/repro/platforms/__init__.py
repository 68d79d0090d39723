"""Evaluation platforms (Table 4): the software-managed two-tier system
and the Optane Memory Mode system, with kernel construction helpers:
:func:`repro.platforms.twotier.build_two_tier_kernel` and
:func:`repro.platforms.optane.build_optane_kernel`."""
