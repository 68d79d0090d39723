"""simlint: the repository's determinism/hot-path static analysis.

Run it as ``python -m repro.analysis src/``; see
:mod:`repro.analysis.simlint.engine` for the suppression syntax and
:mod:`repro.analysis.simlint.rules` for the rule catalog (documented in
``docs/ANALYSIS.md``).
"""
