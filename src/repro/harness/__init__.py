"""The user-facing harness: the ``python -m repro`` CLI, nothing else.

Every paper table and figure and every acceptance suite (chaos, elastic
rescale, overload, sanitize) is a registered sweep grid (see
:mod:`repro.grid`); :mod:`repro.harness.cli` runs them by name.
"""
