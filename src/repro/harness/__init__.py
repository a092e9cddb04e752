"""The user-facing harness: the ``python -m repro`` CLI and the suites.

Every paper table and figure is a registered sweep grid (see
:mod:`repro.grid`); :mod:`repro.harness.cli` runs them by name.  The
sequential acceptance suites — chaos, elastic rescale, overload — live
in :mod:`repro.harness.suites`.
"""
