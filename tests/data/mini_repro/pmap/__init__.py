"""The machine-dependent layer: one interface, and concrete pmaps.

Outside this package only :mod:`repro.pmap.interface` may be imported;
a concrete pmap such as :mod:`repro.pmap.vax` is chosen at boot and
reached through the interface alone.
"""
