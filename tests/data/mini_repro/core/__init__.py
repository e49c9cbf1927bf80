"""Machine-independent VM: memory objects, address maps, the resident
page table and the kernel funnel that ties them together.

Nothing in this package knows how a particular MMU lays out its page
tables.  The machine-dependent half is reached only through
:mod:`repro.pmap.interface`, and physical memory only through the
resident page table, which owns the frame pool.  The layering lint
holds the package to that: a concrete pmap or an ``hw`` internal
imported from here is a finding.
"""
