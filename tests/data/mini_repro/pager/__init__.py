"""Backing store for the pages the kernel pages out.

The pager layer is machine-independent: it speaks in objects and
offsets, never in frames or virtual addresses.
"""
