"""A miniature ``repro`` package for the analyzer's own tests.

Tests analyze a copy of this directory as the package ``repro``; it is
never imported.  It keeps the real package's layers (``core``, ``hw``,
``pmap``, ``pager``), the four modules that declare guarded classes, a
concrete pmap and calls that cross modules, in a few hundred lines,
and every static pass finds it clean.  The cache's mechanics (reads,
parses and hashes per file, crashed results never stored, the
retry) and the ``repro check`` plumbing are checked on it; what is a
property of the shipped tree is checked on the shipped tree.

Keep the modules documented as densely as they are.  The cache keys
and call summaries a run hashes cost a fixed amount per module and per
function, and ``test_check_hashes_each_file_once`` bounds them by half
the bytes of the sources; on this tree they are about 46%.
"""
