"""Graph contrastive learning with a meta-learned graph augmenter.

A self-contained engine: tape autodiff with second-order support, GIN
encoder over edge-weighted message passing, the trainable edge-weight
augmenter, the contrastive and correlation losses, the alternating bilevel
training loop, and the linear-probe evaluation protocol. It computes with
numpy, and calls two of scipy's compiled sparse kernels (``autodiff``)
without importing ``scipy.sparse``.
"""

from .allocator import keep_freed_memory

__version__ = "0.1.0"

# large tape temporaries are reused from the heap, not mapped anew per step
keep_freed_memory()

from . import openblas  # noqa: E402  (numpy loads after the thresholds)

# one OpenBLAS thread, so same-seed bits do not depend on how the process
# was started (``openblas``)
openblas.set_threads(1)
