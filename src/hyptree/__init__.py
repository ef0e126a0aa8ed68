"""Hyperbolic neural networks on the hyperboloid model, low-distortion tree
embeddings with curvature selection, and tree-embedding experiments.

Submodules:

* :mod:`hyptree.hypgeom`  - hyperboloid geometry kernel
* :mod:`hyptree.kernels`  - hot numeric kernels: layout step, tree metric, pair distances, ratios
* :mod:`hyptree.seeding`  - named, independent random streams from one seed
* :mod:`hyptree.trees`    - weighted trees, metrics, generators, spring layout
* :mod:`hyptree.networks` - MLP / hyperbolic-network parameters, forwards, memorizers
* :mod:`hyptree.autodiff` - the training tower's forward pass and explicit layer backprop
* :mod:`hyptree.train`    - pair-distance regression training
* :mod:`hyptree.embed`    - explicit tree embeddings, curvature selection, distortion
* :mod:`hyptree.cli`      - command-line entry points
"""

__version__ = "0.1.0"
