"""Operator-geometry toolkit for finite direct sums of full matrix algebras.

Classifies partial isometries, unitaries, invertibles, self-adjoint,
positive, and projection operators both algebraically and through the
geometry of their norming functionals, producing checkable witnesses and
certificates along the way.

The API is the modules, each imported by its own path: `opgeo.linalg`
(guarded dense kernels), `opgeo.algebra` (shapes, elements, functionals,
tolerances), `opgeo.classify` (the routes and `classify_all`),
`opgeo.generators`, `opgeo.documents` (JSON wire formats), `opgeo.harness`
(seeded property suites) and `opgeo.cli` (the `opgeo` command).  The
package binds `__version__` alone, so `import opgeo.X` loads only X and
the layers X imports.
"""

__version__ = "0.1.0"
