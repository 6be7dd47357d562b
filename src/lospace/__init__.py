"""Linear-working-space exact linear algebra over the integers and rationals.

Public surface:

- ``numeric``  -- L-bit floating points rounded to nearest, and fixed points
- ``primes``   -- Miller-Rabin testing, uniform prime sampling, CRT
- ``linop``    -- sparse matrices and composed black-box operators
- ``wiedemann``-- finite-field minimal polynomials, solves, dets
- ``solver``   -- exact CRT determinant and the p-adic lifting solver
- ``spectral`` -- inverse power, spectrum, eigendecomposition, SVD
- ``meter``    -- working-space accounting for the space claims

``lospace.oracle`` holds brute-force ground truths and is imported only by
the test suite, never by any of the modules above.
"""

__version__ = "0.1.0"
