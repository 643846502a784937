"""conespec: desk-scale spectral asymptotics for model cone operators.

Subpackages
-----------
indexsets    exact algebra of truncated index sets
symbols      parameter-dependent symbols and sampled seminorm checks
coneop       model cone operators, boundary spectra, discretizations
traces       heat and resolvent traces with truncation control
asymptotics  log-polynomial expansion fitting and zeta continuation
index        McKean-Singer traces, eta integrals, index assembly
oracles      independent checks shared by `conespec verify` and the tests
cli          experiment runner
"""

__version__ = "0.1.0"
