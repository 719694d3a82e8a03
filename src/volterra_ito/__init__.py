"""Numerical verification engine for the operator Ito formula on Volterra
Gaussian processes: kernels, exact Gaussian polynomial calculus, path
simulation, energy functions / intrinsic brackets and Markovian kernel
approximation."""

__version__ = "0.1.0"
